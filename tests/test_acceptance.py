"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
The heavier directional experiments (criteria 4-6) share cached simulation
results through a module-level memo so each criterion stays inside its
runtime budget whether run alone or in file order.
"""

import random
import subprocess
import sys
import time

import numpy as np

from nfe_law import exact_mean_nfe
from reference_decoder import reference_decode
from reference_rows import override_vectors, reference_rows, rows_denoiser
from warmdiff.bigram import BigramModel
from warmdiff.core import DeterministicRng, DiffusionState, Vocabulary, all_mask_init, softmax
from warmdiff.decoder import DecodeConfig, decode, remask_rates
from warmdiff.denoiser import NoisyOracleParams, prepare
from warmdiff.harness import (
    build_config,
    check_trace_invariants,
    run_experiment,
    run_one,
    trace_lines,
)
from warmdiff.warmstart import inject_tokens, interpolate_embeddings
from warmdiff.core import EmbeddingTable

RUNS = 200

# Criterion 4 pins this setting outright.
C4_SETTING = {
    "n": 32, "vocab_size": 64, "embed_dim": 8, "num_runs": RUNS, "seed": 2026,
    "denoiser.c0": 0.4, "denoiser.gamma": 0.6, "denoiser.c_max": 0.99, "decode.tau": 0.9,
}

# Criteria 5/6 pin only (credulous, window=3, eps=0.5, rho=0.25, 200 runs);
# the confidence schedule is chosen so that the pinned remask schedule
# (b0=0.5, lambda=0.05) leaves some surviving priors inside the ~10-iteration
# bias window, which is where the skepticism effect is demonstrable.
C56_SETTING = {
    "n": 32, "vocab_size": 64, "embed_dim": 8, "num_runs": RUNS, "seed": 2026,
    "denoiser.mode": "credulous", "denoiser.window": 3,
    "denoiser.c0": 0.75, "denoiser.gamma": 1.0, "denoiser.c_max": 0.99, "decode.tau": 0.9,
}

METHOD1 = {"warmstart.method": "token-injection", "warmstart.rho": 0.25}

_MEMO: dict = {}


def _report(name: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _runs(overrides):
    record = run_experiment(build_config(overrides))
    nfe = np.array([r.nfe for r in record.runs], dtype=float)
    acc = np.array([r.token_acc for r in record.runs], dtype=float)
    return nfe, acc


def _memo(key, overrides):
    if key not in _MEMO:
        _MEMO[key] = _runs(overrides)
    return _MEMO[key]


def _mean_ci(xs):
    half = 1.96 * xs.std(ddof=1) / np.sqrt(len(xs)) if len(xs) > 1 else 0.0
    return xs.mean() - half, xs.mean() + half


def _diff_ci(a, b):
    """95% CI for mean(a) - mean(b), Welch-style."""
    se = np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    d = a.mean() - b.mean()
    return d - 1.96 * se, d + 1.96 * se


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for V in range(2, 5):
            for tau in (0.5, 0.9):
                for seed in range(3):
                    gen = np.random.default_rng(1000 * n + 100 * V + seed + int(tau * 10))
                    weights = [np.exp(gen.normal(size=(n, V)) * 2.0) for _ in range(n)]
                    script = [w / w.sum(axis=1, keepdims=True) for w in weights]  # probability rows

                    def scripted(arrays):
                        it = iter(arrays)
                        return lambda state, ctx, rows: next(it)[rows]

                    v = Vocabulary(V)
                    ctx = None  # the scripted denoiser reads no context
                    trace = decode(
                        rows_denoiser(scripted(script)), ctx, all_mask_init(v, n),
                        DecodeConfig(tau=tau, k_max=2 * n), DeterministicRng(0),
                    )
                    ref_tokens, ref_records = reference_decode(
                        scripted(script), ctx, all_mask_init(v, n).tokens, v, tau=tau
                    )
                    assert trace.final_tokens.tolist() == ref_tokens
                    assert len(trace.iterations) == len(ref_records)
                    for rec, ref in zip(trace.iterations, ref_records):
                        assert rec.k == ref["k"]
                        assert [(p, t) for p, t, _ in rec.unmasked] == [
                            (p, t) for p, t, _ in ref["unmasked"]
                        ]
                    checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (oracle equivalence)",
        elapsed < 1.0,
        f"{checked} scripted decodes match the reference loop exactly; {elapsed:.2f}s",
    )


def test_criterion_2_termination_and_progress():
    t0 = time.perf_counter()
    rnd = random.Random(2026)
    problems = []
    for trial in range(1000):
        n = rnd.randint(1, 64)
        c0 = rnd.uniform(0.0, 1.0)
        overrides = {
            "n": n,
            "vocab_size": rnd.randint(2, 16),
            "embed_dim": 4,
            "num_runs": 1,
            "seed": rnd.randint(0, 2**31),
            "denoiser.mode": rnd.choice(["faithful", "credulous"]),
            "denoiser.window": rnd.choice([1, 3, 5]),
            "denoiser.c0": c0,
            "denoiser.gamma": rnd.uniform(0.0, 2.0),
            "denoiser.eta": rnd.uniform(0.0, 1.0),
            "denoiser.c_max": rnd.uniform(c0, 1.0),
            "proposer.epsilon": rnd.uniform(0.0, 1.0),
            "warmstart.method": rnd.choice(
                ["none", "token-injection", "embedding-interpolation"]
            ),
            "warmstart.rho": rnd.uniform(0.0, 1.0),
            "warmstart.alpha": rnd.uniform(0.0, 1.0),
            "warmstart.override_persistence": rnd.choice(["while-masked", "first-iteration"]),
            "decode.tau": rnd.uniform(0.05, 1.0),
            "decode.remask_enabled": rnd.choice([True, False]),
            "decode.b0": rnd.uniform(0.01, 1.0),
            "decode.lambda": rnd.uniform(0.005, 0.5),
        }
        result, trace, init = run_one(build_config(overrides), 0)
        bound = n + len(init.injected)
        if trace.nfe > bound:
            problems.append(f"trial {trial}: {trace.nfe} iterations exceeds bound {bound}")
        if result.capped:
            problems.append(f"trial {trial}: hit the k_max cap")
        problems.extend(f"trial {trial}: {p}" for p in check_trace_invariants(trace, init))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (termination and progress)",
        not problems and elapsed < 30.0,
        f"1000 randomized configs clean in {elapsed:.1f}s"
        + (f"; first problems: {problems[:3]}" if problems else ""),
    )


def test_criterion_3_degeneration_identities():
    t0 = time.perf_counter()

    # (a) token injection at rho=0 leaves traces byte-identical to method=none.
    base = {"n": 16, "vocab_size": 8, "num_runs": 4, "seed": 11,
            "decode.remask_enabled": True, "proposer.epsilon": 0.4}
    rho0 = dict(base, **{"warmstart.method": "token-injection", "warmstart.rho": 0.0})
    same_bytes = True
    for r in range(4):
        _, trace_none, _ = run_one(build_config(base), r)
        _, trace_rho0, _ = run_one(build_config(rho0), r)
        lines_none = "\n".join(trace_lines(trace_none, {})[1:])
        lines_rho0 = "\n".join(trace_lines(trace_rho0, {})[1:])
        same_bytes = same_bytes and lines_none.encode() == lines_rho0.encode()

    # (b) alpha=0 override vectors are bitwise the mask embedding, so every
    # kept id's blend cosine is the mask's and its bonus exactly 0.
    bitwise_mask = True
    for seed in range(5):
        v = Vocabulary(9)
        table = EmbeddingTable.random(v, 6, DeterministicRng(seed))
        prop = np.arange(32) % 9
        override = interpolate_embeddings(prop, table, 0.0, 0.6, DeterministicRng(seed + 1))
        expected = np.tile(table.mask_vector(), (32, 1))
        bitwise_mask = bitwise_mask and override_vectors(override).tobytes() == expected.tobytes()
        kept = [(p, t) for p, t in zip(override.ids.tolist(), range(9)) if p >= 0]
        bitwise_mask = bitwise_mask and bool(kept) and all(
            table.blend_cosine(0.0, p, t) == table.mask_cosines[t] for p, t in kept
        )

    # (c) perfect oracle decodes any length in a single iteration.
    perfect = True
    for n in (1, 2, 3, 5, 8, 16, 27, 64):
        result, _, _ = run_one(
            build_config({"n": n, "denoiser.c0": 1.0, "denoiser.c_max": 1.0, "num_runs": 1}), 0
        )
        perfect = perfect and result.nfe == 1 and result.exact_match

    # (d) permanently sub-threshold confidence forces exactly n iterations.
    forced = True
    for n in (1, 5, 9, 17, 33):
        result, _, _ = run_one(
            build_config({
                "n": n, "vocab_size": 4, "num_runs": 1,
                "denoiser.c0": 0.3, "denoiser.gamma": 0.0, "denoiser.c_max": 0.3,
            }),
            0,
        )
        forced = forced and result.nfe == n
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 3 (degeneration identities)",
        same_bytes and bitwise_mask and perfect and forced and elapsed < 5.0,
        f"rho=0 trace identity={same_bytes}, alpha=0 bitwise mask={bitwise_mask}, "
        f"perfect-oracle NFE=1={perfect}, sub-threshold NFE=n={forced}; {elapsed:.1f}s",
    )


def test_criterion_4_nfe_reduction():
    t0 = time.perf_counter()
    nfe_b, _ = _memo("c4-baseline", C4_SETTING)
    nfe_m, _ = _memo("c4-method1", {**C4_SETTING, **METHOD1, "proposer.epsilon": 0.0})
    elapsed = time.perf_counter() - t0

    reduction = (nfe_b.mean() - nfe_m.mean()) / nfe_b.mean()
    diff_lo, diff_hi = _diff_ci(nfe_b, nfe_m)
    b_lo, b_hi = _mean_ci(nfe_b)
    m_lo, m_hi = _mean_ci(nfe_m)
    # Exact means from the closed-form law over the start's multinomial.
    law = [C4_SETTING[k] for k in ("n", "denoiser.c0", "denoiser.gamma", "denoiser.c_max", "decode.tau")]
    exact_b = exact_mean_nfe(*law, rho=0.0, epsilon=0.0)
    exact_m = exact_mean_nfe(*law, rho=METHOD1["warmstart.rho"], epsilon=0.0)
    ok = (
        nfe_m.mean() < nfe_b.mean()
        and reduction >= 0.10
        and diff_lo > 0.0
        and m_hi < b_lo  # individual 95% CIs do not overlap
        and b_lo <= exact_b <= b_hi
        and m_lo <= exact_m <= m_hi
        and elapsed < 60.0
    )
    _report(
        "criterion 4 (NFE reduction)",
        ok,
        f"baseline NFE {nfe_b.mean():.2f} [{b_lo:.2f},{b_hi:.2f}] (exact {float(exact_b):.3f}) vs token-injection "
        f"{nfe_m.mean():.2f} [{m_lo:.2f},{m_hi:.2f}] (exact {float(exact_m):.3f}); reduction {reduction:.1%}, "
        f"diff CI [{diff_lo:.2f},{diff_hi:.2f}]; {elapsed:.1f}s",
    )


def test_criterion_5_quality_lock_in():
    t0 = time.perf_counter()
    _, acc_b = _memo("c5-baseline", C56_SETTING)
    _, acc_m = _memo("c5-method1", {**C56_SETTING, **METHOD1, "proposer.epsilon": 0.5})
    elapsed = time.perf_counter() - t0

    diff_lo, diff_hi = _diff_ci(acc_b, acc_m)  # baseline minus method
    ok = acc_m.mean() < acc_b.mean() and diff_lo > 0.0 and elapsed < 60.0
    _report(
        "criterion 5 (quality lock-in)",
        ok,
        f"baseline acc {acc_b.mean():.4f} vs naive warm-start acc {acc_m.mean():.4f}; "
        f"drop CI [{diff_lo:.4f},{diff_hi:.4f}] excludes zero; {elapsed:.1f}s",
    )


def test_criterion_6_prior_skepticism_helps():
    t0 = time.perf_counter()
    nfe_b4, _ = _memo("c4-baseline", C4_SETTING)
    nfe_b5, _ = _memo("c5-baseline", C56_SETTING)
    nfe_m5, acc_m5 = _memo("c5-method1", {**C56_SETTING, **METHOD1, "proposer.epsilon": 0.5})
    nfe_rm, acc_rm = _memo(
        "c6-remask",
        {**C56_SETTING, **METHOD1, "proposer.epsilon": 0.5,
         "decode.remask_enabled": True, "decode.b0": 0.5, "decode.lambda": 0.05},
    )
    elapsed = time.perf_counter() - t0

    acc_lo, acc_hi = _diff_ci(acc_rm, acc_m5)  # remask minus no-remask
    accuracy_ok = acc_hi >= 0.0  # strictly-below with CI excluding zero fails
    mean_ordered = acc_rm.mean() >= acc_m5.mean()
    nfe_ok = nfe_rm.mean() < nfe_b4.mean() and nfe_rm.mean() < nfe_b5.mean()
    ok = accuracy_ok and nfe_ok and elapsed < 60.0
    _report(
        "criterion 6 (prior skepticism)",
        ok,
        f"acc remask {acc_rm.mean():.4f} vs no-remask {acc_m5.mean():.4f} "
        f"(diff CI [{acc_lo:.4f},{acc_hi:.4f}], mean>=: {mean_ordered}); "
        f"NFE remask {nfe_rm.mean():.2f} < criterion-4 baseline {nfe_b4.mean():.2f} "
        f"and < own-setting baseline {nfe_b5.mean():.2f}; {elapsed:.1f}s",
    )


def test_criterion_7_statistical_gates():
    t0 = time.perf_counter()

    gates_ok = True
    details = []
    n = 10_000
    for i, rho in enumerate((0.1, 0.25, 0.5)):
        v = Vocabulary(4)
        prop = np.zeros(n, dtype=np.int64)
        frac = len(inject_tokens(v, prop, rho, DeterministicRng(300 + i)).injected) / n
        sigma = np.sqrt(rho * (1 - rho) / n)
        gates_ok = gates_ok and abs(frac - rho) <= 3 * sigma
        details.append(f"rho={rho}: {frac:.4f}")

    gen = np.random.default_rng(7)
    c_bar = gen.uniform(0.0, 1.0, size=100_000)
    rates_ok = True
    for k, b0, lam in ((1, 0.5, 0.05), (3, 0.9, 0.01), (50, 0.2, 0.3), (10_000, 1.0, 0.5)):
        r = remask_rates(c_bar, k, b0, lam)
        rates_ok = rates_ok and (r >= 0.0).all() and (r <= 1.0).all()

    rows = gen.normal(size=(100_000, 8)) * 30.0
    sums = softmax(rows).sum(axis=1)
    softmax_ok = np.abs(sums - 1.0).max() <= 1e-9

    # 1e5 denoiser rows: both oracle modes and the markov mixture, over
    # random parameters and partly revealed states. The denoisers return no
    # rows; these are the rows they reduce, which the equivalence tests tie
    # to them bit for bit.
    v = Vocabulary(8)
    model = BigramModel.fit([gen.integers(0, 8, size=400).tolist()], 8)
    worst = 0.0
    for i in range(10):
        c0 = gen.uniform(0.0, 1.0)
        params = NoisyOracleParams(
            c0=c0, gamma=gen.uniform(0.0, 2.0), c_max=gen.uniform(c0, 1.0), mode=("faithful", "credulous")[i % 2]
        )
        target = gen.integers(0, 8, size=5000)
        state = DiffusionState(
            vocab=v, tokens=np.where(gen.uniform(size=5000) < gen.uniform(), gen.integers(0, 8, size=5000), v.mask_id)
        )
        for kind, p in (("noisy-oracle", params), ("markov", model)):
            _, ctx = prepare(target, p, state)
            worst = max(worst, float(np.abs(reference_rows(kind)(state, ctx).sum(axis=1) - 1.0).max()))
    rows_ok = worst <= 1e-9

    elapsed = time.perf_counter() - t0
    _report(
        "criterion 7 (statistical gates)",
        gates_ok and rates_ok and softmax_ok and rows_ok and elapsed < 10.0,
        f"injection fractions ({', '.join(details)}) within 3 sigma; remask rates in [0,1]; "
        f"1e5 softmax rows and 1e5 denoiser probability rows sum to 1 within 1e-9 "
        f"(worst {worst:.1e}); {elapsed:.1f}s",
    )


def test_criterion_8_reproducibility(tmp_path):
    config_text = (
        "n = 16\nvocab_size = 12\nnum_runs = 5\nseed = 99\n"
        'warmstart.method = "token-injection"\nwarmstart.rho = 0.3\n'
        "proposer.epsilon = 0.4\ndecode.remask_enabled = true\n"
    )
    grid_text = config_text.replace(
        'warmstart.method = "token-injection"',
        'warmstart.method = "none", "token-injection"',
    )
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_text, encoding="utf-8")
    grid = tmp_path / "grid.txt"
    grid.write_text(grid_text, encoding="utf-8")

    def invoke(args):
        proc = subprocess.run(
            [sys.executable, "-m", "warmdiff", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    outputs = []
    for rep in range(2):
        trace = tmp_path / f"trace{rep}.jsonl"
        csv = tmp_path / f"rows{rep}.csv"
        sweep_csv = tmp_path / f"sweep{rep}.csv"
        stdout = invoke(["run", "--config", str(cfg), "--trace", str(trace), "--csv", str(csv)])
        invoke(["sweep", "--grid", str(grid), "--out", str(sweep_csv)])
        outputs.append((stdout, trace.read_bytes(), csv.read_bytes(), sweep_csv.read_bytes()))

    ok = outputs[0] == outputs[1]
    _report(
        "criterion 8 (reproducibility)",
        ok,
        "repeated run/sweep invocations produced byte-identical CSV, trace, and stdout",
    )
