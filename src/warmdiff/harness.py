"""Seeded experiment harness.

Wires target generation, proposers, warm starts, and the decoder into
reproducible runs and parameter sweeps; emits per-run CSV rows and JSON-lines
decode traces. Config files are flat `key = value` text with dotted keys;
unknown keys are errors.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bigram import BigramModel, load_corpus
from .core import DeterministicRng, DiffusionState, EmbeddingTable, Vocabulary, all_mask_init
from .decoder import DecodeConfig, DecodeTrace, decode
from .denoiser import NoisyOracleParams, prepare
from .proposal import propose_corrupted, propose_markov
from .warmstart import WarmStartConfig, warm_init

__all__ = [
    "ConfigError",
    "InvariantViolation",
    "ExperimentConfig",
    "RunResult",
    "MetricsRecord",
    "RunResources",
    "parse_config_text",
    "load_config",
    "load_grid",
    "build_config",
    "config_to_dict",
    "build_resources",
    "run_one",
    "run_experiment",
    "sweep",
    "exact_match",
    "token_accuracy",
    "csv_lines",
    "trace_lines",
    "check_trace_invariants",
    "validate_runs",
    "CSV_COLUMNS",
]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class InvariantViolation(RuntimeError):
    """A decode trace broke one of the runtime invariants."""


# ---------------------------------------------------------------------------
# Configuration schema

_DEFAULTS = {
    "n": 16,
    "vocab_size": 16,
    "embed_dim": 8,
    "num_runs": 20,
    "seed": 0,
    "target_source": "uniform",
    "corpus.path": "",
    "denoiser.kind": "noisy-oracle",
    "denoiser.c0": 0.4,
    "denoiser.gamma": 0.6,
    "denoiser.eta": 0.0,
    "denoiser.c_max": 0.99,
    "denoiser.mode": "faithful",
    "denoiser.window": 3,
    "proposer.kind": "corrupted-oracle",
    "proposer.epsilon": 0.0,
    "warmstart.method": "none",
    "warmstart.rho": 0.25,
    "warmstart.alpha": 0.6,
    "warmstart.override_persistence": "while-masked",
    "decode.tau": 0.9,
    "decode.remask_enabled": False,
    "decode.b0": 0.5,
    "decode.lambda": 0.05,
    "decode.k_max": 0,  # 0 means "auto": resolved to 2 * n
}

_INT_KEYS = {"n", "vocab_size", "embed_dim", "num_runs", "seed", "denoiser.window", "decode.k_max"}
_FLOAT_KEYS = {
    "denoiser.c0",
    "denoiser.gamma",
    "denoiser.eta",
    "denoiser.c_max",
    "proposer.epsilon",
    "warmstart.rho",
    "warmstart.alpha",
    "decode.tau",
    "decode.b0",
    "decode.lambda",
}
_BOOL_KEYS = {"decode.remask_enabled"}
_STR_KEYS = {
    "target_source",
    "corpus.path",
    "denoiser.kind",
    "denoiser.mode",
    "proposer.kind",
    "warmstart.method",
    "warmstart.override_persistence",
}

# Dimensions a sweep grid may vary, in the canonical expansion order.
SWEEP_ORDER = [
    "warmstart.method",
    "warmstart.rho",
    "warmstart.alpha",
    "proposer.epsilon",
    "decode.tau",
    "decode.b0",
    "decode.lambda",
]

CSV_COLUMNS = [
    "grid_id",
    "method",
    "rho",
    "alpha",
    "epsilon",
    "tau",
    "b0",
    "lambda",
    "run",
    "seed",
    "nfe",
    "exact_match",
    "token_acc",
    "capped",
]


def _strip_comment(line: str) -> str:
    out = []
    quote = None
    for ch in line:
        if quote:
            out.append(ch)
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
            out.append(ch)
        elif ch == "#":
            break
        else:
            out.append(ch)
    return "".join(out)


def _parse_scalar(token: str, key: str):
    token = token.strip()
    if not token:
        raise ConfigError(f"empty value for key {key!r}")
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'":
        value = token[1:-1]
    elif token in ("true", "false"):
        value = token == "true"
    else:
        try:
            value = int(token)
        except ValueError:
            try:
                value = float(token)
            except ValueError:
                value = token  # bare word
    return _coerce(key, value)


def _coerce(key: str, value):
    if key in _BOOL_KEYS:
        if not isinstance(value, bool):
            raise ConfigError(f"{key} expects true or false, got {value!r}")
        return value
    if key in _INT_KEYS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key} expects an integer, got {value!r}")
        if isinstance(value, float):
            if not value.is_integer():
                raise ConfigError(f"{key} expects an integer, got {value!r}")
            value = int(value)
        return int(value)
    if key in _FLOAT_KEYS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key} expects a number, got {value!r}")
        return float(value)
    if key in _STR_KEYS:
        if not isinstance(value, str):
            raise ConfigError(f"{key} expects a string, got {value!r}")
        return value
    raise ConfigError(f"unknown config key {key!r}")


def parse_config_text(text: str, allow_sweep_lists: bool = False) -> dict:
    """Parse flat `key = value` lines into an override dict.

    With `allow_sweep_lists`, the sweepable keys may carry comma-separated
    value lists (grid dimensions); everywhere else a list is an error.
    """
    overrides: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw.strip()!r}")
        key, _, value_part = line.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parts = _split_commas(value_part)
        if len(parts) > 1:
            if not (allow_sweep_lists and key in SWEEP_ORDER):
                raise ConfigError(f"line {lineno}: key {key!r} does not accept a value list")
            overrides[key] = [_parse_scalar(p, key) for p in parts]
        else:
            overrides[key] = _parse_scalar(parts[0], key)
    return overrides


def _split_commas(text: str) -> list[str]:
    parts = []
    buf = []
    quote = None
    for ch in text:
        if quote:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
            buf.append(ch)
        elif ch == ",":
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def load_config(path: str) -> "ExperimentConfig":
    return build_config(_read_overrides(path, allow_sweep_lists=False))


def load_grid(path: str) -> dict:
    """Read a sweep config; sweepable keys may hold value lists."""
    return _read_overrides(path, allow_sweep_lists=True)


def _read_overrides(path: str, allow_sweep_lists: bool) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, allow_sweep_lists=allow_sweep_lists)


# ---------------------------------------------------------------------------
# Experiment configuration

@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    vocab_size: int
    embed_dim: int
    num_runs: int
    seed: int
    target_source: str
    corpus_path: str
    denoiser_kind: str
    oracle: NoisyOracleParams
    proposer_kind: str
    epsilon: float
    warmstart: WarmStartConfig
    decode: DecodeConfig


def build_config(overrides: dict) -> ExperimentConfig:
    """Defaults plus overrides, validated into an ExperimentConfig."""
    values = dict(_DEFAULTS)
    for key, value in overrides.items():
        if key not in values:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, list):
            raise ConfigError(f"key {key!r} holds a value list; expand the grid first")
        values[key] = _coerce(key, value)

    n = values["n"]
    if n < 1:
        raise ConfigError("n must be >= 1")
    if values["vocab_size"] < 2:
        raise ConfigError("vocab_size must be >= 2")
    if values["embed_dim"] < 1:
        raise ConfigError("embed_dim must be >= 1")
    if values["num_runs"] < 1:
        raise ConfigError("num_runs must be >= 1")
    if values["target_source"] not in ("uniform", "corpus"):
        raise ConfigError("target_source must be 'uniform' or 'corpus'")
    if values["denoiser.kind"] not in ("noisy-oracle", "markov"):
        raise ConfigError("denoiser.kind must be 'noisy-oracle' or 'markov'")
    if values["proposer.kind"] not in ("corrupted-oracle", "markov"):
        raise ConfigError("proposer.kind must be 'corrupted-oracle' or 'markov'")
    if not 0.0 <= values["proposer.epsilon"] <= 1.0:
        raise ConfigError("proposer.epsilon must be in [0, 1]")
    k_max = values["decode.k_max"]
    if k_max == 0:
        k_max = 2 * n
    elif k_max < 1:
        raise ConfigError("decode.k_max must be positive (or 0 for the 2n default)")

    try:
        oracle = NoisyOracleParams(
            c0=values["denoiser.c0"],
            gamma=values["denoiser.gamma"],
            eta=values["denoiser.eta"],
            c_max=values["denoiser.c_max"],
            mode=values["denoiser.mode"],
            window=values["denoiser.window"],
        )
        warmstart = WarmStartConfig(
            method=values["warmstart.method"],
            rho=values["warmstart.rho"],
            alpha=values["warmstart.alpha"],
            override_persistence=values["warmstart.override_persistence"],
        )
        dec = DecodeConfig(
            tau=values["decode.tau"],
            remask_enabled=values["decode.remask_enabled"],
            b0=values["decode.b0"],
            lam=values["decode.lambda"],
            k_max=k_max,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return ExperimentConfig(
        n=n,
        vocab_size=values["vocab_size"],
        embed_dim=values["embed_dim"],
        num_runs=values["num_runs"],
        seed=values["seed"],
        target_source=values["target_source"],
        corpus_path=values["corpus.path"],
        denoiser_kind=values["denoiser.kind"],
        oracle=oracle,
        proposer_kind=values["proposer.kind"],
        epsilon=values["proposer.epsilon"],
        warmstart=warmstart,
        decode=dec,
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Fully resolved flat key/value view, in canonical key order."""
    return {
        "n": cfg.n,
        "vocab_size": cfg.vocab_size,
        "embed_dim": cfg.embed_dim,
        "num_runs": cfg.num_runs,
        "seed": cfg.seed,
        "target_source": cfg.target_source,
        "corpus.path": cfg.corpus_path,
        "denoiser.kind": cfg.denoiser_kind,
        "denoiser.c0": cfg.oracle.c0,
        "denoiser.gamma": cfg.oracle.gamma,
        "denoiser.eta": cfg.oracle.eta,
        "denoiser.c_max": cfg.oracle.c_max,
        "denoiser.mode": cfg.oracle.mode,
        "denoiser.window": cfg.oracle.window,
        "proposer.kind": cfg.proposer_kind,
        "proposer.epsilon": cfg.epsilon,
        "warmstart.method": cfg.warmstart.method,
        "warmstart.rho": cfg.warmstart.rho,
        "warmstart.alpha": cfg.warmstart.alpha,
        "warmstart.override_persistence": cfg.warmstart.override_persistence,
        "decode.tau": cfg.decode.tau,
        "decode.remask_enabled": cfg.decode.remask_enabled,
        "decode.b0": cfg.decode.b0,
        "decode.lambda": cfg.decode.lam,
        "decode.k_max": cfg.decode.k_max,
    }


# ---------------------------------------------------------------------------
# Per-config resources (the fixed "model": embedding table, bigram counts)

@dataclass
class RunResources:
    table: EmbeddingTable
    bigram: BigramModel | None = None
    corpus: list[list[int]] | None = None


def build_resources(cfg: ExperimentConfig) -> RunResources:
    vocab = Vocabulary(cfg.vocab_size)
    table = EmbeddingTable.random(vocab, cfg.embed_dim, DeterministicRng(cfg.seed))
    needs_corpus = (
        cfg.denoiser_kind == "markov"
        or cfg.target_source == "corpus"
        or (cfg.proposer_kind == "markov" and cfg.warmstart.method != "none")
    )
    corpus = None
    bigram = None
    if needs_corpus:
        if not cfg.corpus_path:
            raise ConfigError("this configuration needs corpus.path to be set")
        try:
            corpus = load_corpus(cfg.corpus_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        for seq in corpus:
            for tok in seq:
                if tok < 0 or tok >= cfg.vocab_size:
                    raise ConfigError(f"corpus token {tok} outside [0, {cfg.vocab_size})")
        bigram = BigramModel.fit(corpus, cfg.vocab_size)
        if cfg.target_source == "corpus" and not any(len(s) >= cfg.n for s in corpus):
            raise ConfigError(f"corpus has no sequence of length >= n = {cfg.n}")
    return RunResources(table=table, bigram=bigram, corpus=corpus)


def _make_target(cfg: ExperimentConfig, resources: RunResources, rng: DeterministicRng) -> np.ndarray:
    if cfg.target_source == "uniform":
        return np.array(
            [int(rng.draw("target", i, 0) * cfg.vocab_size) for i in range(cfg.n)], dtype=np.int64
        )
    eligible = [s for s in resources.corpus if len(s) >= cfg.n]
    seq = eligible[int(rng.draw("target-seq", 0, 0) * len(eligible))]
    start = int(rng.draw("target-off", 0, 0) * (len(seq) - cfg.n + 1))
    return np.array(seq[start : start + cfg.n], dtype=np.int64)


# ---------------------------------------------------------------------------
# Metrics

def exact_match(out: np.ndarray, target: np.ndarray) -> bool:
    if len(out) != len(target):
        raise ValueError("output and target lengths differ")
    return bool(np.array_equal(out, target))


def token_accuracy(out: np.ndarray, target: np.ndarray) -> float:
    if len(out) != len(target):
        raise ValueError("output and target lengths differ")
    return float((np.asarray(out) == np.asarray(target)).mean())


@dataclass(frozen=True)
class RunResult:
    run: int
    seed: int
    nfe: int
    exact_match: bool
    token_acc: float
    capped: bool


@dataclass
class MetricsRecord:
    """Aggregates over one grid point, plus the per-run rows they come from."""

    grid_id: int
    method: str
    rho: float
    alpha: float
    epsilon: float
    tau: float
    b0: float
    lam: float
    runs: list[RunResult] = field(default_factory=list)

    @property
    def mean_nfe(self) -> float:
        return float(np.mean([r.nfe for r in self.runs]))

    @property
    def std_nfe(self) -> float:
        if len(self.runs) < 2:
            return 0.0
        return float(np.std([r.nfe for r in self.runs], ddof=1))

    @property
    def exact_match_rate(self) -> float:
        return float(np.mean([r.exact_match for r in self.runs]))

    @property
    def mean_token_acc(self) -> float:
        return float(np.mean([r.token_acc for r in self.runs]))

    @property
    def capped_runs(self) -> int:
        return sum(r.capped for r in self.runs)


def _record_for(cfg: ExperimentConfig, grid_id: int) -> MetricsRecord:
    return MetricsRecord(
        grid_id=grid_id,
        method=cfg.warmstart.method,
        rho=cfg.warmstart.rho,
        alpha=cfg.warmstart.alpha,
        epsilon=cfg.epsilon,
        tau=cfg.decode.tau,
        b0=cfg.decode.b0,
        lam=cfg.decode.lam,
    )


# ---------------------------------------------------------------------------
# Running

def run_one(
    cfg: ExperimentConfig, run_index: int, resources: RunResources | None = None
) -> tuple[RunResult, DecodeTrace, DiffusionState]:
    """One fully deterministic run: seed = base seed XOR run index.

    Returns the per-run metrics, the decode trace, and the initial state
    (the latter so callers can audit injected-position bookkeeping).
    """
    if resources is None:
        resources = build_resources(cfg)
    run_seed = cfg.seed ^ run_index
    rng = DeterministicRng(run_seed)
    vocab = Vocabulary(cfg.vocab_size)
    target = _make_target(cfg, resources, rng)

    if cfg.warmstart.method == "none":
        init = all_mask_init(vocab, cfg.n)
    else:
        if cfg.proposer_kind == "corrupted-oracle":
            prop = propose_corrupted(vocab, target, cfg.epsilon, rng)
        else:
            prop = propose_markov(resources.bigram, cfg.n, rng)
        init = warm_init(vocab, prop, resources.table, cfg.warmstart, rng)

    params = cfg.oracle if cfg.denoiser_kind == "noisy-oracle" else resources.bigram
    denoiser, ctx = prepare(cfg.denoiser_kind, target, params, init, resources.table)
    out, trace = decode(denoiser, ctx, init, cfg.decode, cfg.warmstart, rng)
    result = RunResult(
        run=run_index,
        seed=run_seed,
        nfe=trace.nfe,
        exact_match=exact_match(out, target),
        token_acc=token_accuracy(out, target),
        capped=trace.capped,
    )
    return result, trace, init


def run_experiment(
    cfg: ExperimentConfig, grid_id: int = 0, collect_traces: bool = False
) -> tuple[MetricsRecord, list[DecodeTrace]]:
    """All runs for one grid point, in run-index order."""
    resources = build_resources(cfg)
    record = _record_for(cfg, grid_id)
    traces = []
    for r in range(cfg.num_runs):
        result, trace, _ = run_one(cfg, r, resources)
        record.runs.append(result)
        if collect_traces:
            traces.append(trace)
    return record, traces


def expand_grid(overrides: dict) -> list[dict]:
    """Cartesian product over the sweepable keys, in canonical order.

    Dimensions expand in SWEEP_ORDER with values in the order written, so
    grid ids are stable for a given grid file.
    """
    base = {k: v for k, v in overrides.items() if not isinstance(v, list)}
    dims = []
    for key in SWEEP_ORDER:
        value = overrides.get(key)
        if isinstance(value, list):
            dims.append((key, value))
    points = []
    for combo in itertools.product(*(values for _, values in dims)):
        point = dict(base)
        for (key, _), value in zip(dims, combo):
            point[key] = value
        points.append(point)
    return points


def sweep(overrides: dict) -> list[MetricsRecord]:
    """One MetricsRecord per grid point, grid ids following expansion order."""
    records = []
    for grid_id, point in enumerate(expand_grid(overrides)):
        cfg = build_config(point)
        record, _ = run_experiment(cfg, grid_id=grid_id)
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Serialization

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_lines(records: list[MetricsRecord]) -> list[str]:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        for run in rec.runs:
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (
                        rec.grid_id,
                        rec.method,
                        rec.rho,
                        rec.alpha,
                        rec.epsilon,
                        rec.tau,
                        rec.b0,
                        rec.lam,
                        run.run,
                        run.seed,
                        run.nfe,
                        run.exact_match,
                        run.token_acc,
                        run.capped,
                    )
                )
            )
    return lines


def trace_lines(trace: DecodeTrace, header: dict) -> list[str]:
    """JSON-lines trace: a header object, one object per iteration, and a
    final summary object."""
    lines = [json.dumps(header)]
    for rec in trace.iterations:
        lines.append(
            json.dumps(
                {
                    "k": rec.k,
                    "unmasked": [{"pos": p, "tok": t, "conf": c} for p, t, c in rec.unmasked],
                    "remasked": [{"pos": p, "rate": r} for p, r in rec.remasked],
                    "masked_after": rec.masked_after,
                }
            )
        )
    lines.append(
        json.dumps(
            {
                "final_tokens": [int(t) for t in trace.final_tokens],
                "nfe": trace.nfe,
                "capped": trace.capped,
            }
        )
    )
    return lines


# ---------------------------------------------------------------------------
# Invariant checking (used by the `validate` subcommand and the test suite)

def check_trace_invariants(trace: DecodeTrace, init: DiffusionState) -> list[str]:
    """Audit one decode trace against the loop's guarantees.

    Checks progress (>= 1 unmask per iteration), masked-count bookkeeping,
    unmask-only behavior for model-decoded positions, one-shot remasking
    restricted to initially injected positions, the n + |I| termination
    bound, and NFE accounting. Returns a list of problems (empty = clean).
    """
    problems = []
    n = len(init.tokens)
    injected0 = set(init.injected)
    masked = set(int(i) for i in np.flatnonzero(init.masked()))
    unmasked_seen: set[int] = set()
    remasked_seen: set[int] = set()

    for idx, rec in enumerate(trace.iterations, start=1):
        if rec.k != idx:
            problems.append(f"iteration {idx}: recorded k={rec.k}")
        if len(rec.unmasked) < 1:
            problems.append(f"iteration {idx}: no position unmasked")
        for pos, tok, conf in rec.unmasked:
            if pos not in masked:
                problems.append(f"iteration {idx}: unmasked position {pos} was not masked")
            if pos in unmasked_seen:
                problems.append(f"iteration {idx}: position {pos} unmasked twice")
            if tok < 0 or tok >= init.vocab.size:
                problems.append(f"iteration {idx}: unmasked token {tok} outside vocabulary")
            if not 0.0 <= conf <= 1.0 + 1e-12:
                problems.append(f"iteration {idx}: confidence {conf} outside [0, 1]")
            unmasked_seen.add(pos)
            masked.discard(pos)
        for pos, rate in rec.remasked:
            if pos not in injected0:
                problems.append(f"iteration {idx}: non-injected position {pos} remasked")
            if pos in remasked_seen:
                problems.append(f"iteration {idx}: position {pos} remasked twice")
            if pos in unmasked_seen:
                problems.append(f"iteration {idx}: model-decoded position {pos} remasked")
            if not 0.0 <= rate <= 1.0:
                problems.append(f"iteration {idx}: remask rate {rate} outside [0, 1]")
            remasked_seen.add(pos)
            masked.add(pos)
        if rec.masked_after != len(masked):
            problems.append(
                f"iteration {idx}: masked_after={rec.masked_after}, bookkeeping says {len(masked)}"
            )

    if trace.nfe != len(trace.iterations):
        problems.append(f"nfe={trace.nfe} but {len(trace.iterations)} iterations recorded")
    bound = n + len(injected0)
    if not trace.capped and len(trace.iterations) > bound:
        problems.append(f"{len(trace.iterations)} iterations exceeds n + |I| = {bound}")
    if not trace.capped and masked:
        problems.append(f"decode finished with {len(masked)} masked positions but capped=False")
    if trace.capped and not masked:
        problems.append("trace flagged capped but nothing is masked")
    final_masked = int((trace.final_tokens == init.vocab.mask_id).sum())
    if final_masked != len(masked):
        problems.append(f"final tokens have {final_masked} masks, bookkeeping says {len(masked)}")
    return problems


def validate_runs(cfg: ExperimentConfig) -> list[str]:
    """Run every configured run and collect invariant violations."""
    resources = build_resources(cfg)
    problems = []
    records = []
    for r in range(cfg.num_runs):
        result, trace, init = run_one(cfg, r, resources)
        records.append(result)
        for problem in check_trace_invariants(trace, init):
            problems.append(f"run {r}: {problem}")
        if not math.isfinite(result.token_acc) or not 0.0 <= result.token_acc <= 1.0:
            problems.append(f"run {r}: token accuracy {result.token_acc} outside [0, 1]")
    rate = float(np.mean([r.exact_match for r in records]))
    acc = float(np.mean([r.token_acc for r in records]))
    if rate > acc + 1e-12:
        problems.append(f"exact-match rate {rate} exceeds mean token accuracy {acc}")
    return problems
