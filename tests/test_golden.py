"""Pinned output bytes for three small configs shaped like the benchmark's
workloads: token injection with remasking, embedding interpolation, and a
markov sweep. A change meant to keep results byte-identical must keep these
digests; a change that moves seeded results re-pins them and says so.
"""

import hashlib
import random

import pytest

from warmdiff.harness import (
    build_config,
    config_to_dict,
    csv_lines,
    expand_grid,
    run_one,
    sweep,
    trace_lines,
)

INJECT_REMASK = {
    "n": 16,
    "vocab_size": 16,
    "num_runs": 12,
    "seed": 41,
    "warmstart.method": "token-injection",
    "warmstart.rho": 0.9,
    "proposer.epsilon": 0.1,
    "decode.remask_enabled": True,
    "decode.b0": 0.01,
    "decode.lambda": 0.002,
    "decode.tau": 0.9,
}

EMBED = {
    "n": 16,
    "vocab_size": 16,
    "num_runs": 6,
    "seed": 42,
    "embed_dim": 16,
    "warmstart.method": "embedding-interpolation",
    "warmstart.rho": 0.5,
    "warmstart.alpha": 0.6,
    "denoiser.eta": 0.5,
    "proposer.epsilon": 0.1,
    "decode.tau": 0.9,
}

MARKOV_SWEEP = {
    "n": 16,
    "vocab_size": 16,
    "num_runs": 2,
    "seed": 43,
    "target_source": "corpus",
    "corpus.path": "corpus.txt",  # relative, so the trace headers do not name a temporary directory
    "denoiser.kind": "markov",
    "proposer.kind": "markov",
    "warmstart.method": ["none", "token-injection"],
    "warmstart.rho": [0.25, 0.75],
    "decode.tau": [0.5, 0.9],
}


def write_corpus(path, vocab=16, sequences=24, length=32):
    """A random successor permutation followed with probability 0.8."""
    rng = random.Random(7)
    successor = list(range(vocab))
    rng.shuffle(successor)
    lines = []
    for _ in range(sequences):
        seq = [rng.randrange(vocab)]
        for _ in range(length - 1):
            seq.append(successor[seq[-1]] if rng.random() < 0.8 else rng.randrange(vocab))
        lines.append(" ".join(map(str, seq)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def output_digest(grid):
    """sha256 of the sweep's CSV followed by every run's JSON-lines trace."""
    lines = csv_lines(sweep(grid))
    for point in expand_grid(grid):
        cfg = build_config(point)
        for r in range(cfg.num_runs):
            result, trace, _ = run_one(cfg, r)
            header = {"config": config_to_dict(cfg), "run": result.run, "seed": result.seed}
            lines += trace_lines(trace, header)
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


@pytest.mark.parametrize(
    "grid, digest",
    [
        (INJECT_REMASK, "271a8821788d2ac3a0c3174226040a2546c94813c3a42194c4cd604aad310ac4"),
        (EMBED, "889212e701f8d97e6feeb7e3664242d17aa8ad67ce81097758eed171b6357c92"),
        (MARKOV_SWEEP, "ea2603d243c6d51b1bdda6a668eac8c0f1d0730ca1cf87cfeeb7cd07739fe9f4"),
    ],
    ids=["inject-remask", "embed", "markov-sweep"],
)
def test_output_bytes_are_pinned(grid, digest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path / "corpus.txt")
    assert output_digest(grid) == digest
