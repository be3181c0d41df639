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


def output_digests(grid):
    """sha256 of the sweep's CSV, and of every run's JSON-lines trace."""
    csv = csv_lines(sweep(grid))
    traces = []
    for point in expand_grid(grid):
        cfg = build_config(point)
        for r in range(cfg.num_runs):
            result, trace, _ = run_one(cfg, r)
            header = {"config": config_to_dict(cfg), "run": result.run, "seed": result.seed}
            traces += trace_lines(trace, header)
    return tuple(hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() for lines in (csv, traces))


@pytest.mark.parametrize(
    "grid, csv_digest, trace_digest",
    [
        # The CSV digests have not moved since decoding read logits through a
        # softmax. The trace digests moved when the denoisers began to return
        # probability rows: their confidences lost the ulps of that round trip.
        (
            INJECT_REMASK,
            "2a1d16cb2b0e5fda387024e59d05071949108280057a88332475c0ebd0d26908",
            "dc41fd0aa7e41225734bd08d6a6c8eb9300b73abf85c15f50e8cf8075c94c62d",
        ),
        (
            EMBED,
            "4059f17cbef6ea15e2bba7439be5c5ca9aa701591a856d01964e138051701c87",
            "4f746537dbbf7dfe20193fe2e3b5b3b619b6ad6f29ba1eefe951be2ceae5abc1",
        ),
        (
            MARKOV_SWEEP,
            "0b0853453aa61824ec37425a2cd02ebdce39f0c7eccb0c584b84986acfe106b2",
            "d600f84aa55478853d4d5c87590d53e21b8c92e407d46d2115d97d5a1a521fae",
        ),
    ],
    ids=["inject-remask", "embed", "markov-sweep"],
)
def test_output_bytes_are_pinned(grid, csv_digest, trace_digest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path / "corpus.txt")
    assert output_digests(grid) == (csv_digest, trace_digest)
