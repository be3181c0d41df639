"""The benchmark's workloads and the inputs it makes for them.

Every input is a pure function of the workload name and the workload seed:
the engine config (written as a config file, the way a user would), the
config seed the engine derives its run seeds from, and for `markov-sweep`
a synthetic corpus. All workloads use n = 64 and V = 64.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

N = 64
VOCAB = 64


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict  # config keys; a list value is a sweep dimension
    sweep: bool  # drive through harness.sweep instead of run_one per run
    configs: int  # configs per batch, each with its own seed (and so its own embedding table)
    writes_trace: bool  # write JSON-lines traces inside the timed region
    corpus_shape: tuple[int, int] | None  # (sequences, tokens per sequence)


def _base(tiny: bool) -> dict:
    return {"n": 16 if tiny else N, "vocab_size": 16 if tiny else VOCAB}


def _oracle_inject_remask(tiny: bool) -> Workload:
    return Workload(
        name="oracle-inject-remask",
        overrides={
            **_base(tiny),
            # NFE ranges from 2 to ~55 per run, so the batch mean (and with it
            # runs/s) needs many runs to agree across seeds.
            "num_runs": 4 if tiny else 384,
            "warmstart.method": "token-injection",
            "warmstart.rho": 0.9,
            "proposer.epsilon": 0.1,
            "decode.remask_enabled": True,
            "decode.b0": 0.01,
            "decode.lambda": 0.002,
            "decode.tau": 0.9,
        },
        sweep=False,
        configs=1,
        writes_trace=True,
        corpus_shape=None,
    )


def _oracle_embed(tiny: bool) -> Workload:
    return Workload(
        name="oracle-embed",
        overrides={
            **_base(tiny),
            "num_runs": 2 if tiny else 24,
            "embed_dim": 4 if tiny else 256,
            "warmstart.method": "embedding-interpolation",
            "warmstart.rho": 0.5,
            "warmstart.alpha": 0.6,
            "denoiser.eta": 0.5,
            "proposer.epsilon": 0.1,
            "decode.tau": 0.9,
        },
        sweep=False,
        # Each table shifts the cosine bonus of every run, and the NFE with
        # it, so a batch averages over several wide tables.
        configs=2 if tiny else 8,
        writes_trace=False,
        corpus_shape=None,
    )


def _markov_sweep(tiny: bool) -> Workload:
    return Workload(
        name="markov-sweep",
        overrides={
            **_base(tiny),
            "num_runs": 1 if tiny else 16,
            "target_source": "corpus",
            "denoiser.kind": "markov",
            "proposer.kind": "markov",
            "warmstart.method": "token-injection",
            "warmstart.rho": [0.25, 0.5, 0.75],
            "decode.tau": [0.5, 0.9],
        },
        sweep=True,
        configs=1,
        writes_trace=False,
        corpus_shape=(8, 24) if tiny else (256, 96),
    )


_MAKERS = {
    "oracle-inject-remask": _oracle_inject_remask,
    "oracle-embed": _oracle_embed,
    "markov-sweep": _markov_sweep,
}
NAMES = tuple(_MAKERS)


def get(name: str, tiny: bool = False) -> Workload:
    return _MAKERS[name](tiny)


def derive_seed(*parts) -> int:
    """A 48-bit seed hashed from the parts.

    The engine seeds run r with `config_seed XOR r`, so nearby config seeds
    would share run seeds; hashing keeps different workload seeds apart.
    """
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:6], "little")


def write_corpus(path: Path, wl: Workload, seed: int) -> dict:
    """Write the workload's corpus and return its size.

    Tokens follow a random successor permutation with probability 0.8 and are
    uniform otherwise, so the bigram model is confident next to revealed
    tokens and both thresholds of the sweep grid matter.
    """
    sequences, length = wl.corpus_shape
    vocab = wl.overrides["vocab_size"]
    rng = random.Random(derive_seed("corpus", wl.name, seed))
    successor = list(range(vocab))
    for i in range(vocab - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        successor[i], successor[j] = successor[j], successor[i]
    lines = []
    for _ in range(sequences):
        tok = int(rng.random() * vocab)
        seq = [tok]
        for _ in range(length - 1):
            tok = successor[tok] if rng.random() < 0.8 else int(rng.random() * vocab)
            seq.append(tok)
        lines.append(" ".join(map(str, seq)))
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    return {"sequences": sequences, "length": length, "tokens": sequences * length, "bytes": len(text.encode())}


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, list):
        return ", ".join(_render(v) for v in value)
    return repr(value)


def config_text(wl: Workload, seed: int, corpus_path: str | None, index: int = 0) -> str:
    """The workload's `index`-th config file, with its seed and corpus path filled in."""
    values = {**wl.overrides, "seed": derive_seed("config", wl.name, seed, index)}
    if corpus_path is not None:
        values["corpus.path"] = corpus_path
    return "".join(f"{key} = {_render(value)}\n" for key, value in values.items())
