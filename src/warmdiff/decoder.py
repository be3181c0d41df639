"""Confidence-threshold parallel unmasking with optional remasking.

One loop iteration = one denoiser call: convert logits to probabilities,
unmask every masked position whose confidence strictly exceeds tau (or the
single most confident one if none does, guaranteeing progress), then
stochastically remask still-injected positions at a rate driven by their
current-token confidence and a linearly decaying bias. Model-decoded tokens
are never revised; each injected position can be remasked at most once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import DeterministicRng, DiffusionState, softmax
from .warmstart import WarmStartConfig

__all__ = [
    "DecodeConfig",
    "IterationRecord",
    "DecodeTrace",
    "confidences",
    "select_unmask",
    "remask_rates",
    "apply_remask",
    "decode",
]


@dataclass(frozen=True)
class DecodeConfig:
    """Decoding knobs: threshold tau, remask switch, bias schedule, hard cap.

    The remask bias at iteration k is b0 - lam * k (first denoiser call is
    k = 1). k_max is a safety valve only; any k_max >= n + |injected|
    guarantees the cap never binds.
    """

    tau: float = 0.9
    remask_enabled: bool = False
    b0: float = 0.5
    lam: float = 0.05
    k_max: int = 4096

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.b0 <= 0.0:
            raise ValueError("b0 must be > 0")
        if self.lam <= 0.0:
            raise ValueError("lam must be > 0")
        if self.k_max < 1:
            raise ValueError("k_max must be a positive integer")


@dataclass
class IterationRecord:
    """What one iteration did: k, (pos, token, conf) unmasks, (pos, rate)
    remasks, and the masked count afterwards."""

    k: int
    unmasked: list[tuple[int, int, float]]
    remasked: list[tuple[int, float]]
    masked_after: int


@dataclass
class DecodeTrace:
    iterations: list[IterationRecord] = field(default_factory=list)
    final_tokens: np.ndarray | None = None
    nfe: int = 0
    capped: bool = False


def confidences(pi: np.ndarray, state: DiffusionState) -> np.ndarray:
    """Per-position confidence: max probability at masked positions, the
    current token's probability at fixed ones."""
    conf = pi.max(axis=1)
    fixed = np.flatnonzero(~state.masked())
    conf[fixed] = pi[fixed, state.tokens[fixed]]
    return conf


def select_unmask(conf: np.ndarray, masked: np.ndarray, tau: float) -> np.ndarray:
    """Masked positions to unmask: all with conf strictly above tau, else the
    single most confident one (lowest index on ties)."""
    if not masked.any():
        raise ValueError("select_unmask requires at least one masked position")
    hits = np.flatnonzero(masked & (conf > tau))
    if hits.size:
        return hits
    forced = np.where(masked, conf, -np.inf)
    return np.array([int(np.argmax(forced))], dtype=np.int64)


def remask_rates(c_bar: np.ndarray, k: int, b0: float, lam: float) -> np.ndarray:
    """clip_[0,1]((1 - c_bar) + b0 - lam * k)."""
    bias = b0 - lam * k
    return np.clip((1.0 - np.asarray(c_bar, dtype=np.float64)) + bias, 0.0, 1.0)


def apply_remask(
    state: DiffusionState,
    positions: np.ndarray,
    rates: np.ndarray,
    rng: DeterministicRng,
    k: int,
) -> list[tuple[int, float]]:
    """Independently remask each eligible position with its rate (draws
    addressed by "remask", position, k). A remasked position leaves the
    injected set permanently."""
    remasked = []
    for pos, rate in zip(positions, rates):
        pos = int(pos)
        if rng.draw("remask", pos, k) < rate:
            state.tokens[pos] = state.vocab.mask_id
            state.injected.discard(pos)
            remasked.append((pos, float(rate)))
    return remasked


def decode(
    denoiser,
    ctx,
    init: DiffusionState,
    dcfg: DecodeConfig,
    wcfg: WarmStartConfig,
    rng: DeterministicRng,
) -> tuple[np.ndarray, DecodeTrace]:
    """Run the full inference loop from a warm-started (or all-mask) state.

    Per iteration k = 1, 2, ...: call the denoiser (one NFE), softmax the
    logits, unmask via the strict-tau rule, then (if enabled) remask
    still-injected positions using the same probability matrix. Stops when
    nothing is masked; if the k_max cap is hit first, the trace is flagged
    "capped" instead of raising.

    The embedding override is visible to the denoiser on every iteration
    under "while-masked" persistence, and only on the first under
    "first-iteration".
    """
    state = init.copy()
    n = len(state.tokens)
    recommended = n + len(state.injected)
    if dcfg.k_max < recommended:
        warnings.warn(
            f"k_max={dcfg.k_max} is below n + |injected| = {recommended}; decode may hit the cap",
            stacklevel=2,
        )

    trace = DecodeTrace()
    k = 0
    masked = state.masked()  # refreshed once per iteration, after unmask and remask
    while masked.any() and k < dcfg.k_max:
        k += 1
        if wcfg.override_persistence == "first-iteration" and k > 1:
            state.embedding_override = None

        logits = denoiser(state, ctx)
        pi = softmax(logits)
        conf = confidences(pi, state)
        chosen = select_unmask(conf, masked, dcfg.tau)
        tokens = pi[chosen].argmax(axis=1)
        unmasked = [(int(p), int(t), float(conf[p])) for p, t in zip(chosen, tokens)]
        state.tokens[chosen] = tokens

        remasked: list[tuple[int, float]] = []
        if dcfg.remask_enabled and state.injected:
            eligible = np.array(sorted(state.injected), dtype=np.int64)
            c_bar = pi[eligible, state.tokens[eligible]]
            rates = remask_rates(c_bar, k, dcfg.b0, dcfg.lam)
            remasked = apply_remask(state, eligible, rates, rng, k)

        masked = state.masked()
        trace.iterations.append(
            IterationRecord(k=k, unmasked=unmasked, remasked=remasked, masked_after=int(masked.sum()))
        )

    trace.nfe = len(trace.iterations)
    trace.capped = bool(masked.any())
    trace.final_tokens = state.tokens.copy()
    return state.tokens.copy(), trace
