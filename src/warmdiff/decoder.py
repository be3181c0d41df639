"""Confidence-threshold parallel unmasking with optional remasking.

One loop iteration = one denoiser call: take the probability rows it
returns as they are, unmask every masked position whose confidence strictly
exceeds tau (or the single most confident one if none does, guaranteeing
progress), then stochastically remask still-injected positions at a rate
driven by their current-token confidence and a linearly decaying bias.
Model-decoded tokens are never revised; each injected position can be
remasked at most once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import DeterministicRng, DiffusionState
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


def confidences(pi: np.ndarray) -> np.ndarray:
    """Per-row confidence: the max probability, read at the row's argmax (a
    gather is cheaper than a max along short rows). Decoding reads it at
    masked rows only."""
    return pi[np.arange(len(pi)), pi.argmax(axis=1)]


def select_unmask(conf: np.ndarray, masked: np.ndarray, tau: float) -> np.ndarray:
    """Masked positions to unmask: all with conf strictly above tau, else the
    single most confident one (lowest index on ties)."""
    scores = np.where(masked, conf, -np.inf)
    best = scores.argmax()
    if scores[best] > tau:
        return (scores > tau).nonzero()[0]
    if not masked[best]:
        raise ValueError("select_unmask requires at least one masked position")
    return np.array([best], dtype=np.int64)


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
    hit = rng.draws("remask", positions, k) < rates
    remasked = positions[hit].tolist()
    state.tokens[remasked] = state.vocab.mask_id
    state.injected.difference_update(remasked)
    return list(zip(remasked, rates[hit].tolist()))


def decode(
    denoiser,
    ctx,
    init: DiffusionState,
    dcfg: DecodeConfig,
    wcfg: WarmStartConfig,
    rng: DeterministicRng,
) -> DecodeTrace:
    """Run the full inference loop from a warm-started (or all-mask) state;
    the trace holds the final tokens.

    Per iteration k = 1, 2, ...: call the denoiser (one NFE) for the
    probability rows the iteration reads, unmask via the strict-tau rule on
    those rows as they are, then (if enabled) remask still-injected positions
    using the same rows. Non-finite denoiser output raises ValueError. Stops
    when nothing is masked; if the k_max cap is hit first, the trace is
    flagged "capped" instead of raising.

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
    # Carried across iterations and updated only where one unmasks or
    # remasks: the masked positions, their count, and (when remasking) the
    # still-injected positions in ascending order.
    masked = state.masked()
    n_masked = int(np.count_nonzero(masked))
    eligible = np.array(sorted(state.injected), dtype=np.int64) if dcfg.remask_enabled else np.empty(0, np.int64)
    while n_masked and k < dcfg.k_max:
        k += 1
        if wcfg.override_persistence == "first-iteration" and k > 1:
            state.embedding_override = None

        # Live rows: the masked positions, plus the injected ones whose
        # current-token probability remasking reads. Row i of pi is position
        # rows[i]; rows ascend, so row order breaks ties like position order.
        live = masked
        if eligible.size:
            live = masked.copy()
            live[eligible] = True
        rows = live.nonzero()[0]
        pi = denoiser(state, ctx, rows)
        if not np.isfinite(pi).all():
            raise ValueError(f"denoiser returned non-finite probabilities at iteration {k}")
        conf = confidences(pi)
        picked = select_unmask(conf, masked[rows], dcfg.tau)
        chosen = rows[picked]
        tokens = pi[picked].argmax(axis=1)
        unmasked = list(zip(chosen.tolist(), tokens.tolist(), conf[picked].tolist()))
        state.tokens[chosen] = tokens
        masked[chosen] = False
        n_masked -= len(chosen)

        remasked: list[tuple[int, float]] = []
        if eligible.size:
            c_bar = pi[np.searchsorted(rows, eligible), state.tokens[eligible]]
            rates = remask_rates(c_bar, k, dcfg.b0, dcfg.lam)
            remasked = apply_remask(state, eligible, rates, rng, k)
            if remasked:
                masked[[p for p, _ in remasked]] = True
                n_masked += len(remasked)
                eligible = eligible[~masked[eligible]]

        trace.iterations.append(IterationRecord(k=k, unmasked=unmasked, remasked=remasked, masked_after=n_masked))

    trace.nfe = len(trace.iterations)
    trace.capped = n_masked > 0
    trace.final_tokens = state.tokens
    return trace
