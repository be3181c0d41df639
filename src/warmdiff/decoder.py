"""Confidence-threshold parallel unmasking with optional remasking.

One loop iteration = one denoiser call: take the argmax and confidence it
returns for each masked position as they are, unmask every masked position
whose confidence strictly exceeds tau (or the single most confident one if
none does, guaranteeing progress), then stochastically remask
still-injected positions at a rate driven by their current-token
probability, which the same call returns, and a linearly decaying bias.
Model-decoded tokens are never revised; each injected position can be
remasked at most once.

A denoiser returns only what the loop reads, `(best, conf, held)`, not
probability rows (see `warmdiff.denoiser`); `rows_denoiser` adapts a
callable that returns rows, reducing them with `confidences`. The record
view `DecodeTrace.iterations` and `confidences` stay public because the
benchmark (`bench/measure.py`) counts from the one and wraps the other by
name.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import DeterministicRng, DiffusionState

__all__ = [
    "DecodeConfig",
    "IterationRecord",
    "DecodeTrace",
    "confidences",
    "rows_denoiser",
    "select_unmask",
    "remask_rates",
    "apply_remask",
    "decode",
]

PERSISTENCE_MODES = ("while-masked", "first-iteration")


@dataclass(frozen=True)
class DecodeConfig:
    """Decoding knobs: threshold tau, remask switch, bias schedule, hard cap,
    and on which iterations the denoiser sees an embedding override.

    The remask bias at iteration k is b0 - lam * k (first denoiser call is
    k = 1). k_max is a safety valve only; any k_max >= n + |injected|
    guarantees the cap never binds.
    """

    tau: float = 0.9
    remask_enabled: bool = False
    b0: float = 0.5
    lam: float = 0.05
    k_max: int = 4096
    override_persistence: str = "while-masked"

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.b0 <= 0.0:
            raise ValueError("b0 must be > 0")
        if self.lam <= 0.0:
            raise ValueError("lam must be > 0")
        if self.k_max < 1:
            raise ValueError("k_max must be a positive integer")
        if self.override_persistence not in PERSISTENCE_MODES:
            raise ValueError(f"override_persistence must be one of {PERSISTENCE_MODES}")


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
    """One decode as columns. Iteration k = 1..nfe unmasked the next
    unmask_counts[k-1] entries of unmask_pos/unmask_tok/unmask_conf (positions
    ascending), remasked the next remask_counts[k-1] entries of
    remask_pos/remask_rate, and left masked_after[k-1] positions masked."""

    unmask_counts: np.ndarray
    unmask_pos: np.ndarray
    unmask_tok: np.ndarray
    unmask_conf: np.ndarray
    remask_counts: np.ndarray
    remask_pos: np.ndarray
    remask_rate: np.ndarray
    masked_after: np.ndarray
    final_tokens: np.ndarray
    nfe: int
    capped: bool

    def by_iteration(self, unmasked: Iterable, remasked: Iterable) -> Iterator:
        """(k, its unmask entries, its remask entries, masked_after) for
        k = 1..nfe, cutting per-entry sequences in column order by the
        counts. Each iteration's entries must be read before the next."""
        unmasked, remasked = iter(unmasked), iter(remasked)
        per_iteration = zip(self.unmask_counts.tolist(), self.remask_counts.tolist(), self.masked_after.tolist())
        for k, (nu, nr, after) in enumerate(per_iteration, start=1):
            yield k, islice(unmasked, nu), islice(remasked, nr), after

    @property
    def iterations(self) -> list[IterationRecord]:
        """The columns rebuilt as one record per iteration: a read-only view
        that `bench/measure.py` counts from, outside its timed region."""
        unmasked = zip(self.unmask_pos.tolist(), self.unmask_tok.tolist(), self.unmask_conf.tolist())
        remasked = zip(self.remask_pos.tolist(), self.remask_rate.tolist())
        return [IterationRecord(k, list(u), list(r), after) for k, u, r, after in self.by_iteration(unmasked, remasked)]


def _cat(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype)


def confidences(pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row argmax (the lowest token id on ties) and confidence, the max
    probability read at it (a gather is cheaper than a max along short
    rows)."""
    best = pi.argmax(axis=1)
    return best, pi[np.arange(len(pi)), best]


def rows_denoiser(fn):
    """The denoiser that reads `fn(state, ctx, rows) -> len(rows) x V
    probability rows`: it asks `fn` once for the union of `rows` and
    `held_rows`, ascending, reduces the rows with `confidences` and reads
    each held position's row at the token it holds. Non-finite rows raise
    ValueError."""

    def denoiser(state, ctx, rows=None, held_rows=None):
        if rows is None:
            rows = np.arange(len(state.tokens))
        if held_rows is None:
            held_rows = np.empty(0, dtype=np.int64)
        live = np.union1d(rows, held_rows)
        pi = fn(state, ctx, live)
        if not np.isfinite(pi).all():
            raise ValueError("denoiser returned non-finite probabilities")
        best, conf = confidences(pi[live.searchsorted(rows)])
        return best, conf, pi[live.searchsorted(held_rows), state.tokens[held_rows]]

    return denoiser


def select_unmask(conf: np.ndarray, tau: float) -> np.ndarray:
    """Indices into `conf`, the masked positions' confidences, to unmask: all
    strictly above tau, else the single most confident one (lowest index on
    ties)."""
    if not len(conf):
        raise ValueError("select_unmask requires at least one masked position")
    best = conf.argmax()
    if conf[best] > tau:
        return (conf > tau).nonzero()[0]
    return np.array([best], dtype=np.int64)


def remask_rates(c_bar: np.ndarray, k: int, b0: float, lam: float) -> np.ndarray:
    """clip_[0,1]((1 - c_bar) + b0 - lam * k)."""
    bias = b0 - lam * k
    return np.clip((1.0 - np.asarray(c_bar, dtype=np.float64)) + bias, 0.0, 1.0)


def apply_remask(
    state: DiffusionState,
    rates: np.ndarray,
    rng: DeterministicRng,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Independently remask each position of `state.injected` with its rate
    (draws addressed by "remask", position, k); returns the remasked
    positions and their rates, and rebinds `state.injected` to the rest."""
    hit = rng.draws("remask", state.injected, k) < rates
    remasked = state.injected[hit]
    state.tokens[remasked] = state.vocab.mask_id
    state.injected = state.injected[~hit]
    return remasked, rates[hit]


def decode(
    denoiser,
    ctx,
    init: DiffusionState,
    dcfg: DecodeConfig,
    rng: DeterministicRng,
) -> DecodeTrace:
    """Run the full inference loop from a warm-started (or all-mask) state;
    the trace holds the final tokens.

    Per iteration k = 1, 2, ...: call the denoiser (one NFE) on the masked
    positions and, when remasking, the still-injected ones; unmask via the
    strict-tau rule on the confidences it returns, as they are, then (if
    enabled) remask still-injected positions at rates from the probability
    of the token each holds, from the same call. A non-finite confidence or
    held probability raises ValueError. Stops when nothing is masked; if the
    k_max cap is hit first, the trace is flagged "capped" instead of raising.

    The embedding override is visible to the denoiser on every iteration
    under "while-masked" persistence, and only on the first under
    "first-iteration". `init` is left unchanged.
    """
    state = init.copy()
    n = len(state.tokens)
    recommended = n + len(state.injected)
    if dcfg.k_max < recommended:
        warnings.warn(
            f"k_max={dcfg.k_max} is below n + |injected| = {recommended}; decode may hit the cap",
            stacklevel=2,
        )

    # Per-iteration pieces of the trace columns, concatenated once at the end.
    unmask_counts, unmask_pos, unmask_tok, unmask_conf = [], [], [], []
    remask_counts, remask_pos, remask_rate, masked_after = [], [], [], []
    k = 0
    # Carried across iterations and updated only where one unmasks or
    # remasks: the masked positions and their count.
    masked = state.masked()
    n_masked = int(np.count_nonzero(masked))
    no_positions = np.empty(0, np.int64)
    while n_masked and k < dcfg.k_max:
        k += 1
        if dcfg.override_persistence == "first-iteration" and k > 1:
            state.embedding_override = None

        # Entry i of best and conf is masked position rows[i]; rows ascend, so
        # entry order breaks ties like position order. held[j] is the
        # probability of the token eligible[j] holds.
        rows = masked.nonzero()[0]
        eligible = state.injected if dcfg.remask_enabled else no_positions
        best, conf, held = denoiser(state, ctx, rows, eligible)
        # Counting finite entries costs about half of np.isfinite(...).all().
        if np.count_nonzero(np.isfinite(conf)) + np.count_nonzero(np.isfinite(held)) < len(conf) + len(held):
            raise ValueError(f"denoiser returned non-finite probabilities at iteration {k}")
        picked = select_unmask(conf, dcfg.tau)
        chosen = rows[picked]
        tokens = best[picked]
        unmask_counts.append(len(chosen))
        unmask_pos.append(chosen)
        unmask_tok.append(tokens)
        unmask_conf.append(conf[picked])
        state.tokens[chosen] = tokens
        masked[chosen] = False
        n_masked -= len(chosen)

        n_remasked = 0
        if eligible.size:
            rates = remask_rates(held, k, dcfg.b0, dcfg.lam)
            positions, hit_rates = apply_remask(state, rates, rng, k)
            n_remasked = len(positions)
            if n_remasked:
                remask_pos.append(positions)
                remask_rate.append(hit_rates)
                masked[positions] = True
                n_masked += n_remasked
        remask_counts.append(n_remasked)
        masked_after.append(n_masked)

    return DecodeTrace(
        unmask_counts=np.array(unmask_counts, dtype=np.int64),
        unmask_pos=_cat(unmask_pos, np.int64),
        unmask_tok=_cat(unmask_tok, np.int64),
        unmask_conf=_cat(unmask_conf, np.float64),
        remask_counts=np.array(remask_counts, dtype=np.int64),
        remask_pos=_cat(remask_pos, np.int64),
        remask_rate=_cat(remask_rate, np.float64),
        masked_after=np.array(masked_after, dtype=np.int64),
        final_tokens=state.tokens,
        nfe=k,
        capped=n_masked > 0,
    )
