"""Confidence-threshold parallel unmasking with optional remasking.

One loop iteration = one denoiser call: take the argmax and confidence it
returns for each masked position as they are, unmask every masked position
whose confidence strictly exceeds tau (or the single most confident one if
none does, guaranteeing progress), then stochastically remask
still-injected positions at a rate driven by their current-token
probability, which the same call returns, and a linearly decaying bias.
Model-decoded tokens are never revised; each injected position can be
remasked at most once.

`decode` is the one caller of a denoiser: each call passes the masked
positions and the still-injected ones, and the denoiser returns only what
the loop reads, `(best, conf, held)`, not probability rows (see
`warmdiff.denoiser`). The trace is recorded in Python lists, one entry per
unmask or remask, and each column is built once at the end as an int64 or
float64 array, whatever dtypes the denoiser returned. Most iterations unmask
a single position; that step reads its position, token and confidence as
Python scalars and stores them without fancy indexing. The record view
`DecodeTrace.iterations` serves `harness.check_trace_invariants` and the
benchmark (`bench/measure.py`); the row reducer `confidences`, which nothing
here calls, stays public only because the benchmark wraps it by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DeterministicRng, DiffusionState

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

    @property
    def iterations(self) -> list[IterationRecord]:
        """The columns rebuilt as one record per iteration: a read-only view
        that `check_trace_invariants` walks and `bench/measure.py` counts from."""
        unmasked = list(zip(self.unmask_pos.tolist(), self.unmask_tok.tolist(), self.unmask_conf.tolist()))
        remasked = list(zip(self.remask_pos.tolist(), self.remask_rate.tolist()))
        records, u, r = [], 0, 0
        per_iteration = zip(self.unmask_counts.tolist(), self.remask_counts.tolist(), self.masked_after.tolist())
        for k, (nu, nr, after) in enumerate(per_iteration, start=1):
            records.append(IterationRecord(k, unmasked[u : u + nu], remasked[r : r + nr], after))
            u, r = u + nu, r + nr
        return records


def confidences(pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row argmax (the lowest token id on ties) and confidence, the max
    probability read at it (a gather is cheaper than a max along short
    rows)."""
    best = pi.argmax(axis=1)
    return best, pi[np.arange(len(pi)), best]


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
    return ((1.0 - np.asarray(c_bar, dtype=np.float64)) + bias).clip(0.0, 1.0)


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
    k_max cap is hit first, the trace is flagged "capped"; it never raises or warns.

    The embedding override is visible to the denoiser on every iteration
    under "while-masked" persistence, and only on the first under
    "first-iteration". `init` is left unchanged.
    """
    state = init.copy()

    # The trace columns, one entry per unmask or remask, as Python lists.
    unmask_counts, unmask_pos, unmask_tok, unmask_conf = [], [], [], []
    remask_counts, remask_pos, remask_rate, masked_after = [], [], [], []
    k = 0
    # Carried across iterations and updated only where one unmasks or
    # remasks: the masked positions and their count.
    tokens = state.tokens
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
        if len(picked) == 1:
            # Scalar reads and stores cost less than fancy indexing.
            i = picked.item(0)
            pos, tok = rows.item(i), best.item(i)
            unmask_pos.append(pos)
            unmask_tok.append(tok)
            unmask_conf.append(conf.item(i))
            tokens[pos] = tok
            masked[pos] = False
        else:
            chosen, chosen_tokens = rows[picked], best[picked]
            unmask_pos.extend(chosen.tolist())
            unmask_tok.extend(chosen_tokens.tolist())
            unmask_conf.extend(conf[picked].tolist())
            tokens[chosen] = chosen_tokens
            masked[chosen] = False
        unmask_counts.append(len(picked))
        n_masked -= len(picked)

        n_remasked = 0
        if eligible.size:
            rates = remask_rates(held, k, dcfg.b0, dcfg.lam)
            positions, hit_rates = apply_remask(state, rates, rng, k)
            n_remasked = len(positions)
            if n_remasked:
                remask_pos.extend(positions.tolist())
                remask_rate.extend(hit_rates.tolist())
                masked[positions] = True
                n_masked += n_remasked
        remask_counts.append(n_remasked)
        masked_after.append(n_masked)

    return DecodeTrace(
        unmask_counts=np.array(unmask_counts, dtype=np.int64),
        unmask_pos=np.array(unmask_pos, dtype=np.int64),
        unmask_tok=np.array(unmask_tok, dtype=np.int64),
        unmask_conf=np.array(unmask_conf, dtype=np.float64),
        remask_counts=np.array(remask_counts, dtype=np.int64),
        remask_pos=np.array(remask_pos, dtype=np.int64),
        remask_rate=np.array(remask_rate, dtype=np.float64),
        masked_after=np.array(masked_after, dtype=np.int64),
        final_tokens=tokens,
        nfe=k,
        capped=n_masked > 0,
    )
