"""Synthetic reverse models standing in for a trained mask predictor.

A denoiser is a callable `(state, ctx, rows, held_rows) -> (best, conf,
held)`, deterministic given its inputs, and answers the one call `decode`
makes each iteration. `rows` holds the masked positions and `held_rows` the
still-injected ones (empty when remasking is off), each an ascending int64
array. Without building the len(rows) x V probability rows it returns what
confidence-threshold decoding reads from them: `best`, each masked row's
argmax (the lowest token id on ties); `conf`, the row's probability at
`best`; and `held`, for each position p in `held_rows`, the row's
probability of the token p holds, which remasking reads. Every entry is bit
for bit what the full row gives. Quantities that depend on the whole
sequence (the revealed count, credulous flips) are computed over all n
positions first, nearest revealed neighbours by binary search over the
revealed positions. Nothing checks that `rows` are masked: `decode` passes
them so, and a check would cost a gather per call.
`prepare` picks the denoiser from the type of its params, checks a run's
inputs once and builds the context. The markov denoiser's context is its
`BigramModel`: a masked row depends only on its nearest revealed
neighbours, so the model tabulates each neighbour pair's (best, conf) once,
on the denoiser's first call (`BigramModel.pair_tables`), and a call gathers
two entries per row. The oracle's is a
`DenoiseContext`, precomputing what stays constant over the run: the
embedding bonus per position, from the cosines that the override's table
memoizes by (alpha, p, t) (`EmbeddingTable.blend_cosine`), and with it the
oracle's whole output at masked rows, tabulated by (revealed count,
position) from the same float operations a call would run, so a call
gathers two entries per row instead of recomputing them. The tables
have (n + 1) * n entries each and are built only within a fixed budget;
above it the oracle runs those operations per call.

The two denoisers keep the names `noisy_oracle_logits` and `markov_logits`,
though they return neither logits nor rows: the benchmark's tracer
(`bench/measure.py`) looks each span up by name on every run, so the names
change only together with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bigram import BigramModel
from .core import DiffusionState

__all__ = [
    "DenoiseContext",
    "NoisyOracleParams",
    "prepare",
    "noisy_oracle_logits",
    "markov_logits",
]

_MODES = ("faithful", "credulous")
# The most entries, (n + 1) * n, of each per-run bonus table that `prepare`
# builds (n <= 255); above it the oracle computes the bonus rows per call.
# It caps the tables' memory, which grows as n^2, and sits where their
# O(n^2) build stopped paying for itself in `run_one` timings of the
# oracle-embed config: in faithful mode the tables were faster at n = 255
# and slower from n = 384 on; in credulous mode, which builds a second
# `best` table, the crossover fell between n = 192 and n = 255.
_BONUS_TABLE_ENTRIES = 2**16
_NO_HELD = np.empty(0, dtype=np.float64)
_NO_HELD.flags.writeable = False


@dataclass(frozen=True, eq=False)
class DenoiseContext:
    """The oracle's per-run context, as `prepare` builds it: the planted
    ground-truth target (the prompt-determined answer), its parameters and
    `levels[r]`, its confidence when r revealed positions count as context.
    Where the embedding bonus applies it also holds `bonus`, the bonus per
    position, and, where (n + 1) * n is within `_BONUS_TABLE_ENTRIES`, the
    output at a masked position p when r positions count: `bonus_conf[r, p]`,
    and `bonus_best[0, r, p]` for the target token intended,
    `bonus_best[1, r, p]` (credulous mode only) for the flipped one. Each
    entry is computed by the same elementwise float operations as a call
    without the tables, so reading it is exact.
    """

    target: np.ndarray
    params: NoisyOracleParams
    levels: np.ndarray
    bonus: np.ndarray | None = None
    bonus_best: np.ndarray | None = None
    bonus_conf: np.ndarray | None = None


@dataclass(frozen=True)
class NoisyOracleParams:
    """Tunables for the synthetic oracle whose confidence grows with context.

    c0 is the base confidence, gamma the gain per unit of revealed-context
    fraction, eta the sensitivity to embedding overrides, c_max the ceiling.
    Faithful mode always intends the target token; credulous mode counts any
    revealed token as context and can flip its intent toward a distractor
    when the revealed neighborhood mostly disagrees with the target.
    """

    c0: float = 0.4
    gamma: float = 0.6
    eta: float = 0.0
    c_max: float = 0.99
    mode: str = "faithful"
    window: int = 3

    def __post_init__(self):
        if not 0.0 <= self.c0 <= 1.0:
            raise ValueError("c0 must be in [0, 1]")
        if self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")
        if self.eta < 0.0:
            raise ValueError("eta must be >= 0")
        if not self.c0 <= self.c_max <= 1.0:
            raise ValueError("c_max must satisfy c0 <= c_max <= 1")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("window must be an odd positive integer")


@lru_cache(maxsize=256)
def _levels(c0: float, gamma: float, c_max: float, n: int) -> np.ndarray:
    """min(c_max, c0 + gamma * r / n) for r = 0..n, each the correctly rounded
    float of the exact rational value of the decimal parameters, so a level
    that equals tau in decimal arithmetic is tau and does not pass `> tau`.

    Cached: the Fraction arithmetic takes about 0.4 ms at n = 64, a tenth of
    a run, and every run of a config has the same parameters."""
    c0_, gamma_, c_max_ = (Fraction(repr(float(x))) for x in (c0, gamma, c_max))
    levels = np.array([float(min(c_max_, c0_ + gamma_ * Fraction(r, n))) for r in range(n + 1)])
    levels.flags.writeable = False  # shared by every run with these parameters
    return levels


def _window_sums(values: np.ndarray, window: int) -> np.ndarray:
    """Sum of `values` over the width-`window` neighborhood centered at each
    position, truncated at the sequence edges."""
    n = len(values)
    half = (window - 1) // 2
    cum = np.concatenate([[0.0], np.cumsum(values)])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return cum[hi] - cum[lo]


def prepare(target, params, init: DiffusionState):
    """The denoiser that `params` picks and its context for a run that starts
    from `init`, after every check the denoiser relies on: a `BigramModel`
    gives `markov_logits` with the model itself as its context,
    `NoisyOracleParams` give `noisy_oracle_logits` with a `DenoiseContext`."""
    target = np.asarray(target, dtype=np.int64)
    if target.shape != init.tokens.shape:
        raise ValueError(f"target of shape {target.shape} does not match the state's length {len(init.tokens)}")
    if ((target < 0) | (target >= init.vocab.size)).any():
        raise ValueError("target contains token ids outside the vocabulary")
    if isinstance(params, BigramModel):
        if params.num_tokens != init.vocab.size:
            raise ValueError("bigram model vocabulary does not match the state vocabulary")
        return markov_logits, params
    if not isinstance(params, NoisyOracleParams):
        raise ValueError("denoiser params must be NoisyOracleParams or a BigramModel")
    bonus, override = None, init.embedding_override
    if override is not None and params.eta > 0.0:
        # eta * (cos(blend of id p, Emb(t)) - cos(mask_vec, Emb(t))) at a
        # kept position with target t, 0.0 at a dropped one and everywhere
        # at alpha 0, where every blend is the mask vector (even when the
        # table's norms overflow and the cosines are NaN). The cosines are
        # the scalar ones the table memoizes: a vectorized norm or dot sums
        # in another order, and an ulp at tau moves NFE.
        bonus = np.zeros(len(target))
        if override.alpha > 0.0:
            alpha, cosine, mask_cos = override.alpha, override.table.blend_cosine, override.table.mask_cosines
            for i, (p, t) in enumerate(zip(override.ids.tolist(), target.tolist())):
                if p >= 0:
                    bonus[i] = params.eta * (cosine(alpha, p, t) - mask_cos[t])
    n = len(target)
    levels = _levels(params.c0, params.gamma, params.c_max, n)
    tables = {}
    if bonus is not None and (n + 1) * n <= _BONUS_TABLE_ENTRIES:
        # Every (revealed count, position) entry of the masked rows' output,
        # from the same elementwise operations as a call above the budget.
        # Credulous mode stacks a second intent, the flipped target, which
        # shares the clip and conf and differs only in `best`.
        V = init.vocab.size
        intents = [target] if params.mode == "faithful" else [target, (target + 1) % V]
        best, conf = _bonus_rows(levels[:, None], bonus, np.stack(intents)[:, None], V, params.c_max)
        tables = {"bonus_best": best, "bonus_conf": conf}
    return noisy_oracle_logits, DenoiseContext(target, params, levels, bonus, **tables)


def _bonus_rows(hi, bonus, intended, V: int, c_max: float):
    """(best, conf) of masked rows whose confidence hi earns `bonus`: hi +
    bonus clipped into [0, c_max] at the intended token, (1 - that) / (V - 1)
    at each of the other V - 1."""
    his = np.clip(hi + bonus, 0.0, c_max)
    los = (1.0 - his) / (V - 1)
    return np.where(his > los, intended, (his < los) & (intended == 0)), np.maximum(his, los)


def _uniform_best(hi: float, lo: float, intended: np.ndarray) -> np.ndarray:
    """The argmax of rows that all hold hi at the intended token and lo at
    the other V - 1: one branch, not three elementwise ones."""
    if hi > lo:
        return intended
    if hi < lo:
        return (intended == 0).astype(np.int64)
    return np.zeros(len(intended), dtype=np.int64)


def noisy_oracle_logits(state: DiffusionState, ctx: DenoiseContext, rows, held_rows):
    """(best, conf, held) of the context-gain oracle's probability rows.

    Per-position confidence is hi = min(c_max, c0 + gamma * r / n) where r
    counts the correctly revealed positions (faithful mode) or the revealed
    positions regardless of correctness (credulous mode), read from the
    context's exact `levels` table. When an embedding override is present,
    each masked position additionally earns
    eta * (cos(blend, Emb(target)) - cos(mask_vec, Emb(target))), the
    context's bonus, clipped into [0, c_max]: the blend is
    (1 - alpha) * mask_vec + alpha * Emb(p) for the position's override id
    p, and a dropped position (id -1) earns 0. A row holds hi at its intended
    token and lo = (1 - hi) / (V - 1) at each of the other V - 1, so its
    argmax is the intended token if hi > lo, token 0 if hi == lo and else
    the lowest other id, and its maximum is max(hi, lo).

    With the bonus, r and the position fix every masked row's (best, conf),
    so the rows are read from the context's `bonus_best`/`bonus_conf`
    tables at r where it holds them (with credulous flips choosing the
    flipped-target `best`), and otherwise computed per call from its
    `bonus`; both give the same bytes. A held position is revealed, so it
    carries no bonus and gets the plain hi or lo.
    """
    params = ctx.params
    V, tokens, target = state.vocab.size, state.tokens, ctx.target

    flip = None
    if params.mode == "faithful":
        # `prepare` keeps target ids below the mask id, so a position that
        # holds its target token is a correct reveal.
        r = np.count_nonzero(tokens == target)
    else:
        revealed = tokens != state.vocab.mask_id
        r = np.count_nonzero(revealed)
        wrong = (revealed & (tokens != target)).astype(np.float64)
        revealed_in_window = _window_sums(revealed.astype(np.float64), params.window)
        wrong_in_window = _window_sums(wrong, params.window)
        flip = 2.0 * wrong_in_window > revealed_in_window
        target = np.where(flip, (target + 1) % V, target)
    hi = ctx.levels.item(r)
    lo = (1.0 - hi) / (V - 1)

    if state.embedding_override is not None and params.eta > 0.0:
        if ctx.bonus_conf is not None:
            best, conf = ctx.bonus_best[0, r][rows], ctx.bonus_conf[r][rows]
            if flip is not None:
                best = np.where(flip[rows], ctx.bonus_best[1, r][rows], best)
        elif ctx.bonus is not None:
            best, conf = _bonus_rows(hi, ctx.bonus[rows], target[rows], V, params.c_max)
        else:
            raise ValueError("context has no embedding bonus; build it with prepare from the overridden state")
    else:
        best = _uniform_best(hi, lo, target[rows])
        # np.empty plus fill: the bytes of np.full, without its Python wrapper.
        conf = np.empty(len(rows))
        conf.fill(max(hi, lo))

    held = _NO_HELD
    if len(held_rows):
        held = np.where(tokens[held_rows] == target[held_rows], hi, lo)
    return best, conf, held


def markov_logits(state: DiffusionState, model: BigramModel, rows, held_rows):
    """(best, conf, held) of a bigram mixture conditioned on the nearest
    revealed tokens.

    Each row is 0.5 * P(. | nearest revealed token to the left) plus
    0.5 * P_reverse(. | nearest revealed token to the right); a side with no
    revealed token contributes the unigram instead. A masked row depends
    only on that pair of neighbours, so its (best, conf) is read from the
    model's pair tables, two gathers; a held position's entry is the same
    single float add, read at its token, with its own token excluded from
    "nearest". The context is the model itself.
    """
    tokens, mask_id = state.tokens, state.vocab.mask_id
    # The revealed tokens in position order, padded at both ends with the
    # mask id (whose table row is the unigram) for "none". i revealed
    # positions lie left of a masked row, so its neighbours are ext[i] and
    # ext[i + 1].
    revealed = (tokens != mask_id).nonzero()[0]
    ext = np.empty(len(revealed) + 2, dtype=np.int64)
    ext[0] = ext[-1] = mask_id
    ext[1:-1] = tokens[revealed]
    i = revealed.searchsorted(rows)
    left, right = ext[i], ext[i + 1]
    pair_best, pair_conf = model.pair_tables
    best, conf = pair_best[left, right], pair_conf[left, right]

    held = _NO_HELD
    if len(held_rows):
        # A held position is revealed[j] itself, so its neighbours are
        # ext[j] and ext[j + 2].
        j = revealed.searchsorted(held_rows)
        t = tokens[held_rows]
        held = model.half_next_table[ext[j], t] + model.half_prev_table[ext[j + 2], t]
    return best, conf, held
