"""Synthetic reverse models standing in for a trained mask predictor.

A denoiser is a callable `(state, ctx, rows) -> len(rows) x V probability
rows`, deterministic given its inputs. `rows` is an ascending int64 array of
positions, or None for all n of them. The decoder asks only for the rows it
reads: the masked positions, plus the still-injected ones when remasking
needs the probability of their current token. Quantities that depend on
the whole sequence (the revealed fraction, credulous flips) are computed over
all n positions first, nearest revealed neighbours by binary search over the
revealed positions for the requested rows only, and each requested row is
then built by the same elementwise operations as in the full matrix, so its
bytes do not depend on which other rows were asked for. `prepare` checks
a run's inputs once and builds its context, precomputing what stays
constant over the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bigram import BigramModel
from .core import DiffusionState, EmbeddingTable, _cosine, _norm

__all__ = [
    "DenoiseContext",
    "NoisyOracleParams",
    "prepare",
    "noisy_oracle_logits",
    "markov_logits",
]

_MODES = ("faithful", "credulous")


@dataclass(frozen=True, eq=False)
class DenoiseContext:
    """Planted ground-truth target (the prompt-determined answer) plus the
    model-specific parameters: NoisyOracleParams or a BigramModel. The oracle
    reads two tables that `prepare` sets: `levels[r]`, its confidence when r
    revealed positions count as context, and `bonus`, its per-position
    embedding bonus where that applies.
    """

    target: np.ndarray
    params: object
    levels: np.ndarray | None = None
    bonus: np.ndarray | None = None

    def __post_init__(self):
        target = np.asarray(self.target, dtype=np.int64)
        object.__setattr__(self, "target", target)
        if target.ndim != 1 or target.size == 0:
            raise ValueError("target must be a non-empty 1-d array")
        if (target < 0).any():
            raise ValueError("target tokens must be non-negative")


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


def prepare(kind: str, target, params, init: DiffusionState, table: EmbeddingTable | None = None):
    """The denoiser of `kind` ("noisy-oracle" or "markov") and its context for a
    run that starts from `init`, after every check the denoiser relies on."""
    ctx = DenoiseContext(target=target, params=params)
    if len(ctx.target) != len(init.tokens):
        raise ValueError(f"target length {len(ctx.target)} does not match state length {len(init.tokens)}")
    if (ctx.target >= init.vocab.size).any():
        raise ValueError("target contains token ids outside the vocabulary")
    if kind == "markov":
        if not isinstance(params, BigramModel):
            raise ValueError("the markov denoiser expects a BigramModel")
        if params.num_tokens != init.vocab.size:
            raise ValueError("bigram model vocabulary does not match the state vocabulary")
        return markov_logits, ctx
    if kind != "noisy-oracle":
        raise ValueError(f"unknown denoiser kind {kind!r}")
    if not isinstance(params, NoisyOracleParams):
        raise ValueError("the noisy oracle expects NoisyOracleParams")
    bonus, override = None, init.embedding_override
    if override is not None and params.eta > 0.0:
        if table is None:
            raise ValueError("embedding table required when eta > 0 and an override is present")
        # eta * (cos(override, Emb(target)) - cos(mask_vec, Emb(target))) with
        # the scalar cosine and the table's cached norms: a vectorized norm
        # or dot sums in another order, and an ulp at tau moves NFE. Rows
        # are made contiguous, as the table's are, because a strided dot
        # also sums in another order. A dropped position's override is the
        # mask vector itself, bit for bit (same values and signs), so its
        # bonus is eta * 0.0.
        override = np.ascontiguousarray(override, dtype=np.float64)
        mask_vec, rows, norms, mask_cos = table.mask_vector(), table.rows, table.row_norms, table.mask_cosines
        dropped = (override.view(np.int64) == mask_vec.view(np.int64)).all(axis=1)
        bonus = np.array(
            [
                0.0 if drop else params.eta * (_cosine(u, rows[t], _norm(u), norms[t]) - mask_cos[t])
                for u, t, drop in zip(override, ctx.target.tolist(), dropped.tolist())
            ]
        )
    levels = _levels(params.c0, params.gamma, params.c_max, len(ctx.target))
    return noisy_oracle_logits, DenoiseContext(target=ctx.target, params=params, levels=levels, bonus=bonus)


def noisy_oracle_logits(state: DiffusionState, ctx: DenoiseContext, rows: np.ndarray | None = None) -> np.ndarray:
    """Probability rows from the context-gain oracle.

    Per-position confidence is c = min(c_max, c0 + gamma * r / n) where r
    counts the correctly revealed positions (faithful mode) or the revealed
    positions regardless of correctness (credulous mode), read from the
    context's exact `levels` table. When an embedding override is present,
    each masked position additionally earns
    eta * (cos(override, Emb(target)) - cos(mask_vec, Emb(target))), the
    context's bonus, clipped into [0, c_max]. The intended token gets
    probability c and the remaining mass is uniform over the other V-1
    tokens, one row per entry of `rows`.
    """
    params: NoisyOracleParams = ctx.params
    if ctx.levels is None:
        raise ValueError("context has no confidence levels; build it with prepare")
    V, mask_id, tokens = state.vocab.size, state.vocab.mask_id, state.tokens
    if rows is None:
        rows = np.arange(len(tokens))

    if params.mode == "faithful":
        # `prepare` keeps target ids below the mask id, so a position that
        # holds its target token is a correct reveal.
        r = np.count_nonzero(tokens == ctx.target)
    else:
        revealed = tokens != mask_id
        r = np.count_nonzero(revealed)
    # One confidence for every row or, with the bonus, a column of them.
    conf = ctx.levels[r]
    if state.embedding_override is not None and params.eta > 0.0:
        if ctx.bonus is None:
            raise ValueError("context has no embedding bonus; build it with prepare from the overridden state")
        boosted = np.clip(conf + ctx.bonus[rows], 0.0, params.c_max)
        conf = np.where(tokens[rows] == mask_id, boosted, conf)[:, None]

    intended = ctx.target[rows]
    if params.mode == "credulous":
        wrong = (revealed & (tokens != ctx.target)).astype(np.float64)
        revealed_in_window = _window_sums(revealed.astype(np.float64), params.window)
        wrong_in_window = _window_sums(wrong, params.window)
        flip = (2.0 * wrong_in_window > revealed_in_window)[rows]
        intended[flip] = (intended[flip] + 1) % V

    pi = np.empty((len(rows), V), dtype=np.float64)
    pi[:] = (1.0 - conf) / (V - 1)
    pi[np.arange(len(rows))[:, None], intended[:, None]] = conf
    return pi


def markov_logits(state: DiffusionState, ctx: DenoiseContext, rows: np.ndarray | None = None) -> np.ndarray:
    """Probability rows from a bigram mixture conditioned on the nearest
    revealed tokens.

    Each row is 0.5 * P(. | nearest revealed token to the left) plus
    0.5 * P_reverse(. | nearest revealed token to the right); a side with no
    revealed token contributes the unigram instead. Fixed positions use the
    same formula (their own token excluded from "nearest"). One row per entry
    of `rows`.
    """
    model: BigramModel = ctx.params
    tokens, mask_id = state.tokens, state.vocab.mask_id
    if rows is None:
        rows = np.arange(len(tokens))
    # The revealed tokens in position order, padded at both ends with the
    # mask id (whose table row is the unigram) for "none". i revealed
    # positions lie strictly left of a row and j at or left of it, so its
    # neighbours are ext[i] and ext[j + 1], never a fixed row's own token.
    revealed = (tokens != mask_id).nonzero()[0]
    ext = np.full(len(revealed) + 2, mask_id)
    ext[1:-1] = tokens[revealed]
    before = ext[revealed.searchsorted(rows)]
    after = ext[1:][revealed.searchsorted(rows, "right")]
    return model.half_next_table[before] + model.half_prev_table[after]
