"""Synthetic reverse models standing in for a trained mask predictor.

Both models return a full n x V logit matrix on every call, fixed positions
included, because remasking needs the probability of each currently fixed
token. A denoiser is a callable `(state, ctx) -> logits`, deterministic given
its inputs; `prepare` checks a run's inputs once and builds its context,
precomputing what stays constant over the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bigram import BigramModel
from .core import DiffusionState, EmbeddingTable

__all__ = [
    "DenoiseContext",
    "NoisyOracleParams",
    "prepare",
    "noisy_oracle_logits",
    "markov_logits",
]

PROB_FLOOR = 1e-12

_MODES = ("faithful", "credulous")


@dataclass(frozen=True, eq=False)
class DenoiseContext:
    """Planted ground-truth target (the prompt-determined answer) plus the
    model-specific parameters: NoisyOracleParams or a BigramModel. `bonus` is
    the oracle's per-position embedding bonus, set by `prepare` when it applies.
    """

    target: np.ndarray
    params: object
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


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    # Cosine with a zero vector is defined as 0 so degenerate rows stay neutral.
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


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
    override = init.embedding_override
    if override is None or not params.eta > 0.0:
        return noisy_oracle_logits, ctx
    if table is None:
        raise ValueError("embedding table required when eta > 0 and an override is present")
    # eta * (cos(override, Emb(target)) - cos(mask_vec, Emb(target))) with the
    # scalar cosine: a vectorized norm sums in another order, and an ulp at
    # tau moves NFE.
    mask_vec, rows = table.mask_vector(), table.rows
    bonus = [
        params.eta * (_cosine(override[i], rows[t]) - _cosine(mask_vec, rows[t])) for i, t in enumerate(ctx.target)
    ]
    return noisy_oracle_logits, DenoiseContext(target=ctx.target, params=params, bonus=np.array(bonus))


def noisy_oracle_logits(state: DiffusionState, ctx: DenoiseContext) -> np.ndarray:
    """Logits from the context-gain oracle.

    Per-position confidence is c = min(c_max, c0 + gamma * f) where f is the
    fraction of correctly revealed positions (faithful mode) or of revealed
    positions regardless of correctness (credulous mode). When an embedding
    override is present, each masked position additionally earns
    eta * (cos(override, Emb(target)) - cos(mask_vec, Emb(target))), the
    context's bonus, clipped into [0, c_max]. The intended token gets
    probability c, the remaining mass is uniform over the other V-1 tokens,
    and logits are exact logs of that distribution (floored at 1e-12).
    """
    params: NoisyOracleParams = ctx.params
    n = len(state.tokens)
    V = state.vocab.size
    revealed = ~state.masked()

    if params.mode == "faithful":
        f = float((revealed & (state.tokens == ctx.target)).sum()) / n
    else:
        f = float(revealed.sum()) / n
    conf = np.full(n, min(params.c_max, params.c0 + params.gamma * f), dtype=np.float64)

    if state.embedding_override is not None and params.eta > 0.0:
        if ctx.bonus is None:
            raise ValueError("context has no embedding bonus; build it with prepare from the overridden state")
        masked = ~revealed
        conf[masked] = np.clip(conf[masked] + ctx.bonus[masked], 0.0, params.c_max)

    intended = ctx.target.copy()
    if params.mode == "credulous":
        wrong = (revealed & (state.tokens != ctx.target)).astype(np.float64)
        revealed_in_window = _window_sums(revealed.astype(np.float64), params.window)
        wrong_in_window = _window_sums(wrong, params.window)
        flip = 2.0 * wrong_in_window > revealed_in_window
        intended[flip] = (ctx.target[flip] + 1) % V

    pi = np.empty((n, V), dtype=np.float64)
    pi[:] = ((1.0 - conf) / (V - 1))[:, None]
    pi[np.arange(n), intended] = conf
    return np.log(np.maximum(pi, PROB_FLOOR))


def markov_logits(state: DiffusionState, ctx: DenoiseContext) -> np.ndarray:
    """Logits from a bigram mixture conditioned on the nearest revealed tokens.

    Each row is 0.5 * P(. | nearest revealed token to the left) plus
    0.5 * P_reverse(. | nearest revealed token to the right); a side with no
    revealed token contributes the unigram instead. Fixed positions use the
    same formula (their own token excluded from "nearest").
    """
    model: BigramModel = ctx.params
    n = len(state.tokens)
    revealed = ~state.masked()
    pos = np.arange(n)
    # Nearest revealed position strictly left and right of each position; -1
    # and n stand for none and both index the appended mask id, whose table
    # row is the unigram.
    left = np.maximum.accumulate(np.where(revealed, pos, -1))
    right = np.minimum.accumulate(np.where(revealed, pos, n)[::-1])[::-1]
    tokens = np.append(state.tokens, state.vocab.mask_id)
    fwd = model.next_table[tokens[np.concatenate(([-1], left[:-1]))]]
    bwd = model.prev_table[tokens[np.concatenate((right[1:], [n]))]]
    return np.log(0.5 * fwd + 0.5 * bwd)
