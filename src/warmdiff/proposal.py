"""Warm-proposal generators with controllable quality.

The corrupted-oracle proposer flips each target token with probability
epsilon (to a uniformly chosen different token); the markov proposer samples
left to right from a fitted bigram model. A proposal is a length-n int64
token array and never contains mask ids.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .bigram import BigramModel
from .core import DeterministicRng, Vocabulary

__all__ = ["propose_corrupted", "propose_markov"]


def propose_corrupted(
    vocab: Vocabulary, target: np.ndarray, epsilon: float, rng: DeterministicRng
) -> np.ndarray:
    """Copy of the target with i.i.d. substitutions at rate epsilon.

    The corruption gate is `draw < epsilon` against one uniform per position
    ("proposal-corrupt"), so lowering epsilon only removes corruptions under
    a fixed seed; the replacement token comes from an independent stream,
    drawn only at the corrupted positions.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    target = np.asarray(target, dtype=np.int64)
    if ((target < 0) | (target >= vocab.size)).any():
        raise ValueError("target tokens must lie in [0, V)")
    hit = np.flatnonzero(rng.draws("proposal-corrupt", np.arange(target.size), 0) < epsilon)
    picks = (rng.draws("proposal-corrupt-choice", hit, 0) * (vocab.size - 1)).astype(np.int64)
    tokens = target.copy()
    tokens[hit] = picks + (picks >= target[hit])  # uniform over the V-1 tokens != target
    return tokens


def propose_markov(model: BigramModel, n: int, rng: DeterministicRng) -> np.ndarray:
    """Left-to-right bigram sample: unigram start, then P(. | previous)."""
    if n < 1:
        raise ValueError("proposal length must be >= 1")
    tokens = np.empty(n, dtype=np.int64)
    last = model.num_tokens - 1
    prev = model.num_tokens  # the unigram row of next_cdf
    for i, u in enumerate(rng.draws("proposal-markov", np.arange(n), 0).tolist()):
        # Inverse CDF: the index whose cumulative bucket contains u.
        cdf = model.next_cdf[prev]
        tokens[i] = prev = min(bisect_right(cdf, u * cdf[-1]), last)
    return tokens
