"""Warm-proposal generators with controllable quality.

The corrupted-oracle proposer flips each target token with probability
epsilon (to a uniformly chosen different token); the markov proposer samples
left to right from a fitted bigram model. Proposals never contain mask ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bigram import BigramModel
from .core import DeterministicRng, Vocabulary

__all__ = ["Proposal", "propose_corrupted", "propose_markov"]


@dataclass(frozen=True, eq=False)
class Proposal:
    """Length-n warm token sequence with provenance metadata."""

    tokens: np.ndarray
    source: str
    epsilon: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", np.asarray(self.tokens, dtype=np.int64))
        if self.tokens.ndim != 1 or self.tokens.size == 0:
            raise ValueError("proposal tokens must be a non-empty 1-d array")

    def __len__(self) -> int:
        return int(self.tokens.size)


def _sample_index(probs: np.ndarray, u: float) -> int:
    """Inverse-CDF sample: the index whose cumulative bucket contains u."""
    cdf = np.cumsum(probs)
    idx = int(np.searchsorted(cdf, u * cdf[-1], side="right"))
    return min(idx, len(probs) - 1)


def propose_corrupted(
    vocab: Vocabulary, target: np.ndarray, epsilon: float, rng: DeterministicRng
) -> Proposal:
    """Copy of the target with i.i.d. substitutions at rate epsilon.

    The corruption gate is `draw < epsilon` against one uniform per position
    ("proposal-corrupt"), so lowering epsilon only removes corruptions under
    a fixed seed; the replacement token comes from an independent stream.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    target = np.asarray(target, dtype=np.int64)
    if ((target < 0) | (target >= vocab.size)).any():
        raise ValueError("target tokens must lie in [0, V)")
    tokens = target.copy()
    for i in range(len(target)):
        if rng.draw("proposal-corrupt", i, 0) < epsilon:
            pick = int(rng.draw("proposal-corrupt-choice", i, 0) * (vocab.size - 1))
            if pick >= target[i]:
                pick += 1  # uniform over the V-1 tokens != target
            tokens[i] = pick
    return Proposal(tokens=tokens, source="corrupted-oracle", epsilon=epsilon)


def propose_markov(model: BigramModel, n: int, rng: DeterministicRng) -> Proposal:
    """Left-to-right bigram sample: unigram start, then P(. | previous)."""
    if n < 1:
        raise ValueError("proposal length must be >= 1")
    tokens = np.empty(n, dtype=np.int64)
    prev = model.num_tokens  # the unigram row of next_table
    for i in range(n):
        tokens[i] = prev = _sample_index(model.next_table[prev], rng.draw("proposal-markov", i, 0))
    return Proposal(tokens=tokens, source="markov")
