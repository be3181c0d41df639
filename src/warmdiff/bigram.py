"""Add-one smoothed bigram statistics over integer token sequences.

Shared by the bigram denoiser (left/right conditional mixtures) and the
left-to-right proposer. Corpus files hold one sequence per line as
whitespace-separated base-10 token ids.
"""

from __future__ import annotations

from array import array

import numpy as np

__all__ = ["BigramModel", "load_corpus"]


class BigramModel:
    """V x V transition counts with add-one smoothing.

    `counts[a, b]` is the number of observed a -> b adjacencies;
    `token_counts[v]` the number of occurrences of v (for the unigram).
    """

    def __init__(self, num_tokens: int, counts: np.ndarray, token_counts: np.ndarray):
        if num_tokens < 2:
            raise ValueError("bigram model needs at least 2 token types")
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (num_tokens, num_tokens):
            raise ValueError(f"counts must be {num_tokens} x {num_tokens}")
        if (counts < 0).any() or not np.all(np.isfinite(counts)):
            raise ValueError("counts must be finite and non-negative")
        token_counts = np.asarray(token_counts, dtype=np.float64)
        if token_counts.shape != (num_tokens,):
            raise ValueError("token_counts must have one entry per token type")
        if counts.sum() == 0 and token_counts.sum() == 0:
            raise ValueError("bigram model has no counts; fit it on a corpus first")
        self.num_tokens = num_tokens
        self.counts = counts
        self.token_counts = token_counts
        # (V+1) x V tables built once from the query methods: row a of
        # `next_table` is next_probs(a), row b of `prev_table` is prev_probs(b),
        # and row V (the mask id) of both is the unigram, the distribution
        # given no revealed neighbour.
        uni = self.unigram()
        self.next_table = np.vstack([*map(self.next_probs, range(num_tokens)), uni])
        self.prev_table = np.vstack([*map(self.prev_probs, range(num_tokens)), uni])
        # The markov denoiser's mixture weights, applied once: its row is
        # half_next_table[before] + half_prev_table[after].
        self.half_next_table = 0.5 * self.next_table
        self.half_prev_table = 0.5 * self.prev_table
        # Row a of `next_table` as a running sum, for inverse-CDF sampling
        # with bisect; cumsum adds left to right, as a per-row cumsum would.
        # array("d") rows bisect as fast as lists in a quarter of the memory.
        self.next_cdf = [array("d", row) for row in np.cumsum(self.next_table, axis=1)]

    @classmethod
    def fit(cls, sequences: list[list[int]], num_tokens: int) -> "BigramModel":
        # No dtype: a token beyond int64 makes an object array, which the
        # range check still reports instead of overflowing.
        flat = np.array([tok for seq in sequences for tok in seq])
        bad = np.flatnonzero((flat < 0) | (flat >= num_tokens))
        if bad.size:
            raise ValueError(f"corpus token {flat[bad[0]]} outside [0, {num_tokens})")
        if flat.size == 0:
            raise ValueError("bigram model has no counts; fit it on a corpus first")
        flat = flat.astype(np.int64)
        # Adjacent pairs, minus those that straddle two sequences.
        ends = np.cumsum([len(seq) for seq in sequences])
        within = np.ones(flat.size - 1, dtype=bool)
        within[ends[(ends > 0) & (ends < flat.size)] - 1] = False
        pairs = flat[:-1][within] * num_tokens + flat[1:][within]
        counts = np.bincount(pairs, minlength=num_tokens * num_tokens).reshape(num_tokens, num_tokens)
        token_counts = np.bincount(flat, minlength=num_tokens)
        return cls(num_tokens=num_tokens, counts=counts, token_counts=token_counts)

    def next_probs(self, token: int) -> np.ndarray:
        """P(next | token), add-one smoothed."""
        row = self.counts[token]
        return (row + 1.0) / (row.sum() + self.num_tokens)

    def prev_probs(self, token: int) -> np.ndarray:
        """P(previous | next = token), add-one smoothed over the column."""
        col = self.counts[:, token]
        return (col + 1.0) / (col.sum() + self.num_tokens)

    def unigram(self) -> np.ndarray:
        return (self.token_counts + 1.0) / (self.token_counts.sum() + self.num_tokens)


def load_corpus(path: str) -> list[list[int]]:
    """Read sequences of integer token ids, one sequence per line."""
    sequences = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                sequences.append(list(map(int, line.split())))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: corpus lines must be whitespace-separated integers") from exc
    if not sequences:
        raise ValueError(f"{path}: corpus is empty")
    return sequences
