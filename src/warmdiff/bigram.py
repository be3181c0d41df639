"""Add-one smoothed bigram statistics over integer token sequences.

Shared by the bigram denoiser (left/right conditional mixtures) and the
left-to-right proposer. Corpus files hold one sequence per line as
whitespace-separated base-10 token ids.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BigramModel", "load_corpus"]


class BigramModel:
    """V x V transition counts with add-one smoothing.

    `counts[a, b]` is the number of observed a -> b adjacencies;
    `token_counts[v]` the number of occurrences of v (for the unigram).
    """

    def __init__(self, num_tokens: int, counts: np.ndarray, token_counts: np.ndarray | None = None):
        if num_tokens < 2:
            raise ValueError("bigram model needs at least 2 token types")
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (num_tokens, num_tokens):
            raise ValueError(f"counts must be {num_tokens} x {num_tokens}")
        if (counts < 0).any() or not np.all(np.isfinite(counts)):
            raise ValueError("counts must be finite and non-negative")
        if token_counts is None:
            # Direct-count construction: approximate occurrences by out-degree.
            token_counts = counts.sum(axis=1)
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

    @classmethod
    def fit(cls, sequences: list[list[int]], num_tokens: int) -> "BigramModel":
        counts = np.zeros((num_tokens, num_tokens), dtype=np.float64)
        token_counts = np.zeros(num_tokens, dtype=np.float64)
        total = 0
        for seq in sequences:
            for tok in seq:
                if tok < 0 or tok >= num_tokens:
                    raise ValueError(f"corpus token {tok} outside [0, {num_tokens})")
                token_counts[tok] += 1
                total += 1
            for a, b in zip(seq, seq[1:]):
                counts[a, b] += 1
        if total == 0:
            raise ValueError("bigram model has no counts; fit it on a corpus first")
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
                sequences.append([int(tok) for tok in line.split()])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: corpus lines must be whitespace-separated integers") from exc
    if not sequences:
        raise ValueError(f"{path}: corpus is empty")
    return sequences
