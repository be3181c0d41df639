"""Foundational types for masked-sequence decoding.

Holds the vocabulary with its mask sentinel, the evolving diffusion state,
token embedding tables, a counter-based deterministic random source, and the
shared numeric primitives (softmax, all-mask init).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

__all__ = [
    "Vocabulary",
    "DiffusionState",
    "EmbeddingTable",
    "DeterministicRng",
    "all_mask_init",
    "softmax",
]


@dataclass(frozen=True)
class Vocabulary:
    """Integer token ids 0..size-1 plus a distinguished mask sentinel.

    The mask id is `size` itself: real-token logits stay a dense [0, size)
    range and the mask can never be produced by an argmax over them.
    """

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError(f"vocabulary needs at least 2 real tokens, got {self.size}")

    @property
    def mask_id(self) -> int:
        return self.size


@dataclass(eq=False)
class DiffusionState:
    """Partially masked output sequence plus warm-injection bookkeeping.

    `injected` holds the positions whose current token came from a warm
    proposal and has not been remasked yet; a position leaves the set
    permanently when it is remasked. `embedding_override` is present only
    under embedding-interpolation warm starts and carries one vector per
    position.
    """

    vocab: Vocabulary
    tokens: np.ndarray
    injected: set[int] = field(default_factory=set)
    embedding_override: np.ndarray | None = None

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        if self.tokens.ndim != 1 or self.tokens.size == 0:
            raise ValueError("tokens must be a non-empty 1-d array")
        if ((self.tokens < 0) | (self.tokens > self.vocab.mask_id)).any():
            raise ValueError("token id outside [0, mask_id]")
        n = self.tokens.size
        if any(i < 0 or i >= n for i in self.injected):
            raise ValueError("injected position out of range")
        if any(self.tokens[i] == self.vocab.mask_id for i in self.injected):
            raise ValueError("injected position holds a mask token")
        if self.embedding_override is not None:
            self.embedding_override = np.asarray(self.embedding_override, dtype=np.float64)
            if self.embedding_override.shape[0] != n:
                raise ValueError("embedding_override length must match tokens")

    def masked(self) -> np.ndarray:
        return self.tokens == self.vocab.mask_id

    def masked_count(self) -> int:
        return int(self.masked().sum())

    def copy(self) -> "DiffusionState":
        override = None
        if self.embedding_override is not None:
            override = self.embedding_override.copy()
        return DiffusionState(
            vocab=self.vocab,
            tokens=self.tokens.copy(),
            injected=set(self.injected),
            embedding_override=override,
        )


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """(V+1) x d table of token embeddings; the last row embeds the mask."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[0] < 3 or rows.shape[1] < 1:
            raise ValueError("embedding table must be (V+1) x d with V >= 2, d >= 1")
        if not np.all(np.isfinite(rows)):
            raise ValueError("embedding table entries must be finite")

    @property
    def num_tokens(self) -> int:
        """Count of real tokens V (the table has V+1 rows)."""
        return self.rows.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def mask_id(self) -> int:
        return self.num_tokens

    def mask_vector(self) -> np.ndarray:
        return self.rows[self.mask_id]

    @classmethod
    def random(cls, vocab: Vocabulary, dim: int, rng: "DeterministicRng") -> "EmbeddingTable":
        """Uniform entries in [-1, 1), addressed by (row, column) so the table
        is a pure function of the rng seed."""
        if dim < 1:
            raise ValueError("embedding dimension must be positive")
        rows = np.empty((vocab.size + 1, dim), dtype=np.float64)
        for r in range(vocab.size + 1):
            for c in range(dim):
                rows[r, c] = 2.0 * rng.draw("embed-table", r, c) - 1.0
        return cls(rows=rows)


class DeterministicRng:
    """Counter-based uniform draws in [0, 1).

    Each draw is a pure function of (seed, purpose, position, iteration), so
    enabling or disabling one consumer can never shift the values any other
    consumer sees, and runs replay bit-identically across processes and
    platforms. Distinct purpose labels give independent streams.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        # Keyed once; each draw hashes its message on a copy of this state.
        self._keyed = blake2b(digest_size=8, key=struct.pack("<Q", self.seed & 0xFFFFFFFFFFFFFFFF))

    def draw(self, purpose: str, position: int, iteration: int) -> float:
        h = self._keyed.copy()
        h.update(purpose.encode("utf-8") + struct.pack("<qq", position, iteration))
        return int.from_bytes(h.digest(), "little") / 2.0**64


def all_mask_init(vocab: Vocabulary, n: int) -> DiffusionState:
    """Information-free starting state: every position masked, nothing injected."""
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    tokens = np.full(n, vocab.mask_id, dtype=np.int64)
    return DiffusionState(vocab=vocab, tokens=tokens)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax along the last axis.

    Subtracts the per-row maximum before exponentiating, so arbitrarily large
    finite logits cannot overflow. Rejects non-finite input.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("softmax input must be finite")
    shifted = arr - arr.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
