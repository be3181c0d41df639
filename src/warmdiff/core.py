"""Foundational types for masked-sequence decoding.

Holds the vocabulary with its mask sentinel, the evolving diffusion state,
token embedding tables, a counter-based deterministic random source, and the
all-mask init. `softmax` stays only because the benchmark's tracer resolves it.
"""

from __future__ import annotations

import math
import operator
from copy import copy as shallow_copy
from dataclasses import dataclass
from functools import cached_property, lru_cache
from hashlib import blake2b

import numpy as np

__all__ = [
    "Vocabulary",
    "DiffusionState",
    "EmbeddingOverride",
    "EmbeddingTable",
    "DeterministicRng",
    "run_key",
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

    `injected` holds, ascending, the positions whose current token came from
    a warm proposal and has not been remasked yet: a read-only int64 array
    built from any int iterable. `apply_remask` rebinds it to the positions
    it did not remask. `embedding_override` is present only under
    embedding-interpolation warm starts: an `EmbeddingOverride` whose ids,
    one per position, must be as many as the tokens and whose table must
    embed this vocabulary.
    """

    vocab: Vocabulary
    tokens: np.ndarray
    injected: np.ndarray = ()
    embedding_override: EmbeddingOverride | None = None

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        if self.tokens.ndim != 1 or self.tokens.size == 0:
            raise ValueError("tokens must be a non-empty 1-d array")
        if ((self.tokens < 0) | (self.tokens > self.vocab.mask_id)).any():
            raise ValueError("token id outside [0, mask_id]")
        n = self.tokens.size
        # Checked as Python ints, so a position beyond int64 is out of range,
        # not an overflow; counting per position then dedupes and sorts.
        injected = [operator.index(p) for p in self.injected]
        if injected:
            if min(injected) < 0 or max(injected) >= n:
                raise ValueError("injected position out of range")
            if (self.tokens[injected] == self.vocab.mask_id).any():
                raise ValueError("injected position holds a mask token")
        self.injected = np.flatnonzero(np.bincount(injected, minlength=n))
        self.injected.flags.writeable = False
        override = self.embedding_override
        if override is not None:
            if not isinstance(override, EmbeddingOverride):
                raise ValueError("embedding_override must be an EmbeddingOverride")
            if len(override.ids) != n:
                raise ValueError("embedding_override length must match tokens")
            if override.table.num_tokens != self.vocab.size:
                raise ValueError("embedding table size does not match the vocabulary")

    def masked(self) -> np.ndarray:
        return self.tokens == self.vocab.mask_id

    def copy(self) -> "DiffusionState":
        """Own tokens; shares `injected` and `embedding_override`, which decoding only rebinds."""
        clone = shallow_copy(self)
        clone.tokens = self.tokens.copy()
        return clone


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """(V+1) x d table of token embeddings; the last row embeds the mask."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=np.float64)
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
    def mask_id(self) -> int:
        return self.num_tokens

    def mask_vector(self) -> np.ndarray:
        return self.rows[self.mask_id]

    @cached_property
    def row_norms(self) -> list[float]:
        """`_norm` of each row; computed on first use, then kept with the table."""
        return [_norm(row) for row in self.rows]

    @cached_property
    def mask_cosines(self) -> list[float]:
        """The cosine of the mask vector with row t, for each real token t;
        computed on first use, then kept with the table."""
        mask_vec, norms = self.mask_vector(), self.row_norms
        return [_cosine(mask_vec, row, norms[-1], nv) for row, nv in zip(self.rows[:-1], norms)]

    @cached_property
    def blend_cosine(self):
        """(alpha, p, t) -> the `_cosine` of the blend (1 - alpha) * mask +
        alpha * row p with row t, from the blend's own `_norm` and the row's.
        One memo per table, made on first lookup, so every run that shares
        the table shares it; it keeps the last _MEMO_ENTRIES lookups over all
        alphas, and a miss builds p's blend again. It holds the rows, not the
        table, so the table is freed with its last reference."""
        rows, norms = self.rows, self.row_norms

        @lru_cache(maxsize=_MEMO_ENTRIES)
        def blend_cosine(alpha: float, p: int, t: int) -> float:
            # The mask is the last row.
            u = (1.0 - alpha) * rows[-1] + alpha * rows[p]
            return _cosine(u, rows[t], _norm(u), norms[t])

        return blend_cosine

    @classmethod
    def random(cls, vocab: Vocabulary, dim: int, rng: "DeterministicRng") -> "EmbeddingTable":
        """Uniform entries in [-1, 1), addressed by (row, column) so the table
        is a pure function of the rng seed."""
        if dim < 1:
            raise ValueError("embedding dimension must be positive")
        return cls(rows=2.0 * rng.draws("embed-table", np.arange(vocab.size + 1), np.arange(dim)) - 1.0)


# What one table's `blend_cosine` memoizes stays bounded however many runs
# share it (about 210 bytes an entry, so about 7 MB when full).
_MEMO_ENTRIES = 1 << 15


@dataclass(frozen=True, eq=False)
class EmbeddingOverride:
    """The embedding-interpolation warm start by what it is made of.

    Position i's input is the blend (1 - alpha) * mask + alpha * Emb(ids[i])
    of `table`'s rows, or the plain mask vector where ids[i] is -1 (dropped);
    the vectors themselves are never built. `ids` is kept as a read-only
    int64 array of integer ids in [-1, V), V the table's real-token count.
    """

    ids: np.ndarray
    alpha: float
    table: EmbeddingTable

    def __post_init__(self):
        if not isinstance(self.table, EmbeddingTable):
            raise ValueError("an embedding override needs its EmbeddingTable")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        ids = np.asarray(self.ids)
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ValueError("embedding override ids must be a 1-d integer array")
        if ids.size and (ids.min() < -1 or ids.max() >= self.table.num_tokens):
            raise ValueError("embedding override id outside [-1, V)")
        ids = ids.astype(np.int64)
        ids.flags.writeable = False
        object.__setattr__(self, "ids", ids)


# SplitMix64 (Steele, Lea & Flood 2014): a counter stepped by the odd
# constant _GAMMA and a finalizer that is a bijection of 64-bit words.
_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
# The same constants as numpy scalars, so the array path never depends on how
# a numpy version promotes a Python int against a uint64 array.
_U_GAMMA, _U_MUL1, _U_MUL2 = np.uint64(_GAMMA), np.uint64(_MUL1), np.uint64(_MUL2)
_U11, _U27, _U30, _U31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)


def _mix64(z: int) -> int:
    """SplitMix64's finalizer on a Python int in [0, 2^64)."""
    z = ((z ^ (z >> 30)) * _MUL1) & _M64
    z = ((z ^ (z >> 27)) * _MUL2) & _M64
    return z ^ (z >> 31)


@lru_cache(maxsize=256)
def _purpose_key(purpose: str) -> int:
    """64-bit key of a purpose label: the first 8 bytes of its blake2b hash."""
    return int.from_bytes(blake2b(purpose.encode("utf-8"), digest_size=8).digest(), "little")


def run_key(seed: int, run: int) -> int:
    """The rng seed of run `run` under base seed `seed`: output `run` of a
    SplitMix64 stream started at the hashed seed, so distinct base seeds
    replicate on unrelated streams."""
    return _mix64((_mix64(seed & _M64) + (run + 1) * _GAMMA) & _M64)


class DeterministicRng:
    """Counter-based uniform draws in [0, 1).

    Each draw is a pure function of (seed, purpose, position, iteration), so
    enabling or disabling one consumer can never shift the values any other
    consumer sees, and runs replay bit-identically across processes and
    platforms. Distinct purpose labels give independent streams.

    The value at an address is the SplitMix64 finalizer of
    `position·GAMMA + base` (mod 2^64), scaled by its top 53 bits to [0, 1);
    `base` hashes the seed, the purpose's key and the iteration.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._key = _mix64(self.seed & _M64)

    def draw(self, purpose: str, position: int, iteration: int) -> float:
        """`draws` at one position."""
        return float(self.draws(purpose, (position,), iteration)[0])

    def draws(self, purpose: str, positions, iteration) -> np.ndarray:
        """The draw of (purpose, p, iteration) for each p of `positions`, a
        1-d int sequence, as one float64 array: the one path from an address
        set to its values. A 1-d int sequence of iterations gives the
        len(positions) x len(iterations) grid."""
        key = _mix64(self._key ^ _purpose_key(purpose))
        if isinstance(iteration, (int, np.integer)):
            base = np.uint64(_mix64((key + (int(iteration) & _M64) * _GAMMA) & _M64))
        else:
            base = np.array([_mix64((key + (int(i) & _M64) * _GAMMA) & _M64) for i in iteration], dtype=np.uint64)
            positions = np.asarray(positions, dtype=np.int64)[:, None]
        # uint64 arrays wrap silently, as the hash wants.
        z = np.asarray(positions, dtype=np.int64).view(np.uint64) * _U_GAMMA + base
        z = (z ^ (z >> _U30)) * _U_MUL1
        z = (z ^ (z >> _U27)) * _U_MUL2
        return ((z ^ (z >> _U31)) >> _U11) * 2.0**-53


def all_mask_init(vocab: Vocabulary, n: int) -> DiffusionState:
    """Information-free starting state: every position masked, nothing injected."""
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    tokens = np.full(n, vocab.mask_id, dtype=np.int64)
    return DiffusionState(vocab=vocab, tokens=tokens)


def _norm(u: np.ndarray) -> float:
    """np.linalg.norm of a contiguous 1-d float64 vector, bit for bit: numpy
    computes it as sqrt(u.dot(u)), and both square roots are correctly
    rounded."""
    return math.sqrt(u.dot(u))


def _cosine(u: np.ndarray, v: np.ndarray, nu: float, nv: float) -> float:
    """Cosine similarity of two vectors with norms nu and nv; 0 when either
    is zero, so degenerate rows stay neutral."""
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u.dot(v) / (nu * nv))


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
