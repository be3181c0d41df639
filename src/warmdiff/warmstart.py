"""Warm initialization of the diffusion state from an auxiliary proposal.

Two instantiations: token injection (a Bernoulli(rho)-gated subset of
positions starts as concrete proposal tokens) and embedding interpolation
(the discrete state stays fully masked while the input representation of
each position is biased toward the proposal embedding, with keep-probability
rho dropout). The interpolated inputs are recorded by what they are made of,
the kept proposal ids, alpha and the table (`core.EmbeddingOverride`), not
as vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DeterministicRng, DiffusionState, EmbeddingOverride, EmbeddingTable, Vocabulary, all_mask_init

__all__ = ["WarmStartConfig", "warm_init", "inject_tokens", "interpolate_embeddings"]

METHODS = ("none", "token-injection", "embedding-interpolation")


@dataclass(frozen=True)
class WarmStartConfig:
    """Warm-start method plus its rates.

    rho is the prior-keep probability in both methods (injection gate for
    token injection, dropout keep-rate for embedding interpolation); alpha
    is the interpolation weight and is ignored unless the method is
    embedding-interpolation.
    """

    method: str = "none"
    rho: float = 0.25
    alpha: float = 0.6

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")


def inject_tokens(vocab, proposal: np.ndarray, rho: float, rng: DeterministicRng) -> DiffusionState:
    """Per position, keep the proposal token with probability rho (gate draw
    "inject-gate" at iteration 0), otherwise leave it masked."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")
    gate = rng.draws("inject-gate", np.arange(len(proposal)), 0) < rho
    tokens = np.where(gate, proposal, vocab.mask_id)
    return DiffusionState(vocab=vocab, tokens=tokens, injected=np.flatnonzero(gate))


def interpolate_embeddings(
    proposal: np.ndarray, table: EmbeddingTable, alpha: float, rho: float, rng: DeterministicRng
) -> EmbeddingOverride:
    """The override whose blends (1-alpha) * mask_vec + alpha * Emb(id) are
    the positions' inputs: each position keeps its proposal token as its id
    with probability rho (draw "embed-drop" at iteration 0) and is -1, the
    plain mask vector, otherwise. No vector is built. Every proposal token,
    dropped or kept, must be in the table; the override checks alpha."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")
    if ((proposal < 0) | (proposal >= table.num_tokens)).any():
        raise ValueError("proposal tokens outside the embedding table")
    keep = rng.draws("embed-drop", np.arange(len(proposal)), 0) < rho
    return EmbeddingOverride(np.where(keep, proposal, -1), alpha, table)


def warm_init(
    vocab: Vocabulary,
    proposal: np.ndarray,
    table: EmbeddingTable | None,
    cfg: WarmStartConfig,
    rng: DeterministicRng,
) -> DiffusionState:
    """Build the initial diffusion state for the configured warm-start method.

    method "none" reduces to the all-mask state; "token-injection" gates
    proposal tokens into the discrete state; "embedding-interpolation" keeps
    every position masked and attaches the override: the kept proposal ids
    with alpha and the table.
    """
    n = len(proposal)
    if cfg.method == "none":
        return all_mask_init(vocab, n)
    if cfg.method == "token-injection":
        return inject_tokens(vocab, proposal, cfg.rho, rng)
    if table is None:
        raise ValueError("embedding-interpolation requires an embedding table")
    override = interpolate_embeddings(proposal, table, cfg.alpha, cfg.rho, rng)
    return DiffusionState(vocab=vocab, tokens=np.full(n, vocab.mask_id), embedding_override=override)
