"""Warm initialization of the diffusion state from an auxiliary proposal.

Two instantiations: token injection (a Bernoulli(rho)-gated subset of
positions starts as concrete proposal tokens) and embedding interpolation
(the discrete state stays fully masked while the input representation of
each position is biased toward the proposal embedding, with keep-probability
rho dropout).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DeterministicRng, DiffusionState, EmbeddingTable, Vocabulary, all_mask_init

__all__ = ["WarmStartConfig", "warm_init", "inject_tokens", "interpolate_embeddings"]

METHODS = ("none", "token-injection", "embedding-interpolation")
PERSISTENCE_MODES = ("while-masked", "first-iteration")


@dataclass(frozen=True)
class WarmStartConfig:
    """Warm-start method plus its rates.

    rho is the prior-keep probability in both methods (injection gate for
    token injection, dropout keep-rate for embedding interpolation); alpha
    is the interpolation weight and is ignored unless the method is
    embedding-interpolation. override_persistence controls whether the
    override vectors stand in for masked positions on every iteration or
    only on the first one.
    """

    method: str = "none"
    rho: float = 0.25
    alpha: float = 0.6
    override_persistence: str = "while-masked"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.override_persistence not in PERSISTENCE_MODES:
            raise ValueError(f"override_persistence must be one of {PERSISTENCE_MODES}")


def inject_tokens(vocab, proposal: np.ndarray, rho: float, rng: DeterministicRng) -> DiffusionState:
    """Per position, keep the proposal token with probability rho (gate draw
    "inject-gate" at iteration 0), otherwise leave it masked."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")
    gate = rng.draws("inject-gate", np.arange(len(proposal)), 0) < rho
    tokens = np.where(gate, proposal, vocab.mask_id)
    return DiffusionState(vocab=vocab, tokens=tokens, injected=set(np.flatnonzero(gate).tolist()))


def interpolate_embeddings(
    proposal: np.ndarray, table: EmbeddingTable, alpha: float, rho: float, rng: DeterministicRng
) -> np.ndarray:
    """Convex blend (1-alpha) * mask_vec + alpha * Emb(proposal_i) per position,
    kept with probability rho (draw "embed-drop" at iteration 0) and reverted
    to the plain mask vector otherwise."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")
    if ((proposal < 0) | (proposal >= table.num_tokens)).any():
        raise ValueError("proposal tokens outside the embedding table")
    keep = rng.draws("embed-drop", np.arange(len(proposal)), 0) < rho
    mask_vec = table.mask_vector()
    out = np.tile(mask_vec, (len(proposal), 1))
    out[keep] = (1.0 - alpha) * mask_vec + alpha * table.rows[proposal[keep]]
    return out


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
    every position masked and attaches the interpolated override vectors.
    """
    n = len(proposal)
    if cfg.method == "none":
        return all_mask_init(vocab, n)
    if cfg.method == "token-injection":
        return inject_tokens(vocab, proposal, cfg.rho, rng)
    if table is None:
        raise ValueError("embedding-interpolation requires an embedding table")
    if table.num_tokens != vocab.size:
        raise ValueError("embedding table size does not match the vocabulary")
    state = all_mask_init(vocab, n)
    state.embedding_override = interpolate_embeddings(proposal, table, cfg.alpha, cfg.rho, rng)
    return state
