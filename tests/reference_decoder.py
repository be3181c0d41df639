"""Straight-line reference loop for confidence-threshold unmasking.

Deliberately independent of warmdiff.decoder: explicit Python loops over
the denoiser's probability rows, read as Python floats, no shared selection
helpers. Used to cross-check decode traces token-for-token.
"""

from warmdiff.core import DiffusionState

import numpy as np


def reference_decode(denoiser_fn, ctx, init_tokens, vocab, tau, k_max=10_000):
    """Unmask-only loop: strict-tau parallel unmasking with forced progress
    (single most confident masked position, lowest index on ties).

    Returns (final_tokens, records); each record is
    {"k": k, "unmasked": [(pos, tok, conf), ...]} with positions ascending.
    """
    tokens = [int(t) for t in init_tokens]
    mask = vocab.mask_id
    records = []
    k = 0
    while any(t == mask for t in tokens) and k < k_max:
        k += 1
        state = DiffusionState(vocab=vocab, tokens=np.array(tokens, dtype=np.int64))
        pi = denoiser_fn(state, ctx, np.arange(len(tokens)))  # every row
        unmask = []
        best = None  # (pos, tok, conf) of the most confident masked position
        for i in range(len(tokens)):
            if tokens[i] != mask:
                continue
            probs = [float(x) for x in pi[i]]
            conf = max(probs)
            tok = probs.index(conf)
            if conf > tau:
                unmask.append((i, tok, conf))
            if best is None or conf > best[2]:
                best = (i, tok, conf)
        if not unmask:
            unmask = [best]
        for pos, tok, _ in unmask:
            tokens[pos] = tok
        records.append({"k": k, "unmasked": unmask})
    return tokens, records


def reference_select_unmask(conf, masked, tau):
    """The two-pass selection rule: every masked position with conf > tau,
    else the most confident masked one by np.where + argmax (lowest index on
    ties); ValueError when nothing is masked."""
    if not masked.any():
        raise ValueError("select_unmask requires at least one masked position")
    hits = np.flatnonzero(masked & (conf > tau))
    if hits.size:
        return hits
    forced = np.where(masked, conf, -np.inf)
    return np.array([int(np.argmax(forced))], dtype=np.int64)
