"""The denoisers as probability rows: the bodies `noisy_oracle_logits` and
`markov_logits` had when they returned len(rows) x V rows.

Each is a callable `(state, ctx, rows=None)` over a context from
`warmdiff.denoiser.prepare`, for the tests that read row contents; it
builds the row of any position, masked or revealed (None for all n).
`rows_denoiser` turns such a callable into a denoiser with the library's
contract: asked for the masked rows and the held (still-injected) rows,
both required, it must give what the library denoiser gives, bit for bit
(`tests/test_denoiser_equivalence.py`), and the per-position loops there
tie these rows in turn to the model definitions. `override_vectors`
builds an embedding override's n x d input vectors from its ids, alpha and
table, the form the override took before it was recorded by its ids.
"""

import numpy as np

from warmdiff.decoder import confidences


def override_vectors(override):
    """One input vector per position of an `EmbeddingOverride`: the blend
    (1 - alpha) * mask + alpha * Emb(id) of each kept id, in one vectorized
    pass over the kept rows, and the mask vector itself where the id is -1."""
    table, ids, alpha = override.table, override.ids, override.alpha
    mask_vec = table.mask_vector()
    out = np.tile(mask_vec, (len(ids), 1))
    kept = ids >= 0
    out[kept] = (1.0 - alpha) * mask_vec + alpha * table.rows[ids[kept]]
    return out


def window_sums(values, window):
    """Sum of `values` over the width-`window` neighborhood centered at each
    position, truncated at the sequence edges, as floats: the path the
    oracle took before it voted in integers."""
    n = len(values)
    half = (window - 1) // 2
    cum = np.concatenate([[0.0], np.cumsum(values)])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return cum[hi] - cum[lo]


def oracle_rows(state, ctx, rows=None):
    """Row i holds c at the intended token of position rows[i] and
    (1 - c) / (V - 1) at every other token."""
    params = ctx.params
    V, mask_id, tokens = state.vocab.size, state.vocab.mask_id, state.tokens
    if rows is None:
        rows = np.arange(len(tokens))

    if params.mode == "faithful":
        r = np.count_nonzero(tokens == ctx.target)
    else:
        revealed = tokens != mask_id
        r = np.count_nonzero(revealed)
    conf = ctx.levels[r]
    if state.embedding_override is not None and params.eta > 0.0:
        boosted = np.clip(conf + ctx.bonus[rows], 0.0, params.c_max)
        conf = np.where(tokens[rows] == mask_id, boosted, conf)[:, None]

    intended = ctx.target[rows]
    if params.mode == "credulous":
        wrong = (revealed & (tokens != ctx.target)).astype(np.float64)
        revealed_in_window = window_sums(revealed.astype(np.float64), params.window)
        wrong_in_window = window_sums(wrong, params.window)
        flip = (2.0 * wrong_in_window > revealed_in_window)[rows]
        intended[flip] = (intended[flip] + 1) % V

    pi = np.empty((len(rows), V), dtype=np.float64)
    pi[:] = (1.0 - conf) / (V - 1)
    pi[np.arange(len(rows))[:, None], intended[:, None]] = conf
    return pi


def markov_rows(state, model, rows=None):
    """Row i is half the forward row of the nearest revealed token left of
    rows[i] plus half the reverse row of the nearest one right of it; the
    context is the model itself."""
    tokens, mask_id = state.tokens, state.vocab.mask_id
    if rows is None:
        rows = np.arange(len(tokens))
    revealed = (tokens != mask_id).nonzero()[0]
    ext = np.full(len(revealed) + 2, mask_id)
    ext[1:-1] = tokens[revealed]
    before = ext[revealed.searchsorted(rows)]
    after = ext[1:][revealed.searchsorted(rows, "right")]
    return model.half_next_table[before] + model.half_prev_table[after]


NO_HELD = np.empty(0, dtype=np.int64)


def masked_rows(state):
    """The masked positions, ascending: the `rows` decode passes."""
    return state.masked().nonzero()[0]


def rows_denoiser(fn):
    """The denoiser that reads `fn(state, ctx, rows) -> len(rows) x V
    probability rows`: it asks `fn` once for the union of `rows` (the
    masked positions) and `held_rows` (held positions), ascending, reduces
    the masked rows with `confidences` and reads each held position's row at
    the token it holds. Non-finite rows raise ValueError."""

    def denoiser(state, ctx, rows, held_rows):
        live = np.union1d(rows, held_rows)
        pi = fn(state, ctx, live)
        if not np.isfinite(pi).all():
            raise ValueError("denoiser returned non-finite probabilities")
        best, conf = confidences(pi[live.searchsorted(rows)])
        return best, conf, pi[live.searchsorted(held_rows), state.tokens[held_rows]]

    return denoiser


def reference_rows(kind):
    """The row function of the denoiser kind ("noisy-oracle" or "markov")."""
    return {"noisy-oracle": oracle_rows, "markov": markov_rows}[kind]


def out_bytes(out):
    """A denoiser's (best, conf, held) as one byte string, dtypes included."""
    return b"|".join(a.dtype.str.encode() + a.tobytes() for a in out)
