"""The denoisers as probability rows: the bodies `noisy_oracle_logits` and
`markov_logits` had when they returned len(rows) x V rows.

Each is a callable `(state, ctx, rows=None)` over a context from
`warmdiff.denoiser.prepare`, for the tests that read row contents.
`warmdiff.decoder.rows_denoiser` of each must equal the library denoiser bit
for bit (`tests/test_denoiser_equivalence.py`), and the per-position loops
there tie these rows in turn to the model definitions.
"""

import numpy as np

from warmdiff.denoiser import _window_sums


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
        revealed_in_window = _window_sums(revealed.astype(np.float64), params.window)
        wrong_in_window = _window_sums(wrong, params.window)
        flip = (2.0 * wrong_in_window > revealed_in_window)[rows]
        intended[flip] = (intended[flip] + 1) % V

    pi = np.empty((len(rows), V), dtype=np.float64)
    pi[:] = (1.0 - conf) / (V - 1)
    pi[np.arange(len(rows))[:, None], intended[:, None]] = conf
    return pi


def markov_rows(state, ctx, rows=None):
    """Row i is half the forward row of the nearest revealed token left of
    rows[i] plus half the reverse row of the nearest one right of it."""
    model = ctx.params
    tokens, mask_id = state.tokens, state.vocab.mask_id
    if rows is None:
        rows = np.arange(len(tokens))
    revealed = (tokens != mask_id).nonzero()[0]
    ext = np.full(len(revealed) + 2, mask_id)
    ext[1:-1] = tokens[revealed]
    before = ext[revealed.searchsorted(rows)]
    after = ext[1:][revealed.searchsorted(rows, "right")]
    return model.half_next_table[before] + model.half_prev_table[after]


def reference_rows(kind):
    """The row function of the denoiser kind `prepare` takes."""
    return {"noisy-oracle": oracle_rows, "markov": markov_rows}[kind]


def out_bytes(out):
    """A denoiser's (best, conf, held) as one byte string, dtypes included."""
    return b"|".join(a.dtype.str.encode() + a.tobytes() for a in out)
