"""The denoisers as probability rows: the bodies `noisy_oracle_logits` and
`markov_logits` had when they returned len(rows) x V rows.

Each is a callable `(state, ctx, rows=None)` over a context from
`warmdiff.denoiser.prepare`, for the tests that read row contents; it
builds the row of any position, masked or revealed (None for all n).
`rows_denoiser` turns such a callable into a denoiser with the library's
contract: asked for the masked rows and the held (still-injected) rows,
both required, it must give what the library denoiser gives, bit for bit
(`tests/test_denoiser_equivalence.py`), and the per-position loops there
tie these rows in turn to the model definitions.
"""

import numpy as np

from warmdiff.decoder import confidences
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
    """The row function of the denoiser kind `prepare` takes."""
    return {"noisy-oracle": oracle_rows, "markov": markov_rows}[kind]


def out_bytes(out):
    """A denoiser's (best, conf, held) as one byte string, dtypes included."""
    return b"|".join(a.dtype.str.encode() + a.tobytes() for a in out)
