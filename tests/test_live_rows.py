"""Decoding on what the denoisers return gives the bytes of full-matrix decoding.

`full_matrix_decode` is the decode loop as it was before `decode` asked the
denoiser for the live rows only: every call builds the whole n x V
probability matrix with the reference rows of `reference_rows.py` and reads
confidences from it. Over faithful and credulous
oracles, embedding overrides with both persistence modes, the markov
denoiser, remasking on and off, and thresholds equal to confidences the
loop actually emits, `decode` must produce the same trace bytes and tokens.
The loop keeps one `IterationRecord` per iteration and is written out by the
reference writer, so the comparison also covers `trace_lines` on columns.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmdiff.bigram import BigramModel
from warmdiff.core import DeterministicRng, EmbeddingTable, Vocabulary
from warmdiff.decoder import (
    DecodeConfig,
    DecodeTrace,
    IterationRecord,
    apply_remask,
    decode,
    remask_rates,
)
from warmdiff.denoiser import NoisyOracleParams, prepare
from warmdiff.harness import trace_lines
from warmdiff.warmstart import METHODS, PERSISTENCE_MODES, WarmStartConfig, warm_init

from reference_rows import reference_rows
from reference_trace import RecordTrace, columnar, reference_trace_lines


def full_matrix_decode(rows_fn, ctx, init, dcfg, wcfg, rng):
    state = init.copy()
    records = []
    k = 0
    masked = state.masked()
    while masked.any() and k < dcfg.k_max:
        k += 1
        if wcfg.override_persistence == "first-iteration" and k > 1:
            state.embedding_override = None

        pi = rows_fn(state, ctx, None)
        conf = pi.max(axis=1)
        fixed = np.flatnonzero(~masked)
        conf[fixed] = pi[fixed, state.tokens[fixed]]
        hits = np.flatnonzero(masked & (conf > dcfg.tau))
        if hits.size:
            chosen = hits
        else:
            chosen = np.array([int(np.argmax(np.where(masked, conf, -np.inf)))], dtype=np.int64)
        tokens = pi[chosen].argmax(axis=1)
        unmasked = [(int(p), int(t), float(conf[p])) for p, t in zip(chosen, tokens)]
        state.tokens[chosen] = tokens

        remasked = []
        if dcfg.remask_enabled and state.injected:
            eligible = np.array(sorted(state.injected), dtype=np.int64)
            c_bar = pi[eligible, state.tokens[eligible]]
            rates = remask_rates(c_bar, k, dcfg.b0, dcfg.lam)
            positions, hit_rates = apply_remask(state, eligible, rates, rng, k)
            remasked = list(zip(positions.tolist(), hit_rates.tolist()))

        masked = state.masked()
        records.append(IterationRecord(k=k, unmasked=unmasked, remasked=remasked, masked_after=int(masked.sum())))
    return RecordTrace(records, state.tokens, len(records), bool(masked.any()))


@st.composite
def runs(draw):
    """A prepared denoiser, its warm-started state and the decode settings."""
    V = draw(st.integers(2, 8))
    n = draw(st.integers(1, 14))
    vocab = Vocabulary(V)
    tokens = st.lists(st.integers(0, V - 1), min_size=n, max_size=n)
    target = np.array(draw(tokens), dtype=np.int64)
    rng = DeterministicRng(draw(st.integers(0, 2**32)))
    table = EmbeddingTable.random(vocab, draw(st.integers(1, 4)), rng)
    wcfg = WarmStartConfig(
        method=draw(st.sampled_from(METHODS)),
        rho=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
        alpha=draw(st.floats(0.0, 1.0)),
        override_persistence=draw(st.sampled_from(PERSISTENCE_MODES)),
    )
    init = warm_init(vocab, np.array(draw(tokens), dtype=np.int64), table, wcfg, rng)
    if draw(st.booleans()):
        seqs = draw(st.lists(st.lists(st.integers(0, V - 1), min_size=1, max_size=12), min_size=1, max_size=4))
        kind, params = "markov", BigramModel.fit(seqs, V)
    else:
        c0 = draw(st.floats(0.0, 1.0))
        kind, params = "noisy-oracle", NoisyOracleParams(
            c0=c0,
            gamma=draw(st.floats(0.0, 2.0)),
            eta=draw(st.sampled_from([0.0, 0.5, 2.0])),
            c_max=draw(st.floats(c0, 1.0)),
            mode=draw(st.sampled_from(["faithful", "credulous"])),
            window=draw(st.sampled_from([1, 3, 5])),
        )
    denoiser, ctx = prepare(kind, target, params, init, table)
    rows_fn = reference_rows(kind)
    knobs = dict(
        remask_enabled=draw(st.booleans()),
        b0=draw(st.sampled_from([0.01, 0.3, 1.0])),
        lam=draw(st.sampled_from([0.002, 0.05])),
        k_max=draw(st.sampled_from([1, 2, 4096])),
    )
    return denoiser, rows_fn, ctx, init, wcfg, rng, knobs


def trace_bytes(write, trace, header=None):
    return "\n".join(write(trace, header or {})).encode()


@pytest.mark.filterwarnings("ignore:k_max")
@settings(max_examples=400, deadline=None)
@given(runs(), st.data())
def test_live_rows_match_the_full_matrix(run, data):
    denoiser, rows_fn, ctx, init, wcfg, rng, knobs = run
    first = DecodeConfig(tau=data.draw(st.floats(0.05, 1.0)), **knobs)
    probe = full_matrix_decode(rows_fn, ctx, init, first, wcfg, rng)
    # A threshold equal to an emitted confidence puts positions exactly on the
    # strict > tau boundary.
    emitted = [c for rec in probe.iterations for _, _, c in rec.unmasked]
    for tau in {first.tau, data.draw(st.sampled_from(emitted)) if emitted else first.tau}:
        dcfg = DecodeConfig(tau=tau, **knobs)
        want = full_matrix_decode(rows_fn, ctx, init, dcfg, wcfg, rng)
        got = decode(denoiser, ctx, init, dcfg, wcfg, rng)
        assert trace_bytes(trace_lines, got) == trace_bytes(reference_trace_lines, want)
        assert got.final_tokens.tobytes() == want.final_tokens.tobytes()


@pytest.mark.filterwarnings("ignore:k_max")
@settings(max_examples=300, deadline=None)
@given(runs(), st.floats(0.05, 1.0))
def test_trace_lines_match_the_reference_writer(run, tau):
    denoiser, _, ctx, init, wcfg, rng, knobs = run
    got = decode(denoiser, ctx, init, DecodeConfig(tau=tau, **knobs), wcfg, rng)
    header = {"config": {"decode.tau": tau}, "run": 3, "seed": 2**64 - 1}
    assert trace_bytes(trace_lines, got, header) == trace_bytes(reference_trace_lines, got, header)
    # The record view holds exactly what the columns hold.
    again = columnar(RecordTrace(got.iterations, got.final_tokens, got.nfe, got.capped))
    for f in fields(DecodeTrace):
        a, b = getattr(got, f.name), getattr(again, f.name)
        assert np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b), f.name
