import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from warmdiff.core import DeterministicRng, Vocabulary, softmax
from warmdiff.decoder import remask_rates, select_unmask
from warmdiff.proposal import propose_corrupted
from warmdiff.warmstart import interpolate_embeddings
from warmdiff.core import EmbeddingTable

finite_logits = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=12
)


@given(finite_logits)
def test_softmax_is_a_distribution(logits):
    out = softmax(np.array(logits))
    assert (out > 0).all()
    assert abs(out.sum() - 1.0) < 1e-9


@given(finite_logits, st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_softmax_shift_invariance(logits, c):
    base = softmax(np.array(logits))
    shifted = softmax(np.array(logits) + c)
    assert np.all(np.abs(shifted - base) <= 1e-12 + 1e-12 * np.abs(base))


@given(
    st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=20),
    st.integers(min_value=1, max_value=10_000),
    st.floats(min_value=1e-6, max_value=10),
    st.floats(min_value=1e-6, max_value=10),
)
def test_remask_rates_always_in_unit_interval(c_bar, k, b0, lam):
    rates = remask_rates(np.array(c_bar), k, b0, lam)
    assert (rates >= 0.0).all()
    assert (rates <= 1.0).all()


@given(
    st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=16),
    st.floats(min_value=0.05, max_value=1.0),
    st.data(),
)
def test_select_unmask_respects_threshold_or_forces_one(conf, tau, data):
    conf = np.array(conf)
    masked = np.array(data.draw(st.lists(st.booleans(), min_size=len(conf), max_size=len(conf))))
    if not masked.any():
        masked[0] = True
    rows = masked.nonzero()[0]
    chosen = rows[select_unmask(conf[rows], tau)]
    assert masked[chosen].all()
    above = np.flatnonzero(masked & (conf > tau))
    if above.size:
        assert chosen.tolist() == above.tolist()
    else:
        best = conf[masked].max()
        assert len(chosen) == 1
        assert conf[chosen[0]] == best
        assert not (masked[: chosen[0]] & (conf[: chosen[0]] == best)).any()


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
)
def test_corruption_positions_grow_monotonically_with_epsilon(seed, eps_a, eps_b):
    lo, hi = sorted((eps_a, eps_b))
    v = Vocabulary(7)
    target = np.arange(30) % 7
    corrupted_lo = propose_corrupted(v, target, lo, DeterministicRng(seed)) != target
    corrupted_hi = propose_corrupted(v, target, hi, DeterministicRng(seed)) != target
    assert set(np.flatnonzero(corrupted_lo)) <= set(np.flatnonzero(corrupted_hi))


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
)
def test_override_entries_stay_on_segment(seed, alpha, rho):
    v = Vocabulary(5)
    table = EmbeddingTable.random(v, 4, DeterministicRng(seed))
    prop = np.arange(10) % 5
    out = interpolate_embeddings(prop, table, alpha, rho, DeterministicRng(seed + 1))
    mask_vec = table.mask_vector()
    for i in range(10):
        other = table.rows[prop[i]]
        lo = np.minimum(mask_vec, other) - 1e-12
        hi = np.maximum(mask_vec, other) + 1e-12
        assert (out[i] >= lo).all() and (out[i] <= hi).all()


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=0, max_value=1))
def test_proposals_never_contain_mask(seed, eps):
    v = Vocabulary(4)
    target = np.arange(25) % 4
    prop = propose_corrupted(v, target, eps, DeterministicRng(seed))
    assert ((prop >= 0) & (prop < 4)).all()
