"""Bit-exact equivalence of the precomputed denoisers with per-position loops.

The reference functions below are the straightforward form of both
denoisers: the oracle's confidence from exact fractions and its embedding
bonus recomputed per masked position on every call, and the bigram mixture
read row by row from the smoothing formulas with left/right scans in
Python. `prepare` + the library denoisers must give the same probability
bytes on every input, for all rows and for any subset of them. The markov
proposer must draw what a per-row inverse-CDF sampler draws.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmdiff.bigram import BigramModel
from warmdiff.core import DeterministicRng, DiffusionState, EmbeddingTable, Vocabulary, all_mask_init
from warmdiff.decoder import DecodeConfig, decode
from warmdiff.denoiser import DenoiseContext, NoisyOracleParams, markov_logits, noisy_oracle_logits, prepare
from warmdiff.proposal import propose_markov
from warmdiff.warmstart import WarmStartConfig, interpolate_embeddings


def ref_cosine(u, v):
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def reference_oracle(state, target, params, table):
    n, V, mask = len(state.tokens), state.vocab.size, state.vocab.mask_id
    revealed = [int(t) != mask for t in state.tokens]
    if params.mode == "faithful":
        r = sum(1 for i in range(n) if revealed[i] and state.tokens[i] == target[i])
    else:
        r = sum(revealed)
    c0, gamma, c_max = (Fraction(repr(x)) for x in (params.c0, params.gamma, params.c_max))
    conf = np.full(n, float(min(c_max, c0 + gamma * Fraction(r, n))), dtype=np.float64)
    if state.embedding_override is not None and params.eta > 0.0:
        mask_vec = table.mask_vector()
        for i in range(n):
            if not revealed[i]:
                target_vec = table.rows[target[i]]
                bonus = ref_cosine(state.embedding_override[i], target_vec) - ref_cosine(mask_vec, target_vec)
                conf[i] = min(params.c_max, max(0.0, conf[i] + params.eta * bonus))
    intended = list(target)
    if params.mode == "credulous":
        half = (params.window - 1) // 2
        for i in range(n):
            window = range(max(0, i - half), min(n, i + half + 1))
            seen = sum(1 for j in window if revealed[j])
            wrong = sum(1 for j in window if revealed[j] and state.tokens[j] != target[j])
            if 2 * wrong > seen:
                intended[i] = (target[i] + 1) % V
    pi = np.empty((n, V), dtype=np.float64)
    for i in range(n):
        pi[i] = (1.0 - conf[i]) / (V - 1)
        pi[i, intended[i]] = conf[i]
    return pi


def reference_sample_index(probs, u):
    """Inverse-CDF sample: the index whose cumulative bucket contains u."""
    cdf = np.cumsum(probs)
    idx = int(np.searchsorted(cdf, u * cdf[-1], side="right"))
    return min(idx, len(probs) - 1)


def reference_markov(state, model):
    n, mask = len(state.tokens), state.vocab.mask_id
    rows = np.empty((n, model.num_tokens), dtype=np.float64)
    for i in range(n):
        left = [int(t) for t in state.tokens[:i] if t != mask]
        right = [int(t) for t in state.tokens[i + 1 :] if t != mask]
        fwd = model.next_probs(left[-1]) if left else model.unigram()
        bwd = model.prev_probs(right[0]) if right else model.unigram()
        rows[i] = 0.5 * fwd + 0.5 * bwd
    return rows


unit = st.floats(-1.0, 1.0, allow_nan=False, width=64)


@st.composite
def problems(draw):
    """(state, target, table): V, n, d small; any mix of masked and revealed."""
    V = draw(st.integers(2, 6))
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 4))
    vocab = Vocabulary(V)
    tokens = draw(st.lists(st.integers(0, V), min_size=n, max_size=n))  # V is the mask id
    target = np.array(draw(st.lists(st.integers(0, V - 1), min_size=n, max_size=n)), dtype=np.int64)
    rows = np.array(draw(st.lists(unit, min_size=(V + 1) * d, max_size=(V + 1) * d))).reshape(V + 1, d)
    if draw(st.booleans()):
        rows[draw(st.integers(0, V))] = 0.0  # a zero row: cosine defined as 0
    table = EmbeddingTable(rows=rows)
    override = None
    if draw(st.booleans()):
        alpha = draw(st.sampled_from([0.0, 1.0, draw(st.floats(0.0, 1.0))]))
        override = (1 - alpha) * table.mask_vector() + alpha * rows[target]
        if draw(st.booleans()):
            override = np.array(draw(st.lists(unit, min_size=n * d, max_size=n * d))).reshape(n, d)
    state = DiffusionState(vocab=vocab, tokens=np.array(tokens), embedding_override=override)
    return state, target, table


def row_subsets(n):
    """Ascending int64 positions, as decode passes them; possibly empty."""
    return st.sets(st.integers(0, n - 1)).map(lambda rows: np.array(sorted(rows), dtype=np.int64))


@st.composite
def oracle_params(draw):
    c0 = draw(st.floats(0.0, 1.0))
    return NoisyOracleParams(
        c0=c0,
        gamma=draw(st.floats(0.0, 2.0)),
        eta=draw(st.sampled_from([0.0, 0.5, draw(st.floats(0.0, 3.0))])),
        c_max=draw(st.floats(c0, 1.0)),
        mode=draw(st.sampled_from(["faithful", "credulous"])),
        window=draw(st.sampled_from([1, 3, 5])),
    )


@st.composite
def bigram_models(draw, V):
    if draw(st.booleans()):
        seqs = draw(st.lists(st.lists(st.integers(0, V - 1), min_size=1, max_size=8), min_size=1, max_size=4))
        return BigramModel.fit(seqs, V)
    # Direct construction with non-integer counts, with and without token counts.
    counts = np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=V * V, max_size=V * V))).reshape(V, V)
    counts[0, 0] += 0.1  # at least one count
    token_counts = None
    if draw(st.booleans()):
        token_counts = np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=V, max_size=V)))
    return BigramModel(V, counts, token_counts=token_counts)


@settings(max_examples=300, deadline=None)
@given(problems(), oracle_params(), st.data())
def test_oracle_matches_per_position_loop(problem, params, data):
    state, target, table = problem
    denoiser, ctx = prepare("noisy-oracle", target, params, state, table)
    assert denoiser is noisy_oracle_logits
    expected = reference_oracle(state, target, params, table)
    assert denoiser(state, ctx).tobytes() == expected.tobytes()
    rows = data.draw(row_subsets(len(target)))
    assert denoiser(state, ctx, rows).tobytes() == expected[rows].tobytes()


def reference_bonus(override, target, eta, table):
    """The per-position bonus loop: both cosines at every position."""
    mask_vec, rows = table.mask_vector(), table.rows
    return np.array(
        [eta * (ref_cosine(override[i], rows[t]) - ref_cosine(mask_vec, rows[t])) for i, t in enumerate(target)]
    )


@settings(max_examples=300, deadline=None)
@given(problems(), st.floats(0.0, 3.0, exclude_min=True), st.floats(0.0, 1.0), st.data())
def test_bonus_matches_per_position_loop(problem, eta, rho, data):
    """Overrides as interpolation leaves them (dropped rows are copies of the
    mask vector) and as drawn by `problems`; one with an all-zero row and a
    dropped row, also with strided (Fortran-order) rows, whose bonus is that
    of the contiguous copy; tables with and without an all-zero row at a
    target token. The table's norms and mask cosines are computed once and
    reused by later runs."""
    state, target, table = problem
    n = len(target)
    proposal = np.array(data.draw(st.lists(st.integers(0, table.num_tokens - 1), min_size=n, max_size=n)))
    alpha = data.draw(st.sampled_from([0.0, 1.0, data.draw(st.floats(0.0, 1.0))]))
    rng = DeterministicRng(data.draw(st.integers(0, 2**32)))
    interpolated = interpolate_embeddings(proposal, table, alpha, rho, rng)
    edges = interpolated.copy()
    edges[0] = 0.0
    edges[-1] = table.mask_vector()
    zero_row = table.rows.copy()
    zero_row[target[-1]] = 0.0
    params = NoisyOracleParams(eta=eta)
    for tbl in (table, EmbeddingTable(rows=zero_row)):
        for override in (interpolated, state.embedding_override, edges, np.asfortranarray(edges)):
            if override is None:
                continue
            init = all_mask_init(state.vocab, len(target))
            init.embedding_override = override
            _, ctx = prepare("noisy-oracle", target, params, init, tbl)
            expected = reference_bonus(np.ascontiguousarray(override), target, eta, tbl)
            assert ctx.bonus.tobytes() == expected.tobytes()
        assert tbl.row_norms is tbl.row_norms and tbl.mask_cosines is tbl.mask_cosines


@settings(max_examples=100, deadline=None)
@given(problems(), oracle_params(), st.sampled_from(["while-masked", "first-iteration"]))
def test_oracle_matches_loop_through_decode(problem, params, persistence):
    """Every call of a whole decode from an all-masked state, as embedding
    interpolation leaves it, with the override dropped after k=1 or kept."""
    state, target, table = problem
    init = all_mask_init(state.vocab, len(target))
    init.embedding_override = state.embedding_override
    _, ctx = prepare("noisy-oracle", target, params, init, table)
    seen = []

    def checked(state, ctx, rows):
        out = noisy_oracle_logits(state, ctx, rows)
        assert out.tobytes() == reference_oracle(state, target, params, table)[rows].tobytes()
        seen.append(state.embedding_override is not None)
        return out

    wcfg = WarmStartConfig(method="embedding-interpolation", override_persistence=persistence)
    decode(checked, ctx, init, DecodeConfig(tau=0.9), wcfg, DeterministicRng(0))
    if init.embedding_override is None:
        assert not any(seen)
    elif persistence == "first-iteration":
        assert seen[0] and not any(seen[1:])
    else:
        assert all(seen)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_markov_matches_per_position_loop(data):
    state, target, _ = data.draw(problems())
    model = data.draw(bigram_models(state.vocab.size))
    denoiser, ctx = prepare("markov", target, model, state)
    assert denoiser is markov_logits
    expected = reference_markov(state, model)
    assert denoiser(state, ctx).tobytes() == expected.tobytes()
    rows = data.draw(row_subsets(len(target)))
    assert denoiser(state, ctx, rows).tobytes() == expected[rows].tobytes()


@pytest.mark.parametrize("tokens", [[3, 3, 3, 3], [0, 3, 3, 3], [3, 3, 3, 2], [1, 3, 3, 0], [2]])
def test_markov_with_no_reveal_on_a_side(tokens):
    model = BigramModel(3, np.arange(9, dtype=float).reshape(3, 3) / 7.0)
    state = DiffusionState(vocab=Vocabulary(3), tokens=np.array(tokens))
    _, ctx = prepare("markov", [0] * len(tokens), model, state)
    assert markov_logits(state, ctx).tobytes() == reference_markov(state, model).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bigram_tables_hold_the_query_rows(data):
    V = data.draw(st.integers(2, 6))
    model = data.draw(bigram_models(V))
    for a in range(V):
        assert model.next_table[a].tobytes() == model.next_probs(a).tobytes()
        assert model.prev_table[a].tobytes() == model.prev_probs(a).tobytes()
    assert model.next_table[V].tobytes() == model.prev_table[V].tobytes() == model.unigram().tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 12), st.integers(0, 2**32))
def test_markov_proposal_matches_row_queries(data, n, seed):
    V = data.draw(st.integers(2, 6))
    model = data.draw(bigram_models(V))
    rng = DeterministicRng(seed)
    expected = [reference_sample_index(model.unigram(), rng.draw("proposal-markov", 0, 0))]
    for i in range(1, n):
        expected.append(reference_sample_index(model.next_probs(expected[-1]), rng.draw("proposal-markov", i, 0)))
    assert propose_markov(model, n, rng).tolist() == expected


class ScriptedRng(DeterministicRng):
    """Returns the given uniforms in order, whatever the address."""

    def __init__(self, uniforms):
        super().__init__(0)
        self.uniforms = iter(uniforms)

    def draws(self, purpose, positions, iteration):
        return np.array([next(self.uniforms) for _ in positions], dtype=np.float64)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_markov_proposal_at_the_ends_of_the_unit_interval_and_on_cdf_ties(data):
    """u = 0, u = 1 (a 64-bit draw can round up to it), just below 1, and
    counts so uneven that the smallest probabilities leave the running sum
    unchanged, so the CDF holds tied entries."""
    V = data.draw(st.integers(2, 6))
    if data.draw(st.booleans()):
        model = data.draw(bigram_models(V))
    else:
        scale = st.sampled_from([0.0, 1.0, 1e17, 1e300])
        counts = np.array(data.draw(st.lists(scale, min_size=V * V, max_size=V * V))).reshape(V, V)
        counts[0, 0] += 1.0
        model = BigramModel(V, counts, np.array(data.draw(st.lists(scale, min_size=V, max_size=V))))
    edge = st.sampled_from([0.0, 1.0, float(np.nextafter(1.0, 0.0)), 0.5])
    uniforms = data.draw(st.lists(st.one_of(edge, st.floats(0.0, 1.0)), min_size=1, max_size=10))
    expected = [reference_sample_index(model.unigram(), uniforms[0])]
    for u in uniforms[1:]:
        expected.append(reference_sample_index(model.next_probs(expected[-1]), u))
    assert propose_markov(model, len(uniforms), ScriptedRng(uniforms)).tolist() == expected


# Each check the denoisers used to run on every call now runs once, in prepare.
V3 = Vocabulary(3)
MODEL3 = BigramModel(3, np.ones((3, 3)))
OVERRIDDEN = DiffusionState(vocab=V3, tokens=np.array([3, 3]), embedding_override=np.ones((2, 2)))


@pytest.mark.parametrize(
    "args",
    [
        ("noisy-oracle", [0, 1, 2], NoisyOracleParams(), all_mask_init(V3, 2)),  # length
        ("markov", [0, 1, 2], MODEL3, all_mask_init(V3, 2)),  # length
        ("noisy-oracle", [0, 3], NoisyOracleParams(), all_mask_init(V3, 2)),  # vocabulary
        ("markov", [0, 3], MODEL3, all_mask_init(V3, 2)),  # vocabulary
        ("noisy-oracle", [0, 1], NoisyOracleParams(eta=0.5), OVERRIDDEN),  # missing table
        ("markov", [0, 1], NoisyOracleParams(), all_mask_init(V3, 2)),  # params type
        ("noisy-oracle", [0, 1], MODEL3, all_mask_init(V3, 2)),  # params type
        ("markov", [0, 1], BigramModel(2, np.ones((2, 2))), all_mask_init(V3, 2)),  # bigram vocabulary
        ("bigram", [0, 1], MODEL3, all_mask_init(V3, 2)),  # kind
    ],
)
def test_bad_inputs_rejected_when_the_context_is_built(args):
    with pytest.raises(ValueError):
        prepare(*args)


def test_override_without_a_prepared_bonus_raises():
    """A context built without a table cannot silently drop the bonus."""
    denoiser, ctx = prepare("noisy-oracle", [0, 1], NoisyOracleParams(eta=0.5), all_mask_init(V3, 2))
    assert ctx.bonus is None
    with pytest.raises(ValueError):
        denoiser(OVERRIDDEN, ctx)


def test_context_built_by_hand_raises():
    """Without `prepare` the oracle has no exact confidence levels to read."""
    with pytest.raises(ValueError, match="levels"):
        noisy_oracle_logits(all_mask_init(V3, 2), DenoiseContext(target=[0, 1], params=NoisyOracleParams()))
