"""Bit-exact equivalence of the precomputed denoisers with per-position loops.

The reference functions below are the straightforward form of both
denoisers: the oracle's embedding bonus recomputed per masked position on
every call, and the bigram mixture read row by row from the smoothing
formulas with left/right scans in Python. `prepare` + the library denoisers
must give the same logit bytes on every input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmdiff.bigram import BigramModel
from warmdiff.core import DeterministicRng, DiffusionState, EmbeddingTable, Vocabulary, all_mask_init
from warmdiff.decoder import DecodeConfig, decode
from warmdiff.denoiser import NoisyOracleParams, markov_logits, noisy_oracle_logits, prepare
from warmdiff.proposal import _sample_index, propose_markov
from warmdiff.warmstart import WarmStartConfig

FLOOR = 1e-12


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
        f = float(sum(1 for i in range(n) if revealed[i] and state.tokens[i] == target[i])) / n
    else:
        f = float(sum(revealed)) / n
    conf = np.full(n, min(params.c_max, params.c0 + params.gamma * f), dtype=np.float64)
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
    return np.log(np.maximum(pi, FLOOR))


def reference_markov(state, model):
    n, mask = len(state.tokens), state.vocab.mask_id
    rows = np.empty((n, model.num_tokens), dtype=np.float64)
    for i in range(n):
        left = [int(t) for t in state.tokens[:i] if t != mask]
        right = [int(t) for t in state.tokens[i + 1 :] if t != mask]
        fwd = model.next_probs(left[-1]) if left else model.unigram()
        bwd = model.prev_probs(right[0]) if right else model.unigram()
        rows[i] = 0.5 * fwd + 0.5 * bwd
    return np.log(rows)


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
@given(problems(), oracle_params())
def test_oracle_matches_per_position_loop(problem, params):
    state, target, table = problem
    denoiser, ctx = prepare("noisy-oracle", target, params, state, table)
    assert denoiser is noisy_oracle_logits
    assert denoiser(state, ctx).tobytes() == reference_oracle(state, target, params, table).tobytes()


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

    def checked(state, ctx):
        out = noisy_oracle_logits(state, ctx)
        assert out.tobytes() == reference_oracle(state, target, params, table).tobytes()
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
    assert denoiser(state, ctx).tobytes() == reference_markov(state, model).tobytes()


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
    expected = [_sample_index(model.unigram(), rng.draw("proposal-markov", 0, 0))]
    for i in range(1, n):
        expected.append(_sample_index(model.next_probs(expected[-1]), rng.draw("proposal-markov", i, 0)))
    assert propose_markov(model, n, rng).tokens.tolist() == expected


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
