"""Bit-exact equivalence of the precomputed denoisers with per-position loops.

The reference functions below are the straightforward form of both
denoisers: the oracle's confidence from exact fractions and its embedding
bonus recomputed per masked position on every call, from the override's
input vectors built in one pass (`override_vectors`), and the bigram mixture
read row by row from the smoothing formulas with left/right scans in
Python. `prepare` + the library denoisers must give the bytes that
`rows_denoiser` reads from these rows (argmax, confidence and held-token
probability) on every input. A denoiser answers only decode's call, so each
is asked for the masked positions, all of them or any subset, with any
revealed positions held; the reference rows themselves are checked at every
position, revealed ones included. The markov proposer must draw what a
per-row inverse-CDF sampler draws.
"""

from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import warmdiff.denoiser
from warmdiff import bigram
from warmdiff.bigram import BigramModel
from warmdiff.core import DeterministicRng, DiffusionState, EmbeddingOverride, EmbeddingTable, Vocabulary, all_mask_init
from warmdiff.decoder import DecodeConfig, decode
from warmdiff.denoiser import DenoiseContext, NoisyOracleParams, markov_logits, noisy_oracle_logits, prepare
from warmdiff.harness import build_config, build_resources, run_experiment
from warmdiff.proposal import propose_corrupted, propose_markov
from warmdiff.warmstart import METHODS, WarmStartConfig, inject_tokens, interpolate_embeddings, warm_init

from reference_rows import (
    NO_HELD,
    markov_rows,
    masked_rows,
    oracle_rows,
    out_bytes,
    override_vectors,
    reference_rows,
    rows_denoiser,
)


def ref_cosine(u, v):
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def reference_oracle(state, target, params):
    n, V, mask = len(state.tokens), state.vocab.size, state.vocab.mask_id
    revealed = [int(t) != mask for t in state.tokens]
    if params.mode == "faithful":
        r = sum(1 for i in range(n) if revealed[i] and state.tokens[i] == target[i])
    else:
        r = sum(revealed)
    c0, gamma, c_max = (Fraction(repr(x)) for x in (params.c0, params.gamma, params.c_max))
    conf = np.full(n, float(min(c_max, c0 + gamma * Fraction(r, n))), dtype=np.float64)
    if state.embedding_override is not None and params.eta > 0.0:
        table, vectors = state.embedding_override.table, override_vectors(state.embedding_override)
        mask_vec = table.mask_vector()
        for i in range(n):
            if not revealed[i]:
                target_vec = table.rows[target[i]]
                bonus = ref_cosine(vectors[i], target_vec) - ref_cosine(mask_vec, target_vec)
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


def via_rows(rows_of):
    """The denoiser that reads the full matrix `rows_of(state)` through
    `rows_denoiser`."""
    return rows_denoiser(lambda state, ctx, rows: rows_of(state)[rows])


unit = st.floats(-1.0, 1.0, allow_nan=False, width=64)


@st.composite
def problems(draw):
    """(state, target, table): V, n, d small; any mix of masked and revealed;
    an override, if any, of the target ids or of drawn ids (-1 included)."""
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
        ids = target
        if draw(st.booleans()):
            ids = np.array(draw(st.lists(st.integers(-1, V - 1), min_size=n, max_size=n)), dtype=np.int64)
        override = EmbeddingOverride(ids, alpha, table)
    state = DiffusionState(vocab=vocab, tokens=np.array(tokens), embedding_override=override)
    return state, target, table


def masked_subsets(state):
    """All masked positions or a drawn subset of them, ascending int64;
    possibly empty."""
    masked = masked_rows(state)
    return st.just(masked) | st.sets(st.sampled_from(masked.tolist()) if len(masked) else st.nothing()).map(
        lambda rows: np.array(sorted(rows), dtype=np.int64)
    )


def held_subsets(state):
    """Ascending revealed positions, as decode holds them; possibly empty."""
    revealed = (state.tokens != state.vocab.mask_id).nonzero()[0].tolist()
    return st.sets(st.sampled_from(revealed) if revealed else st.nothing()).map(
        lambda rows: np.array(sorted(rows), dtype=np.int64)
    )


@st.composite
def oracle_params(draw):
    c0 = draw(st.floats(0.0, 1.0))
    return NoisyOracleParams(
        c0=c0,
        gamma=draw(st.floats(0.0, 2.0)),
        eta=draw(st.sampled_from([0.0, 0.5, draw(st.floats(0.0, 3.0))])),
        c_max=draw(st.floats(c0, 1.0)),
        mode=draw(st.sampled_from(["faithful", "credulous"])),
        # 21 and 10^9 + 1 are wider than 2n - 1 for every drawn n.
        window=draw(st.sampled_from([1, 3, 5, 21, 1000000001])),
    )


@st.composite
def bigram_models(draw, V):
    if draw(st.booleans()):
        seqs = draw(st.lists(st.lists(st.integers(0, V - 1), min_size=1, max_size=8), min_size=1, max_size=4))
        return BigramModel.fit(seqs, V)
    # Direct construction with non-integer counts.
    counts = np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=V * V, max_size=V * V))).reshape(V, V)
    counts[0, 0] += 0.1  # at least one count
    token_counts = np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=V, max_size=V)))
    return BigramModel(V, counts, token_counts=token_counts)


@settings(max_examples=300, deadline=None)
@given(problems(), oracle_params(), st.data())
def test_oracle_matches_per_position_loop(problem, params, data):
    state, target, table = problem
    denoiser, ctx = prepare(target, params, state)
    assert denoiser is noisy_oracle_logits
    full = reference_oracle(state, target, params)
    expected = via_rows(lambda s: reference_oracle(s, target, params))
    held = data.draw(held_subsets(state))
    rows = masked_rows(state)
    assert out_bytes(denoiser(state, ctx, rows, held)) == out_bytes(expected(state, ctx, rows, held))
    assert oracle_rows(state, ctx).tobytes() == full.tobytes()
    rows = data.draw(masked_subsets(state))
    assert out_bytes(denoiser(state, ctx, rows, held)) == out_bytes(expected(state, ctx, rows, held))
    assert oracle_rows(state, ctx, rows).tobytes() == full[rows].tobytes()


def reference_bonus(override, target, eta):
    """The per-position bonus loop: both cosines at every position, from the
    override's input vectors."""
    vectors, mask_vec, rows = override_vectors(override), override.table.mask_vector(), override.table.rows
    return np.array(
        [eta * (ref_cosine(vectors[i], rows[t]) - ref_cosine(mask_vec, rows[t])) for i, t in enumerate(target)]
    )


@settings(max_examples=300, deadline=None)
@given(problems(), st.floats(0.0, 3.0, exclude_min=True), st.floats(0.0, 1.0), st.data())
def test_bonus_matches_per_position_loop(problem, eta, rho, data):
    """Overrides as interpolation leaves them (dropped positions are -1) and
    as drawn by `problems`; one whose first id is the target token whose row
    is zeroed below and whose last is dropped, also as a strided view of its
    ids; tables with and without an all-zero row at a target token, so at
    alpha = 1 a blend is the zero vector. The table's norms, mask cosines
    and blend cosine memo are computed once and reused by later runs."""
    state, target, table = problem
    n = len(target)
    proposal = np.array(data.draw(st.lists(st.integers(0, table.num_tokens - 1), min_size=n, max_size=n)))
    alpha = data.draw(st.sampled_from([0.0, 1.0, data.draw(st.floats(0.0, 1.0))]))
    rng = DeterministicRng(data.draw(st.integers(0, 2**32)))
    interpolated = interpolate_embeddings(proposal, table, alpha, rho, rng).ids
    edges = interpolated.copy()
    edges[0] = target[-1]
    edges[-1] = -1
    zero_row = table.rows.copy()
    zero_row[target[-1]] = 0.0
    params = NoisyOracleParams(eta=eta)
    drawn = state.embedding_override
    for tbl in (table, EmbeddingTable(rows=zero_row)):
        overrides = [(ids, alpha) for ids in (interpolated, edges, np.repeat(edges, 2)[::2])]
        if drawn is not None:
            overrides.append((drawn.ids, drawn.alpha))
        for ids, a in overrides:
            override = EmbeddingOverride(ids, a, tbl)
            tokens = all_mask_init(state.vocab, n).tokens
            init = DiffusionState(vocab=state.vocab, tokens=tokens, embedding_override=override)
            _, ctx = prepare(target, params, init)
            assert ctx.bonus.tobytes() == reference_bonus(override, target, eta).tobytes()
        assert tbl.row_norms is tbl.row_norms and tbl.mask_cosines is tbl.mask_cosines
        assert tbl.blend_cosine is tbl.blend_cosine


def float_bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_blend_cosine_memo_matches_the_per_position_reference(data):
    """Each memo entry is bit for bit the cosine `ref_cosine` takes of
    position i's input vector, built from the ids by `override_vectors`, and
    the target row: over drawn tables with zero rows (the mask's included),
    alpha 0, 1 and drawn, and ids with -1 among them. Alphas are looked up
    in a drawn order on one table's one memo, which keeps an entry per
    distinct (alpha, p, t), and a later lookup of a filled entry returns it
    as it was."""
    V, n, d = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 12)), data.draw(st.integers(1, 4))
    rows = np.array(data.draw(st.lists(unit, min_size=(V + 1) * d, max_size=(V + 1) * d))).reshape(V + 1, d)
    for zero in data.draw(st.sets(st.integers(0, V), max_size=2)):
        rows[zero] = 0.0
    table = EmbeddingTable(rows=rows)
    drawn_alpha = data.draw(st.floats(0.0, 1.0).filter(lambda a: a not in (0.0, 1.0)))
    alphas = data.draw(st.permutations([0.0, 1.0, drawn_alpha]))
    seen = {}
    for alpha in alphas:
        ids = np.array(data.draw(st.lists(st.integers(-1, V - 1), min_size=n, max_size=n)))
        ids[data.draw(st.integers(0, n - 1))] = -1
        target = data.draw(st.lists(st.integers(0, V - 1), min_size=n, max_size=n))
        override = EmbeddingOverride(ids, alpha, table)
        vectors = override_vectors(override)
        for i, (p, t) in enumerate(zip(ids.tolist(), target)):
            if p < 0:
                assert vectors[i].tobytes() == table.mask_vector().tobytes()
                continue
            seen[alpha, p, t] = table.blend_cosine(alpha, p, t)
            assert float_bits(seen[alpha, p, t]) == float_bits(ref_cosine(vectors[i], rows[t]))
        assert table.blend_cosine.cache_info().currsize == len(seen)
    hits = table.blend_cosine.cache_info().hits
    assert all(float_bits(table.blend_cosine(*key)) == float_bits(value) for key, value in seen.items())
    assert table.blend_cosine.cache_info().hits == hits + len(seen)


@settings(max_examples=100, deadline=None)
@given(problems(), oracle_params(), st.sampled_from(["while-masked", "first-iteration"]))
def test_oracle_matches_loop_through_decode(problem, params, persistence):
    """Every call of a whole decode from an all-masked state, as embedding
    interpolation leaves it, with the override dropped after k=1 or kept."""
    state, target, table = problem
    init = all_mask_init(state.vocab, len(target))
    init.embedding_override = state.embedding_override
    _, ctx = prepare(target, params, init)
    seen = []

    expected = via_rows(lambda s: reference_oracle(s, target, params))

    def checked(state, ctx, rows, held_rows):
        out = noisy_oracle_logits(state, ctx, rows, held_rows)
        assert out_bytes(out) == out_bytes(expected(state, ctx, rows, held_rows))
        seen.append(state.embedding_override is not None)
        return out

    decode(checked, ctx, init, DecodeConfig(tau=0.9, override_persistence=persistence), DeterministicRng(0))
    if init.embedding_override is None:
        assert not any(seen)
    elif persistence == "first-iteration":
        assert seen[0] and not any(seen[1:])
    else:
        assert all(seen)


@settings(max_examples=100, deadline=None)
@given(problems(), oracle_params(), st.data())
def test_bonus_tables_match_the_reference_rows_at_every_revealed_count(problem, params, data):
    """The oracle with a bonus against the reference rows, with its tables
    (a budget of exactly (n + 1) * n entries) and without them (one entry
    fewer). Positions are revealed one at a time in a drawn order, first with
    their target tokens, so r takes every value in 0..n in both modes, then
    with drawn tokens, so credulous intents flip. Each state is asked for
    its masked rows (as decode asks) and a drawn subset of them, with drawn
    held rows. eta up to 50 drives hi + bonus below 0 and above c_max."""
    state, target, table = problem
    n, V, mask_id = len(target), state.vocab.size, state.vocab.mask_id
    params = replace(params, eta=data.draw(st.sampled_from([0.5, 50.0]) | st.floats(0.0, 50.0, exclude_min=True)))
    budget = data.draw(st.sampled_from([(n + 1) * n, (n + 1) * n - 1]))
    order = data.draw(st.permutations(range(n)))
    drawn = np.array(data.draw(st.lists(st.integers(0, V - 1), min_size=n, max_size=n)))
    if state.embedding_override is None:
        state.embedding_override = EmbeddingOverride(drawn, 0.5, table)
    expected = rows_denoiser(oracle_rows)
    with mock.patch.object(warmdiff.denoiser, "_BONUS_TABLE_ENTRIES", budget):
        denoiser, ctx = prepare(target, params, state)
        assert (ctx.bonus_conf is None) == (budget < (n + 1) * n)
        for source in (target, drawn):
            for k in range(n + 1):
                tokens = np.full(n, mask_id)
                tokens[order[:k]] = source[order[:k]]
                at_k = DiffusionState(vocab=state.vocab, tokens=tokens, embedding_override=state.embedding_override)
                held = data.draw(held_subsets(at_k))
                for rows in (masked_rows(at_k), data.draw(masked_subsets(at_k))):
                    got = denoiser(at_k, ctx, rows, held)
                    assert out_bytes(got) == out_bytes(expected(at_k, ctx, rows, held))


def tie_problem():
    """V = 4, n = 6, an override at alpha = 1 whose bonus is positive at
    positions 0 and 3, exactly 0 at 1 and 4 (dropped: the mask vector) and
    negative at 2 and 5."""
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    target = np.array([0, 1, 2, 3, 0, 0])
    table = EmbeddingTable(rows=rows)
    # The inputs rows[0], mask, -rows[2] = rows[0], rows[3], mask, -rows[0] = rows[2].
    override = EmbeddingOverride(np.array([0, -1, 0, 3, -1, 2]), 1.0, table)
    state = DiffusionState(vocab=Vocabulary(4), tokens=np.full(6, 4), embedding_override=override)
    return state, target


@pytest.mark.parametrize("budget", [42, 41])
@pytest.mark.parametrize("mode", ["faithful", "credulous"])
def test_bonus_ties_at_the_uniform_level(budget, mode):
    """c0 = c_max = 0.25 with V = 4: a bonus of 0 or more clips to c_max,
    four equal entries whose argmax is token 0; the negative ones here clip
    to 0, leaving the intended token below the rest, whose lowest id wins.
    With the tables (budget 42 = 7 * 6) and without them."""
    state, target = tie_problem()
    params = NoisyOracleParams(c0=0.25, gamma=0.5, eta=1.0, c_max=0.25, mode=mode)
    with mock.patch.object(warmdiff.denoiser, "_BONUS_TABLE_ENTRIES", budget):
        denoiser, ctx = prepare(target, params, state)
        assert (ctx.bonus_conf is None) == (budget == 41)
        rows = masked_rows(state)
        best, conf, _ = got = denoiser(state, ctx, rows, NO_HELD)
        assert best.tolist() == [0, 0, 0, 0, 0, 1]
        assert conf.tolist() == [0.25, 0.25, 1 / 3, 0.25, 0.25, 1 / 3]
        assert out_bytes(got) == out_bytes(rows_denoiser(oracle_rows)(state, ctx, rows, NO_HELD))
        state.tokens[[1, 2]] = [1, 3]  # one correct reveal, one wrong one
        rows, held = masked_rows(state), np.array([1, 2])
        expected = rows_denoiser(oracle_rows)(state, ctx, rows, held)
        assert out_bytes(denoiser(state, ctx, rows, held)) == out_bytes(expected)


def test_bonus_tables_stop_at_the_entry_budget():
    """n = 255 is the longest sequence whose (n + 1) * n tables fit the
    budget; from n = 256 the context holds no table and the oracle computes
    the bonus per call, bit for bit what the reference rows give."""
    assert 256 * 255 <= warmdiff.denoiser._BONUS_TABLE_ENTRIES < 257 * 256
    rng = np.random.default_rng(5)
    table = EmbeddingTable(rows=rng.standard_normal((9, 4)))
    for n in (255, 256):
        target = rng.integers(0, 8, n)
        override = EmbeddingOverride(rng.integers(-1, 8, n), 0.7, table)
        state = DiffusionState(vocab=Vocabulary(8), tokens=np.full(n, 8), embedding_override=override)
        for mode in ("faithful", "credulous"):
            params = NoisyOracleParams(eta=0.8, mode=mode)
            denoiser, ctx = prepare(target, params, state)
            if n == 255:
                assert ctx.bonus_conf.shape == (256, 255)
                assert ctx.bonus_best.shape == ({"faithful": 1, "credulous": 2}[mode], 256, 255)
            else:
                assert ctx.bonus_conf is None and ctx.bonus_best is None
            for k in (0, n // 2):
                tokens = np.full(n, 8)
                tokens[: k : 2] = target[: k : 2]
                tokens[1 : k : 2] = (target[1 : k : 2] + 3) % 8
                at = DiffusionState(vocab=state.vocab, tokens=tokens, embedding_override=state.embedding_override)
                rows, held = masked_rows(at), (tokens != 8).nonzero()[0]
                expected = rows_denoiser(oracle_rows)(at, ctx, rows, held)
                assert out_bytes(denoiser(at, ctx, rows, held)) == out_bytes(expected)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_markov_matches_per_position_loop(data):
    state, target, _ = data.draw(problems())
    model = data.draw(bigram_models(state.vocab.size))
    denoiser, ctx = prepare(target, model, state)
    assert denoiser is markov_logits
    full = reference_markov(state, model)
    expected = via_rows(lambda s: reference_markov(s, model))
    held = data.draw(held_subsets(state))
    rows = masked_rows(state)
    assert out_bytes(denoiser(state, ctx, rows, held)) == out_bytes(expected(state, ctx, rows, held))
    assert markov_rows(state, ctx).tobytes() == full.tobytes()
    rows = data.draw(masked_subsets(state))
    assert out_bytes(denoiser(state, ctx, rows, held)) == out_bytes(expected(state, ctx, rows, held))
    assert markov_rows(state, ctx, rows).tobytes() == full[rows].tobytes()


@pytest.mark.parametrize("tokens", [[3, 3, 3, 3], [0, 3, 3, 3], [3, 3, 3, 2], [1, 3, 3, 0], [2]])
def test_markov_with_no_reveal_on_a_side(tokens):
    counts = np.arange(9, dtype=float).reshape(3, 3) / 7.0
    model = BigramModel(3, counts, token_counts=counts.sum(axis=1))
    state = DiffusionState(vocab=Vocabulary(3), tokens=np.array(tokens))
    _, ctx = prepare([0] * len(tokens), model, state)
    rows, held = masked_rows(state), (state.tokens != 3).nonzero()[0]
    expected = via_rows(lambda s: reference_markov(s, model))
    assert out_bytes(markov_logits(state, ctx, rows, held)) == out_bytes(expected(state, ctx, rows, held))
    assert markov_rows(state, ctx).tobytes() == reference_markov(state, model).tobytes()


def decode_rows(tokens, injected, mask_id):
    """What decode asks for: the masked positions, and the still-injected
    ones held, each ascending."""
    return (tokens == mask_id).nonzero()[0], np.array(sorted(injected), dtype=np.int64)


def model_at_scale(V, seed):
    rng = np.random.default_rng(seed)
    return BigramModel.fit([rng.integers(0, V, 48).tolist() for _ in range(8)], V)


def edge_states(n, mask_id):
    """(tokens, injected) with 0 revealed, 1 revealed (first, middle, last),
    all revealed (none, some and all of them injected) and revealed tokens
    only at the two ends."""
    tokens = np.arange(n) % mask_id
    masked = np.full(n, mask_id)
    states = [(masked, set())]
    for p in sorted({0, n // 2, n - 1}):
        one = masked.copy()
        one[p] = tokens[p]
        states += [(one, set()), (one, {p})]
    states += [(tokens, set(range(0, n, 3))), (tokens, set(range(n)))]
    if n >= 2:
        ends = masked.copy()
        ends[[0, -1]] = tokens[[0, -1]]
        states += [(ends, set()), (ends, {0}), (ends, {n - 1}), (ends, {0, n - 1})]
    return states


@pytest.mark.parametrize("n,V", [(1, 2), (2, 2), (3, 3), (5, 4), (64, 64)])
def test_markov_matches_per_position_loop_on_edge_states(n, V):
    model = model_at_scale(V, n)
    for tokens, injected in edge_states(n, V):
        state = DiffusionState(vocab=Vocabulary(V), tokens=tokens.copy(), injected=injected)
        _, ctx = prepare([0] * n, model, state)
        expected = via_rows(lambda s: reference_markov(s, model))
        rows, held = decode_rows(state.tokens, injected, V)
        assert out_bytes(markov_logits(state, ctx, rows, held)) == out_bytes(expected(state, ctx, rows, held))
        assert markov_rows(state, ctx).tobytes() == reference_markov(state, model).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(3, 3), (8, 5), (64, 64)]), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_markov_matches_per_position_loop_through_decode(shape, rho, seed):
    """Every call of a whole decode at decode scale, with token injection
    and remasking, so each call's rows are the masked positions and its held
    rows the still-injected ones."""
    n, V = shape
    model = model_at_scale(V, seed)
    vocab = Vocabulary(V)
    target = propose_markov(model, n, DeterministicRng(seed))
    init = inject_tokens(vocab, target, rho, DeterministicRng(seed + 1))
    _, ctx = prepare(target, model, init)
    calls = []
    expected = via_rows(lambda s: reference_markov(s, model))

    def checked(state, ctx, rows, held_rows):
        want_rows, want_held = decode_rows(state.tokens, state.injected, V)
        assert rows.tolist() == want_rows.tolist() and held_rows.tolist() == want_held.tolist()
        out = markov_logits(state, ctx, rows, held_rows)
        assert out_bytes(out) == out_bytes(expected(state, ctx, rows, held_rows))
        calls.append(len(rows))
        return out

    dcfg = DecodeConfig(tau=0.5, remask_enabled=True, b0=0.3, lam=0.05)
    trace = decode(checked, ctx, init, dcfg, DeterministicRng(seed + 2))
    assert len(calls) == trace.nfe


@pytest.mark.parametrize("remask", [False, True])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind", ["noisy-oracle", "markov"])
def test_decode_asks_for_the_masked_rows_and_holds_the_injected_ones(kind, method, remask):
    """The contract the denoisers rely on: on every call decode passes the
    masked positions as `rows` and the still-injected ones as `held_rows`
    (none when remasking is off), and the library denoiser answers as the
    reference rows do."""
    n, V = 24, 8
    vocab = Vocabulary(V)
    model = model_at_scale(V, 3)
    table = EmbeddingTable.random(vocab, 4, DeterministicRng(4))
    params = model if kind == "markov" else NoisyOracleParams(c0=0.3, gamma=0.6, eta=0.5, mode="credulous")
    expected = rows_denoiser(reference_rows(kind))
    dcfg = DecodeConfig(tau=0.6, remask_enabled=remask, b0=0.4, lam=0.05)
    for seed in range(4):
        target = propose_markov(model, n, DeterministicRng(seed))
        proposal = propose_corrupted(vocab, target, 0.4, DeterministicRng(seed + 10))
        wcfg = WarmStartConfig(method=method, rho=0.5, alpha=0.7)
        init = warm_init(vocab, proposal, table, wcfg, DeterministicRng(seed + 20))
        denoiser, ctx = prepare(target, params, init)
        held_seen = []

        def spy(state, ctx, rows, held_rows):
            assert rows.tolist() == state.masked().nonzero()[0].tolist()
            assert held_rows.tolist() == (state.injected.tolist() if remask else [])
            out = denoiser(state, ctx, rows, held_rows)
            assert out_bytes(out) == out_bytes(expected(state, ctx, rows, held_rows))
            held_seen.append(len(held_rows))
            return out

        trace = decode(spy, ctx, init, dcfg, DeterministicRng(seed + 30))
        assert len(held_seen) == trace.nfe >= 1
        if remask and method == "token-injection":
            assert max(held_seen) > 0


@st.composite
def reference_cases(draw):
    """(kind, denoiser, ctx, state, rows, held rows) over `problems`. Oracle
    levels are drawn or pinned to 1/V or one ulp either side of it, so rows
    with hi == lo and hi < lo come up, with and without the bonus; states
    may reveal nothing or one position, so markov rows may lack either
    neighbour."""
    state, target, table = draw(problems())
    V, n = state.vocab.size, len(target)
    reveal = draw(st.sampled_from(["drawn", "none", "one"]))
    if reveal != "drawn":
        state.tokens[:] = V
        if reveal == "one":
            state.tokens[draw(st.integers(0, n - 1))] = draw(st.integers(0, V - 1))
    if draw(st.booleans()):
        kind, params = "markov", draw(bigram_models(V))
    else:
        kind, params = "noisy-oracle", draw(oracle_params())
        uniform = 1.0 / V
        pinned = draw(st.sampled_from([None, uniform, *(float(np.nextafter(uniform, x)) for x in (0.0, 1.0))]))
        if pinned is not None:
            params = replace(params, c0=pinned, c_max=pinned)
    denoiser, ctx = prepare(target, params, state)
    return kind, denoiser, ctx, state, draw(masked_subsets(state)), draw(held_subsets(state))


@settings(max_examples=500, deadline=None)
@given(reference_cases())
def test_denoisers_match_their_reference_rows(case):
    """Each library denoiser gives, bit for bit, what `rows_denoiser` reads
    from the rows it built before it returned (best, conf, held)."""
    kind, denoiser, ctx, state, rows, held = case
    expected = rows_denoiser(reference_rows(kind))
    assert out_bytes(denoiser(state, ctx, rows, held)) == out_bytes(expected(state, ctx, rows, held))


@pytest.mark.parametrize("level,best", [(0.25, [0, 0, 0, 0]), (0.2, [1, 0, 0, 0]), (0.5, [0, 1, 2, 3])])
@pytest.mark.parametrize("mode", ["faithful", "credulous"])
def test_oracle_at_and_around_the_uniform_level(level, best, mode):
    """V = 4: a confidence of 0.25 gives four equal entries, whose argmax is
    token 0; below it the argmax is the lowest token other than the intended
    one, above it the intended token."""
    state = DiffusionState(vocab=Vocabulary(4), tokens=np.array([4, 4, 4, 4]))
    params = NoisyOracleParams(c0=level, gamma=0.0, c_max=level, mode=mode)
    denoiser, ctx = prepare([0, 1, 2, 3], params, state)
    pi = oracle_rows(state, ctx)
    assert (pi == pi[0, 0]).all() == (level == 0.25)
    rows = masked_rows(state)
    got = denoiser(state, ctx, rows, NO_HELD)
    assert got[0].tolist() == best == pi.argmax(axis=1).tolist()
    assert out_bytes(got) == out_bytes(rows_denoiser(oracle_rows)(state, ctx, rows, NO_HELD))
    held = np.array([0, 2])
    state.tokens[held] = [0, 1]  # one holds its intended token, one does not
    rows = masked_rows(state)
    expected = rows_denoiser(oracle_rows)(state, ctx, rows, held)
    assert out_bytes(denoiser(state, ctx, rows, held)) == out_bytes(expected)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bigram_tables_hold_the_query_rows(data):
    V = data.draw(st.integers(2, 6))
    model = data.draw(bigram_models(V))
    for a in range(V):
        assert model.half_next_table[a].tobytes() == (0.5 * model.next_probs(a)).tobytes()
        assert model.half_prev_table[a].tobytes() == (0.5 * model.prev_probs(a)).tobytes()
    half_unigram = (0.5 * model.unigram()).tobytes()
    assert model.half_next_table[V].tobytes() == model.half_prev_table[V].tobytes() == half_unigram


def pair_row(model, a, b):
    """The reference row of a masked position whose nearest revealed
    neighbours are a and b, the mask id V standing for none."""
    V = model.num_tokens
    state = DiffusionState(vocab=Vocabulary(V), tokens=np.array([a, V, b]))
    return markov_rows(state, model, np.array([1]))[0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pair_tables_hold_each_neighbour_pairs_argmax_and_max(data):
    V = data.draw(st.integers(2, 6))
    model = data.draw(bigram_models(V))
    pair_best, pair_conf = model.pair_tables
    assert pair_best.shape == pair_conf.shape == (V + 1, V + 1) and pair_best.dtype == np.int64
    for a in range(V + 1):
        for b in range(V + 1):
            row = pair_row(model, a, b)
            assert pair_best[a, b] == row.argmax()
            assert float_bits(pair_conf[a, b]) == float_bits(row.max())


def test_pair_tables_break_exact_ties_at_the_lowest_id():
    """MODEL3's rows are uniform, every entry of each an exact tie."""
    pair_best, pair_conf = MODEL3.pair_tables
    assert pair_best.tolist() == [[0] * 4] * 4
    for a in range(4):
        for b in range(4):
            row = pair_row(MODEL3, a, b)
            assert (row == row[0]).all() and float_bits(pair_conf[a, b]) == float_bits(row[0])


def pair_tables_built(model):
    return "pair_tables" in vars(model)


def markov_config(tmp_path, **overrides):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("0 1 2 3 0 1 2 3 0 1 2 3\n2 3 0 1 2 3 0 1\n", encoding="utf-8")
    return build_config({
        "n": 6, "vocab_size": 4, "num_runs": 5, "corpus.path": str(corpus),
        "proposer.kind": "markov", "warmstart.method": "token-injection", **overrides,
    })


def test_pair_tables_wait_for_the_markov_denoisers_first_call(tmp_path):
    """Neither `fit` nor `build_resources` builds the pair tables, a run
    whose model only proposes never does, and a model serving many runs
    builds them once."""
    assert not pair_tables_built(BigramModel.fit([[0, 1, 2, 1]], 3))
    with mock.patch.object(bigram, "_pair_tables", wraps=bigram._pair_tables) as build:
        proposer_only = markov_config(tmp_path)
        resources = build_resources(proposer_only)
        assert not pair_tables_built(resources.bigram)
        run_experiment(proposer_only, resources=resources)
        assert not pair_tables_built(resources.bigram) and build.call_count == 0
        markov = markov_config(tmp_path, **{"denoiser.kind": "markov"})
        resources = build_resources(markov)
        assert not pair_tables_built(resources.bigram)
        record = run_experiment(markov, resources=resources)
    assert sum(r.nfe for r in record.runs) > 1 and pair_tables_built(resources.bigram) and build.call_count == 1


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
MODEL3 = BigramModel(3, np.ones((3, 3)), np.full(3, 3.0))
OVERRIDDEN = DiffusionState(
    vocab=V3,
    tokens=np.array([3, 3]),
    embedding_override=EmbeddingOverride([0, 1], 0.5, EmbeddingTable(np.ones((4, 2)))),
)


@pytest.mark.parametrize(
    "args,message",
    [
        (([0, 1], {"c0": 0.4}, all_mask_init(V3, 2)), "NoisyOracleParams or a BigramModel"),
        (([[0, 1]], NoisyOracleParams(), all_mask_init(V3, 2)), "shape \\(1, 2\\)"),  # 2-d
        (([], MODEL3, all_mask_init(V3, 2)), "shape \\(0,\\)"),  # empty
        (([0, 1, 2], NoisyOracleParams(), all_mask_init(V3, 2)), "length 2"),
        (([0, -1], MODEL3, all_mask_init(V3, 2)), "outside the vocabulary"),  # negative
        (([0, 3], NoisyOracleParams(), all_mask_init(V3, 2)), "outside the vocabulary"),  # >= V
        ((1, NoisyOracleParams(eta=0.5), OVERRIDDEN), "shape \\(\\)"),  # 0-d
        (([0, 1], BigramModel(2, np.ones((2, 2)), np.full(2, 2.0)), all_mask_init(V3, 2)), "bigram model vocabulary"),
    ],
)
def test_bad_inputs_rejected_when_the_context_is_built(args, message):
    with pytest.raises(ValueError, match=message):
        prepare(*args)


def test_prepare_picks_the_denoiser_from_the_params_type():
    """A BigramModel is the markov denoiser's whole context; oracle params
    give the oracle a context holding the target and its levels."""
    denoiser, ctx = prepare([0, 1], MODEL3, all_mask_init(V3, 2))
    assert denoiser is markov_logits and ctx is MODEL3
    params = NoisyOracleParams()
    denoiser, ctx = prepare([0, 1], params, all_mask_init(V3, 2))
    assert denoiser is noisy_oracle_logits and type(ctx) is DenoiseContext
    assert ctx.params is params and ctx.target.dtype == np.int64 and ctx.target.tolist() == [0, 1]
    assert ctx.levels.tolist() == [0.4, 0.7, 0.99]


def test_override_without_a_prepared_bonus_raises():
    """A context built from a state without an override cannot silently
    drop the bonus of a state with one."""
    denoiser, ctx = prepare([0, 1], NoisyOracleParams(eta=0.5), all_mask_init(V3, 2))
    assert ctx.bonus is None
    with pytest.raises(ValueError):
        denoiser(OVERRIDDEN, ctx, masked_rows(OVERRIDDEN), NO_HELD)


@pytest.mark.parametrize("mode", ["faithful", "credulous"])
def test_context_with_a_bonus_but_no_tables_matches_the_reference_rows(mode):
    """A context given the bonus column without the tables that `prepare`
    builds within the budget gets the bonus rows computed per call: bit for
    bit the reference rows, and so the tables' answer."""
    state, target = tie_problem()
    denoiser, ctx = prepare(target, NoisyOracleParams(eta=0.5, mode=mode), state)
    assert ctx.bonus_conf is not None
    by_hand = DenoiseContext(target=ctx.target, params=ctx.params, levels=ctx.levels, bonus=ctx.bonus)
    for reveal in ([], [1, 2]):
        state.tokens[reveal] = [1, 3][: len(reveal)]  # one correct reveal, one wrong one
        rows, held = masked_rows(state), np.array(reveal, dtype=np.int64)
        expected = out_bytes(rows_denoiser(oracle_rows)(state, ctx, rows, held))
        assert out_bytes(noisy_oracle_logits(state, by_hand, rows, held)) == expected
        assert out_bytes(denoiser(state, ctx, rows, held)) == expected
