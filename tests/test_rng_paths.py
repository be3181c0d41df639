"""Every `DeterministicRng.draws` caller against the per-position `draw` loop
it replaced, byte for byte: the uniform target, the corrupted-oracle
proposer, token injection, embedding interpolation and remasking. Gate
thresholds are also drawn equal to a draw, so the strict `<` is exercised."""

import numpy as np
from hypothesis import given, settings, strategies as st

from warmdiff.core import DeterministicRng, EmbeddingTable, Vocabulary
from warmdiff.decoder import apply_remask
from warmdiff.harness import _make_target, build_config
from warmdiff.proposal import propose_corrupted
from warmdiff.warmstart import inject_tokens, interpolate_embeddings

from reference_rows import override_vectors


def loop_corrupted(V, target, epsilon, rng):
    tokens = target.copy()
    for i in range(len(target)):
        if rng.draw("proposal-corrupt", i, 0) < epsilon:
            pick = int(rng.draw("proposal-corrupt-choice", i, 0) * (V - 1))
            if pick >= target[i]:
                pick += 1
            tokens[i] = pick
    return tokens


def loop_inject(vocab, proposal, rho, rng):
    tokens = np.full(len(proposal), vocab.mask_id, dtype=np.int64)
    injected = set()
    for i in range(len(proposal)):
        if rng.draw("inject-gate", i, 0) < rho:
            tokens[i] = proposal[i]
            injected.add(i)
    return tokens, injected


def loop_interpolate(proposal, table, alpha, rho, rng):
    """The input vectors the kept proposal ids stand for; dropped positions
    keep the mask vector."""
    mask_vec = table.mask_vector()
    out = np.tile(mask_vec, (len(proposal), 1))
    for i in range(len(proposal)):
        if rng.draw("embed-drop", i, 0) < rho:
            out[i] = (1.0 - alpha) * mask_vec + alpha * table.rows[proposal[i]]
    return out


def loop_remask(tokens, mask_id, positions, rates, rng, k):
    remasked = []
    for pos, rate in zip(positions, rates):
        if rng.draw("remask", pos, k) < rate:
            tokens[pos] = mask_id
            remasked.append((pos, float(rate)))
    return remasked


def rate(data, draws):
    """A probability, sometimes exactly one of the `draws` it is compared to."""
    return data.draw(st.one_of(st.sampled_from([0.0, 1.0, *draws]), st.floats(0.0, 1.0)))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(2, 9), st.integers(1, 24), st.integers(0, 2**64 - 1))
def test_draws_callers_match_their_loops(data, V, n, seed):
    rng = DeterministicRng(seed)
    vocab = Vocabulary(V)
    target = _make_target(build_config({"n": n, "vocab_size": V}), None, rng)
    assert target.tobytes() == np.array([int(rng.draw("target", i, 0) * V) for i in range(n)]).tobytes()

    epsilon = rate(data, rng.draws("proposal-corrupt", range(n), 0).tolist())
    proposal = propose_corrupted(vocab, target, epsilon, rng)
    assert proposal.tobytes() == loop_corrupted(V, target, epsilon, rng).tobytes()

    rho = rate(data, rng.draws("inject-gate", range(n), 0).tolist())
    state = inject_tokens(vocab, proposal, rho, rng)
    tokens, injected = loop_inject(vocab, proposal, rho, rng)
    assert (state.tokens.tobytes(), state.injected.tolist()) == (tokens.tobytes(), sorted(injected))

    table = EmbeddingTable.random(vocab, data.draw(st.integers(1, 4)), rng)
    alpha, rho = data.draw(st.floats(0.0, 1.0)), rate(data, rng.draws("embed-drop", range(n), 0).tolist())
    expected = loop_interpolate(proposal, table, alpha, rho, rng)
    override = interpolate_embeddings(proposal, table, alpha, rho, rng)
    assert override_vectors(override).tobytes() == expected.tobytes()

    k = data.draw(st.integers(1, 5))
    positions = state.injected.tolist()
    rates = np.array([rate(data, [rng.draw("remask", p, k)]) for p in positions], dtype=np.float64)
    tokens = state.tokens.copy()
    expected = loop_remask(tokens, vocab.mask_id, positions, rates, rng, k)
    remasked, hit_rates = apply_remask(state, rates, rng, k)
    assert list(zip(remasked.tolist(), hit_rates.tolist())) == expected
    assert state.tokens.tobytes() == tokens.tobytes()
    assert state.injected.tolist() == [p for p in positions if p not in dict(expected)]
