from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmdiff.bigram import BigramModel, load_corpus


def loop_fit_counts(sequences, num_tokens):
    """The per-token counting loop `fit` replaced."""
    counts = np.zeros((num_tokens, num_tokens), dtype=np.float64)
    token_counts = np.zeros(num_tokens, dtype=np.float64)
    for seq in sequences:
        for tok in seq:
            token_counts[tok] += 1
        for a, b in zip(seq, seq[1:]):
            counts[a, b] += 1
    return counts, token_counts


def test_fit_counts_match_independent_counter():
    seqs = [[0, 1, 0, 1, 0, 1, 0, 1], [2, 0, 1]]
    model = BigramModel.fit(seqs, 3)
    pairs = Counter()
    occurrences = Counter()
    for s in seqs:
        occurrences.update(s)
        pairs.update(zip(s, s[1:]))
    for a in range(3):
        for b in range(3):
            assert model.counts[a, b] == pairs[(a, b)]
        assert model.token_counts[a] == occurrences[a]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fit_counts_match_the_counting_loop(data):
    V = data.draw(st.integers(2, 9))
    seqs = data.draw(st.lists(st.lists(st.integers(0, V - 1), max_size=12), max_size=6))
    if not any(seqs):
        seqs.append([data.draw(st.integers(0, V - 1))])
    model = BigramModel.fit(seqs, V)
    counts, token_counts = loop_fit_counts(seqs, V)
    assert model.counts.tobytes() == counts.tobytes()
    assert model.token_counts.tobytes() == token_counts.tobytes()


def test_smoothed_next_probs_match_hand_formula():
    model = BigramModel.fit([[0, 1, 0, 1, 0, 1, 0, 1]], 2)
    # transitions: 0->1 four times, 1->0 three times
    assert np.allclose(model.next_probs(0), [(0 + 1) / (4 + 2), (4 + 1) / (4 + 2)])
    assert np.allclose(model.prev_probs(0), [(0 + 1) / (3 + 2), (3 + 1) / (3 + 2)])
    assert np.allclose(model.unigram(), [(4 + 1) / (8 + 2), (4 + 1) / (8 + 2)])


def test_unfitted_model_rejected():
    with pytest.raises(ValueError):
        BigramModel.fit([], 3)
    with pytest.raises(ValueError):
        BigramModel(3, np.zeros((3, 3)), np.zeros(3))


def test_out_of_range_corpus_token_rejected():
    with pytest.raises(ValueError):
        BigramModel.fit([[0, 5]], 3)


@pytest.mark.parametrize(
    "seqs, first",
    [([[0, 1], [2, -1, 7]], -1), ([[], [1, 3], [4]], 3), ([[0, 10**30, -1]], 10**30)],
)
def test_out_of_range_message_names_the_first_offending_token(seqs, first):
    """In corpus order, even a token beyond 64-bit range."""
    with pytest.raises(ValueError, match=rf"^corpus token {first} outside \[0, 3\)$"):
        BigramModel.fit(seqs, 3)


def test_distributions_are_normalized():
    model = BigramModel.fit([[0, 2, 1, 1, 0]], 3)
    for a in range(3):
        assert abs(model.next_probs(a).sum() - 1.0) < 1e-12
        assert abs(model.prev_probs(a).sum() - 1.0) < 1e-12
    assert abs(model.unigram().sum() - 1.0) < 1e-12


def test_load_corpus_roundtrip(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("0 1 2\n\n3 4\n", encoding="utf-8")
    assert load_corpus(str(path)) == [[0, 1, 2], [3, 4]]


def test_load_corpus_rejects_garbage(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("0 one 2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_corpus(str(path))


def test_load_corpus_rejects_empty(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_corpus(str(path))
