import numpy as np
import pytest

from reference_rng import record_draws
from warmdiff.bigram import BigramModel
from warmdiff.core import DeterministicRng, Vocabulary
from warmdiff.proposal import propose_corrupted, propose_markov


class TestCorruptedOracle:
    def test_zero_rate_is_identity(self):
        v = Vocabulary(6)
        target = np.array([0, 5, 3, 2])
        prop = propose_corrupted(v, target, 0.0, DeterministicRng(1))
        assert prop.tolist() == target.tolist()

    def test_unit_rate_binary_vocab_flips_everything(self):
        v = Vocabulary(2)
        target = np.array([0, 1, 1, 0, 1])
        prop = propose_corrupted(v, target, 1.0, DeterministicRng(1))
        assert prop.tolist() == (1 - target).tolist()

    def test_half_rate_hamming_concentration(self):
        v = Vocabulary(8)
        rng = DeterministicRng(77)
        target = np.array([int(rng.draw("t", i, 0) * 8) for i in range(10_000)])
        prop = propose_corrupted(v, target, 0.5, DeterministicRng(78))
        hamming = sum(int(a != b) for a, b in zip(prop, target))
        assert 0.47 <= hamming / 10_000 <= 0.53

    def test_substitutions_never_reproduce_target(self):
        v = Vocabulary(5)
        target = np.array([3] * 200)
        prop = propose_corrupted(v, target, 1.0, DeterministicRng(3))
        assert (prop != 3).all()
        assert ((prop >= 0) & (prop < 5)).all()

    def test_lowering_epsilon_only_removes_corruptions(self):
        v = Vocabulary(6)
        rng_t = DeterministicRng(9)
        target = np.array([int(rng_t.draw("t", i, 0) * 6) for i in range(500)])
        hi = propose_corrupted(v, target, 0.5, DeterministicRng(10))
        lo = propose_corrupted(v, target, 0.25, DeterministicRng(10))
        corrupted_hi = set(np.flatnonzero(hi != target))
        corrupted_lo = set(np.flatnonzero(lo != target))
        assert corrupted_lo <= corrupted_hi

    def test_replacement_drawn_only_at_corrupted_positions(self, monkeypatch):
        seen = record_draws(monkeypatch)
        target = np.arange(200) % 6
        prop = propose_corrupted(Vocabulary(6), target, 0.3, DeterministicRng(5))
        assert sorted(p for purpose, p, _ in seen if purpose == "proposal-corrupt") == list(range(200))
        choices = [p for purpose, p, _ in seen if purpose == "proposal-corrupt-choice"]
        assert choices == np.flatnonzero(prop != target).tolist()

    def test_bad_epsilon_rejected(self):
        v = Vocabulary(4)
        with pytest.raises(ValueError):
            propose_corrupted(v, np.array([0]), 1.5, DeterministicRng(0))

    def test_target_outside_vocab_rejected(self):
        v = Vocabulary(4)
        with pytest.raises(ValueError):
            propose_corrupted(v, np.array([4]), 0.1, DeterministicRng(0))


def chain_model(num_tokens=4, weight=1e9):
    counts = np.zeros((num_tokens, num_tokens))
    for a in range(num_tokens):
        counts[a, (a + 1) % num_tokens] = weight
    return BigramModel(num_tokens, counts, np.full(num_tokens, weight))


class TestMarkovProposer:
    def test_reproduces_deterministic_chain(self):
        model = chain_model()
        prop = propose_markov(model, 12, DeterministicRng(4))
        start = int(prop[0])
        expected = [(start + j) % 4 for j in range(12)]
        assert prop.tolist() == expected

    def test_single_token_proposal(self):
        prop = propose_markov(chain_model(), 1, DeterministicRng(4))
        assert prop.shape == (1,) and prop.dtype == np.int64

    def test_same_seed_same_proposal(self):
        model = BigramModel.fit([[0, 1, 2, 0, 2, 1]], 3)
        a = propose_markov(model, 20, DeterministicRng(11))
        b = propose_markov(model, 20, DeterministicRng(11))
        assert a.tolist() == b.tolist()

    def test_no_mask_ids_emitted(self):
        model = BigramModel.fit([[0, 1, 2, 0, 2, 1]], 3)
        prop = propose_markov(model, 200, DeterministicRng(12))
        assert ((prop >= 0) & (prop < 3)).all()

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            propose_markov(chain_model(), 0, DeterministicRng(0))
