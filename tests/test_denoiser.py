from collections import Counter

import numpy as np
import pytest

from warmdiff.bigram import BigramModel
from warmdiff.core import DeterministicRng, DiffusionState, EmbeddingOverride, EmbeddingTable, Vocabulary, all_mask_init
from warmdiff.denoiser import NoisyOracleParams, noisy_oracle_logits, prepare

from reference_rows import NO_HELD, markov_rows, masked_rows, oracle_rows, out_bytes


def oracle_ctx(target, state, **kw):
    return prepare(target, NoisyOracleParams(**kw), state)[1]


def markov_ctx(target, state, model):
    return prepare(target, model, state)[1]


class TestContracts:
    def test_output_shape_is_n_by_v(self):
        v = Vocabulary(5)
        state = all_mask_init(v, 3)
        ctx = oracle_ctx([0, 1, 2], state)
        best, conf, held = noisy_oracle_logits(state, ctx, masked_rows(state), NO_HELD)
        assert best.shape == conf.shape == (3,) and held.shape == (0,)
        assert best.dtype == np.int64 and conf.dtype == held.dtype == np.float64
        assert oracle_rows(state, ctx).shape == (3, 5)

    def test_two_identical_calls_bit_identical(self):
        v = Vocabulary(4)
        state = DiffusionState(vocab=v, tokens=np.array([0, 4, 2]))
        ctx = oracle_ctx([0, 1, 2], state, mode="credulous")
        a = noisy_oracle_logits(state, ctx, masked_rows(state), np.array([0, 2]))
        b = noisy_oracle_logits(state, ctx, masked_rows(state), np.array([0, 2]))
        assert out_bytes(a) == out_bytes(b)

    def test_fully_masked_state_still_yields_full_matrix(self):
        v = Vocabulary(3)
        state = all_mask_init(v, 4)
        ctx = oracle_ctx([0, 1, 2, 0], state)
        best, conf, _ = noisy_oracle_logits(state, ctx, masked_rows(state), NO_HELD)
        assert best.shape == conf.shape == (4,)
        assert np.isfinite(conf).all()
        out = oracle_rows(state, ctx)
        assert out.shape == (4, 3)
        assert np.isfinite(out).all()

    def test_length_mismatch_rejected(self):
        v = Vocabulary(3)
        with pytest.raises(ValueError):
            prepare([0, 1, 2], NoisyOracleParams(), all_mask_init(v, 4))

    def test_target_outside_vocab_rejected(self):
        v = Vocabulary(3)
        with pytest.raises(ValueError):
            prepare([0, 3], NoisyOracleParams(), all_mask_init(v, 2))


class TestNoisyOracle:
    def test_perfect_oracle_limit(self):
        v = Vocabulary(6)
        target = np.array([3, 1, 4, 1, 5])
        state = all_mask_init(v, 5)
        pi = oracle_rows(state, oracle_ctx(target, state, c0=1.0, c_max=1.0))
        assert (pi.argmax(axis=1) == target).all()
        assert np.allclose(pi[np.arange(5), target], 1.0, atol=1e-9)

    def test_fully_masked_base_confidence(self):
        # f = 0, V = 5: target gets c0, others split the rest evenly.
        v = Vocabulary(5)
        target = np.array([1, 2, 3, 0])
        state = all_mask_init(v, 4)
        pi = oracle_rows(state, oracle_ctx(target, state, c0=0.4, gamma=0.6))
        for i in range(4):
            assert abs(pi[i, target[i]] - 0.4) < 1e-12
            others = np.delete(pi[i], target[i])
            assert np.allclose(others, 0.15, atol=1e-12)

    def test_numpy_scalar_params_give_the_same_levels(self):
        # A sweep may build params from np.linspace; numpy 2 reprs its
        # scalars as "np.float64(0.4)", which is no decimal literal.
        v = Vocabulary(7)
        target = np.array([1, 2, 3, 0, 6, 5])
        state = all_mask_init(v, 6)
        # Scalars first: levels are cached per parameter set, and equal keys
        # would hand back the float-built table.
        scalars = oracle_ctx(target, state, c0=np.float64(0.35), gamma=np.linspace(0, 0.55, 3)[2], c_max=np.float64(0.97))
        floats = oracle_ctx(target, state, c0=0.35, gamma=0.55, c_max=0.97)
        ints = oracle_ctx(target, state, c0=0, gamma=1, c_max=1)
        assert floats.levels.tobytes() == scalars.levels.tobytes()
        assert ints.levels.tolist() == [r / 6 for r in range(7)]
        rows = masked_rows(state)
        assert out_bytes(noisy_oracle_logits(state, floats, rows, NO_HELD)) == out_bytes(
            noisy_oracle_logits(state, scalars, rows, NO_HELD)
        )
        assert oracle_rows(state, floats).tobytes() == oracle_rows(state, scalars).tobytes()

    def test_confidence_grows_with_correct_reveals(self):
        v = Vocabulary(5)
        target = np.array([0, 1, 2, 3])
        ctx = oracle_ctx(target, all_mask_init(v, 4), c0=0.3, gamma=0.5, c_max=0.95)
        confs = []
        for revealed in range(4):
            tokens = np.full(4, v.mask_id)
            tokens[:revealed] = target[:revealed]
            pi = oracle_rows(DiffusionState(vocab=v, tokens=tokens), ctx)
            confs.append(pi[3, target[3]])
        assert all(a <= b + 1e-12 for a, b in zip(confs, confs[1:]))

    def test_faithful_ignores_wrong_reveals(self):
        v = Vocabulary(5)
        target = np.array([0, 1, 2, 3])
        wrong = DiffusionState(vocab=v, tokens=np.array([4, 4, 5, 5]))  # two wrong reveals
        pi = oracle_rows(wrong, oracle_ctx(target, wrong, c0=0.3, gamma=0.5))
        assert abs(pi[2, target[2]] - 0.3) < 1e-12  # f counts correct reveals only

    def test_credulous_counts_any_reveal(self):
        v = Vocabulary(5)
        target = np.array([0, 1, 2, 3])
        wrong = DiffusionState(vocab=v, tokens=np.array([4, 4, 5, 5]))
        ctx = oracle_ctx(target, wrong, c0=0.3, gamma=0.5, mode="credulous", window=1)
        pi = oracle_rows(wrong, ctx)
        assert abs(pi[2, target[2]] - (0.3 + 0.5 * 0.5)) < 1e-12

    def test_credulous_majority_flips_to_distractor(self):
        # Hand-built 5-token state: positions 1..3 revealed and wrong, so the
        # width-3 window around position 2 holds 3 revealed tokens, all wrong.
        v = Vocabulary(5)
        target = np.array([0, 1, 2, 3, 4])
        state = DiffusionState(vocab=v, tokens=np.array([5, 2, 3, 4, 5]))
        pi = oracle_rows(state, oracle_ctx(target, state, mode="credulous", window=3))
        assert pi[2].argmax() == (target[2] + 1) % 5

    def test_credulous_tie_keeps_target(self):
        # One wrong of two revealed neighbors is not a strict majority.
        v = Vocabulary(5)
        target = np.array([0, 1, 2, 3, 4])
        # pos0 correct, pos2 wrong, pos1 masked between
        state = DiffusionState(vocab=v, tokens=np.array([0, 5, 3, 5, 5]))
        pi = oracle_rows(state, oracle_ctx(target, state, mode="credulous", window=3))
        assert pi[1].argmax() == target[1]

    def test_credulous_no_reveals_keeps_target(self):
        v = Vocabulary(4)
        target = np.array([0, 1, 2])
        state = all_mask_init(v, 3)
        pi = oracle_rows(state, oracle_ctx(target, state, mode="credulous", window=3, c0=0.5))
        assert (pi.argmax(axis=1) == target).all()

    def test_rows_are_distributions(self):
        v = Vocabulary(7)
        target = np.array([0, 1, 2, 3, 4, 5])
        state = DiffusionState(vocab=v, tokens=np.array([0, 7, 2, 7, 1, 7]))
        pi = oracle_rows(state, oracle_ctx(target, state, c0=0.2, gamma=0.9, mode="credulous"))
        assert np.allclose(pi.sum(axis=1), 1.0, atol=1e-12)


class TestEmbeddingBonus:
    def setup_method(self):
        self.v = Vocabulary(4)
        self.table = EmbeddingTable.random(self.v, 6, DeterministicRng(5))
        self.target = np.array([0, 1, 2, 3])

    def state_with_override(self, alpha, table=None):
        """Every position's input blends the mask with its target's row."""
        override = EmbeddingOverride(self.target, alpha, self.table if table is None else table)
        return DiffusionState(vocab=self.v, tokens=np.full(4, self.v.mask_id), embedding_override=override)

    def probs(self, state, **kw):
        _, ctx = prepare(self.target, NoisyOracleParams(**kw), state)
        return oracle_rows(state, ctx)

    def test_alpha_zero_is_exactly_neutral(self):
        with_override = self.probs(self.state_with_override(0.0), c0=0.4, eta=0.8)
        without = self.probs(all_mask_init(self.v, 4), c0=0.4, eta=0.8)
        assert with_override.tobytes() == without.tobytes()

    def test_full_override_raises_masked_confidence(self):
        pi_warm = self.probs(self.state_with_override(1.0), c0=0.4, eta=0.5, c_max=0.99)
        pi_cold = self.probs(self.state_with_override(0.0), c0=0.4, eta=0.5, c_max=0.99)
        warm = pi_warm[np.arange(4), self.target]
        cold = pi_cold[np.arange(4), self.target]
        assert (warm >= cold - 1e-12).all()
        assert (warm > cold).any()

    def test_bonus_skips_fixed_positions(self):
        state = self.state_with_override(1.0)
        state.tokens[0] = self.target[0]
        pi = self.probs(state, c0=0.4, gamma=0.0, eta=0.5)
        assert abs(pi[0, self.target[0]] - 0.4) < 1e-12

    def test_missing_table_rejected(self):
        """The override carries its table, so one without is rejected when
        it is built, before any state or context."""
        with pytest.raises(ValueError, match="EmbeddingTable"):
            EmbeddingOverride(self.target, 1.0, None)

    def test_zero_vectors_stay_finite(self):
        """A zero table: every blend, and the mask, is the zero vector."""
        state = self.state_with_override(0.6, table=EmbeddingTable(rows=np.zeros((5, 3))))
        out = self.probs(state, eta=0.9)
        assert np.isfinite(out).all()
        denoiser, ctx = prepare(self.target, NoisyOracleParams(eta=0.9), state)
        assert np.isfinite(denoiser(state, ctx, masked_rows(state), NO_HELD)[1]).all()


class TestParamValidation:
    def test_perfect_confidence_allows_equal_ceiling(self):
        NoisyOracleParams(c0=1.0, c_max=1.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"c0": -0.1},
            {"c0": 1.1},
            {"gamma": -1.0},
            {"eta": -0.5},
            {"c0": 0.8, "c_max": 0.5},
            {"c_max": 1.5},
            {"mode": "sideways"},
            {"window": 2},
            {"window": 0},
        ],
    )
    def test_bad_params_rejected(self, kw):
        with pytest.raises(ValueError):
            NoisyOracleParams(**kw)


class TestMarkovLogits:
    def test_no_reveals_degenerates_to_unigram(self):
        model = BigramModel.fit([[0, 2, 1, 1, 0]], 3)
        v = Vocabulary(3)
        state = all_mask_init(v, 3)
        out = markov_rows(state, markov_ctx([0, 1, 2], state, model))
        expected = model.unigram()
        for i in range(3):
            assert np.allclose(out[i], expected, atol=1e-12)

    def test_alternating_corpus_prefers_one_after_zero(self):
        model = BigramModel.fit([[0, 1, 0, 1, 0, 1, 0, 1]], 2)
        v = Vocabulary(2)
        state = DiffusionState(vocab=v, tokens=np.array([0, 2, 2]))
        out = markov_rows(state, markov_ctx([0, 1, 0], state, model))
        assert out[1].argmax() == 1

    def test_mixture_matches_hand_computed_row(self):
        seqs = [[0, 1, 2, 0, 1, 2, 2]]
        model = BigramModel.fit(seqs, 3)
        v = Vocabulary(3)
        state = DiffusionState(vocab=v, tokens=np.array([0, 3, 2]))  # left reveal 0, right reveal 2
        out = markov_rows(state, markov_ctx([0, 1, 2], state, model))

        pairs = Counter(zip(seqs[0], seqs[0][1:]))
        fwd = np.array([pairs[(0, b)] + 1 for b in range(3)], float)
        fwd /= fwd.sum()
        bwd = np.array([pairs[(a, 2)] + 1 for a in range(3)], float)
        bwd /= bwd.sum()
        assert np.allclose(out[1], 0.5 * fwd + 0.5 * bwd, atol=1e-12)

    def test_uniform_corpus_gives_uniform_rows(self):
        seq = []
        for a in range(3):
            for b in range(3):
                seq += [a, b]
        # Laplace smoothing keeps symmetric counts symmetric.
        counts = np.full((3, 3), 10.0)
        model = BigramModel(3, counts, token_counts=np.full(3, 30.0))
        v = Vocabulary(3)
        state = DiffusionState(vocab=v, tokens=np.array([1, 3, 3]))
        out = markov_rows(state, markov_ctx([0, 1, 2], state, model))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-9)

    def test_rows_are_distributions(self):
        model = BigramModel.fit([[0, 1, 3, 2, 0, 1]], 4)
        v = Vocabulary(4)
        state = DiffusionState(vocab=v, tokens=np.array([4, 1, 4, 2, 4]))
        out = markov_rows(state, markov_ctx([0, 1, 2, 3, 0], state, model))
        assert (out > 0).all()
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_vocab_mismatch_rejected(self):
        model = BigramModel.fit([[0, 1]], 2)
        v = Vocabulary(3)
        with pytest.raises(ValueError):
            prepare([0, 1], model, all_mask_init(v, 2))

    def test_non_model_params_rejected(self):
        """Params of neither denoiser's type pick no denoiser."""
        v = Vocabulary(3)
        with pytest.raises(ValueError, match="NoisyOracleParams or a BigramModel"):
            prepare([0, 1], "markov", all_mask_init(v, 2))
