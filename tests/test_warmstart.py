import numpy as np
import pytest

from warmdiff.core import DeterministicRng, EmbeddingTable, Vocabulary, all_mask_init
from warmdiff.warmstart import WarmStartConfig, inject_tokens, interpolate_embeddings, warm_init

from reference_rows import override_vectors


def make_proposal(tokens):
    return np.asarray(tokens, dtype=np.int64)


class TestInjectTokens:
    def test_zero_rate_is_all_mask(self):
        v = Vocabulary(4)
        state = inject_tokens(v, make_proposal([0, 1, 2, 3]), 0.0, DeterministicRng(1))
        assert int(state.masked().sum()) == 4
        assert state.injected.tolist() == []

    def test_unit_rate_copies_proposal(self):
        v = Vocabulary(4)
        prop = make_proposal([0, 1, 2, 3])
        state = inject_tokens(v, prop, 1.0, DeterministicRng(1))
        assert state.tokens.tolist() == [0, 1, 2, 3]
        assert state.injected.tolist() == [0, 1, 2, 3]

    def test_injected_positions_hold_proposal_tokens(self):
        v = Vocabulary(6)
        rng = DeterministicRng(2)
        prop = make_proposal([int(rng.draw("p", i, 0) * 6) for i in range(100)])
        state = inject_tokens(v, prop, 0.4, DeterministicRng(3))
        for i in range(100):
            if i in state.injected:
                assert state.tokens[i] == prop[i]
            else:
                assert state.tokens[i] == v.mask_id

    def test_quarter_rate_concentration(self):
        v = Vocabulary(4)
        prop = make_proposal(np.zeros(10_000, dtype=np.int64))
        state = inject_tokens(v, prop, 0.25, DeterministicRng(4))
        assert 0.237 <= len(state.injected) / 10_000 <= 0.263


class TestInterpolateEmbeddings:
    """`interpolate_embeddings` gives ids; the input vectors they stand for
    are built from them by the one-pass reference (`override_vectors`)."""

    def setup_method(self):
        self.v = Vocabulary(4)
        self.table = EmbeddingTable.random(self.v, 5, DeterministicRng(8))
        self.prop = make_proposal([0, 1, 2, 3, 0, 2])

    def test_alpha_zero_bitwise_mask_everywhere(self):
        override = interpolate_embeddings(self.prop, self.table, 0.0, 0.7, DeterministicRng(9))
        assert (override.ids == -1).any() and (override.ids >= 0).any()
        expected = np.tile(self.table.mask_vector(), (6, 1))
        assert override_vectors(override).tobytes() == expected.tobytes()

    def test_alpha_one_keep_all_copies_embeddings(self):
        override = interpolate_embeddings(self.prop, self.table, 1.0, 1.0, DeterministicRng(9))
        assert override.ids.tolist() == self.prop.tolist()
        expected = self.table.rows[self.prop]
        assert override_vectors(override).tobytes() == expected.tobytes()

    def test_direct_arithmetic(self):
        table = EmbeddingTable(rows=np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]))
        prop = make_proposal([0])
        override = interpolate_embeddings(prop, table, 0.6, 1.0, DeterministicRng(0))
        assert override.ids.dtype == np.int64 and override.ids.tolist() == [0]
        assert override.alpha == 0.6 and override.table is table
        assert override_vectors(override)[0].tolist() == [0.6, 1.2]

    def test_convexity(self):
        override = interpolate_embeddings(self.prop, self.table, 0.37, 0.5, DeterministicRng(10))
        assert set(override.ids.tolist()) <= {-1, *self.prop.tolist()}
        out = override_vectors(override)
        mask_vec = self.table.mask_vector()
        for i in range(6):
            lo = np.minimum(mask_vec, self.table.rows[self.prop[i]])
            hi = np.maximum(mask_vec, self.table.rows[self.prop[i]])
            assert (out[i] >= lo - 1e-12).all()
            assert (out[i] <= hi + 1e-12).all()

    def test_proposal_outside_table_rejected(self):
        small = EmbeddingTable(rows=np.zeros((3, 2)))  # V = 2
        for tokens in ([2], [0, -1]):  # index -1 would silently read the mask row
            with pytest.raises(ValueError, match="proposal"):
                interpolate_embeddings(make_proposal(tokens), small, 0.5, 1.0, DeterministicRng(0))

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            interpolate_embeddings(self.prop, self.table, alpha, 0.5, DeterministicRng(0))


class TestWarmInit:
    def setup_method(self):
        self.v = Vocabulary(4)
        self.table = EmbeddingTable.random(self.v, 3, DeterministicRng(20))
        self.prop = make_proposal([1, 2, 3, 0, 1])

    def test_method_none_is_all_mask(self):
        cfg = WarmStartConfig(method="none")
        state = warm_init(self.v, self.prop, self.table, cfg, DeterministicRng(21))
        ref = all_mask_init(self.v, 5)
        assert state.tokens.tolist() == ref.tokens.tolist()
        assert state.injected.tolist() == []
        assert state.embedding_override is None

    def test_token_injection_full_rate(self):
        cfg = WarmStartConfig(method="token-injection", rho=1.0)
        state = warm_init(self.v, self.prop, self.table, cfg, DeterministicRng(21))
        assert state.tokens.tolist() == self.prop.tolist()
        assert state.injected.tolist() == list(range(5))

    def test_zero_rate_injection_matches_all_mask(self):
        cfg = WarmStartConfig(method="token-injection", rho=0.0)
        state = warm_init(self.v, self.prop, self.table, cfg, DeterministicRng(21))
        ref = all_mask_init(self.v, 5)
        assert state.tokens.tolist() == ref.tokens.tolist()
        assert state.injected.tolist() == ref.injected.tolist()
        assert state.embedding_override is None

    def test_interpolation_keeps_discrete_state_masked(self):
        cfg = WarmStartConfig(method="embedding-interpolation", rho=0.5, alpha=0.6)
        state = warm_init(self.v, self.prop, self.table, cfg, DeterministicRng(22))
        assert int(state.masked().sum()) == 5
        assert state.injected.tolist() == []
        override = state.embedding_override
        assert override is not None
        assert override.ids.shape == (5,) and override.alpha == 0.6 and override.table is self.table

    def test_interpolation_without_table_rejected(self):
        cfg = WarmStartConfig(method="embedding-interpolation")
        with pytest.raises(ValueError):
            warm_init(self.v, self.prop, None, cfg, DeterministicRng(22))

    def test_table_vocab_mismatch_rejected(self):
        cfg = WarmStartConfig(method="embedding-interpolation")
        other = EmbeddingTable.random(Vocabulary(7), 3, DeterministicRng(1))
        with pytest.raises(ValueError):
            warm_init(self.v, self.prop, other, cfg, DeterministicRng(22))


@pytest.mark.parametrize(
    "kw",
    [
        {"method": "teleport"},
        {"rho": -0.1},
        {"rho": 1.5},
        {"alpha": 2.0},
    ],
)
def test_bad_config_rejected(kw):
    with pytest.raises(ValueError):
        WarmStartConfig(**kw)
