import hashlib
import subprocess
import sys

import numpy as np
import pytest

from warmdiff.core import (
    DeterministicRng,
    DiffusionState,
    EmbeddingTable,
    Vocabulary,
    all_mask_init,
    softmax,
)


def test_vocabulary_mask_is_one_past_real_tokens():
    v = Vocabulary(5)
    assert v.mask_id == 5


def test_vocabulary_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        Vocabulary(1)


class TestAllMaskInit:
    def test_everything_masked_nothing_injected(self):
        v = Vocabulary(4)
        state = all_mask_init(v, 4)
        assert state.tokens.tolist() == [4, 4, 4, 4]
        assert state.injected == set()
        assert state.embedding_override is None
        assert state.masked_count() == 4

    def test_smallest_legal_state(self):
        state = all_mask_init(Vocabulary(2), 1)
        assert state.tokens.tolist() == [2]

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            all_mask_init(Vocabulary(4), 0)


class TestDiffusionState:
    def test_rejects_out_of_range_token(self):
        with pytest.raises(ValueError):
            DiffusionState(vocab=Vocabulary(3), tokens=np.array([0, 7]))

    def test_rejects_injected_position_out_of_range(self):
        with pytest.raises(ValueError):
            DiffusionState(vocab=Vocabulary(3), tokens=np.array([0, 1]), injected={5})

    def test_rejects_injected_mask(self):
        with pytest.raises(ValueError):
            DiffusionState(vocab=Vocabulary(3), tokens=np.array([3, 1]), injected={0})

    def test_rejects_override_length_mismatch(self):
        with pytest.raises(ValueError):
            DiffusionState(
                vocab=Vocabulary(3),
                tokens=np.array([0, 1]),
                embedding_override=np.zeros((3, 2)),
            )

    def test_copy_is_independent(self):
        v = Vocabulary(3)
        state = DiffusionState(vocab=v, tokens=np.array([0, 3]), injected={0})
        clone = state.copy()
        clone.tokens[1] = 1
        clone.injected.add(1)
        assert state.tokens[1] == 3
        assert state.injected == {0}


class TestEmbedLookup:
    """The table that embedding lookups read rows from."""

    def test_table_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EmbeddingTable(rows=np.array([[1.0, np.inf], [0.0, 1.0], [0.5, 0.5]]))


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax(np.zeros(4)), 0.25, atol=1e-12)

    def test_closed_form_two_logits(self):
        out = softmax(np.array([0.0, np.log(2.0)]))
        assert abs(out[0] - 1.0 / 3.0) < 1e-9
        assert abs(out[1] - 2.0 / 3.0) < 1e-9

    def test_shift_invariance(self):
        base = np.array([0.3, -1.2, 2.0, 0.0])
        for c in (-50.0, 1e3, 123.456):
            shifted = softmax(base + c)
            ref = softmax(base)
            assert np.all(np.abs(shifted - ref) <= 1e-12 * np.maximum(ref, 1e-300))

    def test_large_logits_do_not_overflow(self):
        out = softmax(np.array([1e4, 1e4 - 1.0]))
        assert np.isfinite(out).all()
        assert abs(out.sum() - 1.0) < 1e-9

    def test_rowwise_on_matrices(self):
        out = softmax(np.arange(12, dtype=float).reshape(3, 4))
        assert out.shape == (3, 4)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            softmax(np.array([0.0, np.inf]))


def _grid_digest(seed):
    rng = DeterministicRng(seed)
    h = hashlib.sha256()
    for purpose in ("a", "b"):
        for pos in range(100):
            for it in range(50):
                h.update(repr(rng.draw(purpose, pos, it)).encode())
    return h.hexdigest()


class TestDeterministicRng:
    def test_draws_in_unit_interval(self):
        rng = DeterministicRng(3)
        for i in range(100):
            u = rng.draw("x", i, 0)
            assert 0.0 <= u < 1.0

    def test_identical_inputs_identical_outputs(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert a.draw("p", 7, 3) == b.draw("p", 7, 3)

    def test_purposes_are_distinct_streams(self):
        rng = DeterministicRng(42)
        xs = [rng.draw("one", i, 0) for i in range(50)]
        ys = [rng.draw("two", i, 0) for i in range(50)]
        assert xs != ys

    def test_draw_is_keyed_blake2b_of_its_address(self):
        for seed in (0, 7, -17, 2**64 + 5):
            rng = DeterministicRng(seed)
            key = (seed & (2**64 - 1)).to_bytes(8, "little")
            for purpose, pos, it in [("remask", 0, 1), ("embed-table", 64, 255), ("x", -3, 2**40)]:
                msg = purpose.encode() + pos.to_bytes(8, "little", signed=True) + it.to_bytes(8, "little", signed=True)
                digest = hashlib.blake2b(msg, digest_size=8, key=key).digest()
                assert rng.draw(purpose, pos, it) == int.from_bytes(digest, "little") / 2.0**64

    def test_negative_seed_accepted(self):
        rng = DeterministicRng(-17)
        assert 0.0 <= rng.draw("p", 0, 0) < 1.0

    def test_mean_of_draws(self):
        rng = DeterministicRng(12345)
        mean = np.mean([rng.draw("mean-test", i, 0) for i in range(100_000)])
        assert 0.497 <= mean <= 0.503

    def test_bit_identical_across_processes(self):
        here = _grid_digest(2024)
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]);"
            "from test_core import _grid_digest; print(_grid_digest(2024))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(__import__("pathlib").Path(__file__).parent)],
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.strip() == here


def test_random_embedding_table_is_seed_deterministic():
    v = Vocabulary(6)
    t1 = EmbeddingTable.random(v, 4, DeterministicRng(9))
    t2 = EmbeddingTable.random(v, 4, DeterministicRng(9))
    t3 = EmbeddingTable.random(v, 4, DeterministicRng(10))
    assert t1.rows.tobytes() == t2.rows.tobytes()
    assert t1.rows.tobytes() != t3.rows.tobytes()
    assert t1.rows.shape == (7, 4)
    assert np.all(np.abs(t1.rows) <= 1.0)
