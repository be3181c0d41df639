import hashlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_rng import record_draws, reference_draw, reference_run_key
from warmdiff.core import (
    DeterministicRng,
    DiffusionState,
    EmbeddingTable,
    Vocabulary,
    all_mask_init,
    run_key,
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
        assert int(state.masked().sum()) == 4

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

    @pytest.mark.parametrize(
        "injected",
        [{np.int64(2)}, {np.int32(-1)}, {-1}, {2}, {0, 7}, {2**70}, {-(2**70)}],
        ids=["numpy-int-n", "numpy-int-negative", "negative", "n", "one-of-two", "beyond-int64", "below-int64"],
    )
    def test_rejects_injected_positions_outside_the_sequence(self, injected):
        with pytest.raises(ValueError, match="out of range"):
            DiffusionState(vocab=Vocabulary(3), tokens=np.array([0, 1]), injected=injected)

    @pytest.mark.parametrize("injected", [{0}, {np.int64(0)}, {1, 0}], ids=["int", "numpy-int", "one-of-two"])
    def test_rejects_injected_position_holding_the_mask(self, injected):
        with pytest.raises(ValueError, match="holds a mask token"):
            DiffusionState(vocab=Vocabulary(3), tokens=np.array([3, 1]), injected=injected)

    @pytest.mark.parametrize("injected", [set(), {np.int64(1)}, {0, 1}])
    def test_accepts_injected_positions_holding_tokens(self, injected):
        state = DiffusionState(vocab=Vocabulary(3), tokens=np.array([0, 1]), injected=injected)
        assert state.injected == injected

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

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(-(2**70), 2**70),
        purpose=st.text(max_size=12),
        positions=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=8),
        iteration=st.integers(-(2**65), 2**65),
    )
    def test_draws_match_the_pure_int_reference(self, seed, purpose, positions, iteration):
        out = DeterministicRng(seed).draws(purpose, positions, iteration)
        assert out.tolist() == [reference_draw(seed, purpose, p, iteration) for p in positions]

    def test_known_answer_vectors(self):
        """53-bit integers 2^53 * draw, pinned so the stream cannot drift
        across platforms or numpy versions."""
        vectors = [
            ((0, "remask", 0, 1), 7762385522718467),
            ((7, "embed-table", 64, 255), 459407071761851),
            ((-17, "x", -3, 2**40), 7762383147265870),
            ((2**64 + 5, "target", 2**63 - 1, 0), 2339059534865420),
            ((-(2**63), "proposal-markov", -(2**63), 2**64 - 1), 1494637658812751),
            ((1416513948204736249, "inject-gate", 31, 0), 3331491991638493),
        ]
        for (seed, purpose, pos, it), value in vectors:
            assert DeterministicRng(seed).draws(purpose, [pos], it)[0] * 2**53 == value
            assert reference_draw(seed, purpose, pos, it) * 2**53 == value
        assert run_key(7, 199) == reference_run_key(7, 199) == 1416513948204736249
        assert run_key(0, 0) == reference_run_key(0, 0) == 0xE220A8397B1DCDAF

    def test_uniform_by_kolmogorov_smirnov(self):
        """10^6 draws of one stream against U[0, 1): sqrt(n) * D stays below
        1.95, the Kolmogorov distribution's 0.999 quantile."""
        n = 10**6
        u = np.sort(DeterministicRng(2024).draws("ks", np.arange(n), 0))
        d = max((np.arange(1, n + 1) / n - u).max(), (u - np.arange(n) / n).max())
        assert np.sqrt(n) * d < 1.95

    def test_streams_of_distinct_purposes_iterations_and_seeds_are_disjoint(self):
        seeds = [*range(8), -1, 2**63, *(run_key(s, r) for s in range(8) for r in range(4))]
        purposes = ["target", "target-seq", "target-off", "proposal-corrupt", "proposal-corrupt-choice",
                    "proposal-markov", "inject-gate", "embed-drop", "remask", "embed-table"]
        values = np.concatenate([
            DeterministicRng(seed).draws(purpose, np.arange(64), it)
            for seed in seeds for purpose in purposes for it in range(3)
        ])
        assert values.size == len(seeds) * len(purposes) * 3 * 64
        assert np.unique(values).size == values.size

    def test_draws_takes_any_int_sequence(self):
        rng = DeterministicRng(3)
        expected = rng.draws("p", [0, 1, 2, 5], 2).tolist()
        for positions in ((0, 1, 2, 5), np.array([0, 1, 2, 5], dtype=np.int32), np.array([0, 9, 1, 9, 2, 9, 5])[::2]):
            out = rng.draws("p", positions, 2)
            assert out.dtype == np.float64 and out.tolist() == expected
        assert rng.draws("p", range(3), 0).tolist() == rng.draws("p", [0, 1, 2], 0).tolist()
        assert rng.draws("p", np.empty(0, dtype=np.int64), 0).shape == (0,)

    def test_no_overflow_warning(self):
        """uint64 arithmetic wraps by design; a run under
        `-W error::RuntimeWarning` must not turn it into an error."""
        script = (
            "import numpy as np\n"
            "from warmdiff.core import DeterministicRng\n"
            "from warmdiff.harness import build_config, run_experiment\n"
            "rng = DeterministicRng(-1)\n"
            "for positions in ([2**63 - 1], [-(2**63)], np.arange(-5, 5), []):\n"
            "    rng.draws('p', positions, 2**64 - 1)\n"
            "    rng.draw('p', -1, -1)\n"
            "run_experiment(build_config({'n': 8, 'num_runs': 3, 'warmstart.method': 'token-injection',\n"
            "                             'decode.remask_enabled': True, 'seed': -(2**63)}))\n"
        )
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_draws_is_draw_at_each_address(self, monkeypatch):
        rng = DeterministicRng(5)
        positions = [0, 3, 3, 7, -2]
        out = rng.draws("p", positions, 4)
        assert out.dtype == np.float64
        assert out.tolist() == [rng.draw("p", p, 4) for p in positions]
        assert rng.draws("p", [], 0).shape == (0,)
        calls = record_draws(monkeypatch)
        for p in range(3):
            rng.draw("q", p, 1)
        assert calls == [("q", 0, 1), ("q", 1, 1), ("q", 2, 1)]

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
    rng = DeterministicRng(9)
    assert t1.rows.tolist() == [[2.0 * rng.draw("embed-table", r, c) - 1.0 for c in range(4)] for r in range(7)]
