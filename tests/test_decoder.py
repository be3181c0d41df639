import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_decoder import reference_decode, reference_select_unmask
from reference_rows import oracle_rows, rows_denoiser
from reference_trace import RecordTrace, reference_trace_lines
from warmdiff.core import DeterministicRng, DiffusionState, EmbeddingOverride, EmbeddingTable, Vocabulary, all_mask_init
from warmdiff.decoder import (
    DecodeConfig,
    IterationRecord,
    apply_remask,
    confidences,
    decode,
    remask_rates,
    select_unmask,
)
from warmdiff.denoiser import NoisyOracleParams, noisy_oracle_logits, prepare
from warmdiff.harness import trace_lines
from warmdiff.warmstart import WarmStartConfig, inject_tokens, warm_init


def overridden_init(v, n, override=None):
    """An all-masked state with an override (by default a zero table's
    blends at alpha 0.5, every position kept)."""
    if override is None:
        override = EmbeddingOverride(np.arange(n) % v.size, 0.5, EmbeddingTable(np.zeros((v.size + 1, 2))))
    return DiffusionState(vocab=v, tokens=np.full(n, v.mask_id), embedding_override=override)


class TestConfidences:
    def test_masked_uses_max_probability(self):
        best, conf = confidences(np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]))
        assert best.tolist() == [0, 2]
        assert conf.tolist() == [0.7, 0.6]

    def test_uniform_row_degenerate(self):
        pi = np.full((2, 4), 0.25)
        best, conf = confidences(pi)
        assert best.tolist() == [0, 0]
        assert np.allclose(conf, 0.25)

    def test_tied_maxima_pick_the_lowest_token_id(self):
        best, conf = confidences(np.array([[0.1, 0.45, 0.45], [0.4, 0.2, 0.4]]))
        assert best.tolist() == [1, 0]
        assert conf.tolist() == [0.45, 0.4]


def select_masked(conf, masked, tau):
    """Positions to unmask, as decode picks them: `select_unmask` sees the
    masked positions' confidences only."""
    rows = masked.nonzero()[0]
    return rows[select_unmask(conf[rows], tau)]


class TestSelectUnmask:
    def test_strict_threshold_parallel(self):
        conf = np.array([0.95, 0.5, 0.99])
        masked = np.array([True, True, True])
        assert select_masked(conf, masked, 0.9).tolist() == [0, 2]

    def test_forced_progress_lowest_index_tie_break(self):
        conf = np.array([0.3, 0.6, 0.6])
        masked = np.array([True, True, True])
        assert select_masked(conf, masked, 0.9).tolist() == [1]

    def test_single_masked_position_always_selected(self):
        conf = np.array([0.99, 0.01, 0.5])
        masked = np.array([False, True, False])
        assert select_masked(conf, masked, 0.9).tolist() == [1]

    def test_equal_to_tau_is_not_parallel(self):
        conf = np.array([0.9, 0.95])
        masked = np.array([True, True])
        assert select_masked(conf, masked, 0.9).tolist() == [1]

    def test_no_masked_positions_rejected(self):
        with pytest.raises(ValueError):
            select_masked(np.array([0.5]), np.array([False]), 0.5)

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_matches_the_two_pass_rule(self, data):
        """Few distinct values, tau among them, so ties and conf == tau are
        common; masks with no, one, some or every position masked."""
        n = data.draw(st.integers(1, 12))
        tau = data.draw(st.sampled_from([0.5, 0.9, 1.0]))
        values = st.sampled_from([0.0, 0.3, 0.5, 0.9, 0.95, 1.0]) | st.floats(0.0, 1.0)
        conf = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
        kind = data.draw(st.sampled_from(["none", "one", "all", "any"]))
        if kind == "any":
            masked = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        else:
            masked = np.full(n, kind == "all")
            if kind == "one":
                masked[data.draw(st.integers(0, n - 1))] = True
        if not masked.any():
            for select in (select_masked, reference_select_unmask):
                with pytest.raises(ValueError):
                    select(conf, masked, tau)
            return
        got, want = select_masked(conf, masked, tau), reference_select_unmask(conf, masked, tau)
        assert got.dtype == want.dtype == np.int64
        assert got.tolist() == want.tolist()


class TestRemaskRates:
    def test_confident_token_late_bias_zero(self):
        assert remask_rates(np.array([1.0]), 5, 0.5, 0.1)[0] == 0.0

    def test_upper_clip(self):
        assert remask_rates(np.array([0.0]), 1, 0.5, 0.1)[0] == 1.0

    def test_lower_clip(self):
        # b = 0.5 - 0.1 * 10 = -0.5; r = max(0, 0.1 - 0.5) = 0
        assert remask_rates(np.array([0.9]), 10, 0.5, 0.1)[0] == 0.0

    def test_interior_value(self):
        # b = 0.5 - 0.1 * 2 = 0.3; r = 0.4 + 0.3
        assert abs(remask_rates(np.array([0.6]), 2, 0.5, 0.1)[0] - 0.7) < 1e-12


class TestApplyRemask:
    def make_state(self):
        v = Vocabulary(4)
        return inject_tokens(v, np.array([0, 1, 2, 3]), 1.0, DeterministicRng(0))

    def test_zero_rates_change_nothing(self):
        state = self.make_state()
        positions, rates = apply_remask(state, np.zeros(4), DeterministicRng(1), 1)
        assert positions.tolist() == [] and rates.tolist() == []
        assert state.injected.tolist() == [0, 1, 2, 3]

    def test_unit_rates_remask_everything(self):
        state = self.make_state()
        positions, rates = apply_remask(state, np.ones(4), DeterministicRng(1), 1)
        assert positions.tolist() == [0, 1, 2, 3]
        assert rates.tolist() == [1.0] * 4
        assert state.injected.tolist() == []
        assert int(state.masked().sum()) == 4

    def test_outcome_reproducible(self):
        results = []
        for _ in range(2):
            state = DiffusionState(vocab=Vocabulary(4), tokens=np.array([0, 1, 2, 3]), injected={3})
            positions, rates = apply_remask(state, np.array([0.5]), DeterministicRng(7), 2)
            results.append((positions.tolist(), rates.tolist(), state.tokens.tolist()))
        assert results[0] == results[1]


def oracle_ctx(target, init, **kw):
    return prepare(target, NoisyOracleParams(**kw), init)[1]


class TestDecode:
    def test_perfect_oracle_single_iteration(self):
        v = Vocabulary(5)
        target = np.array([1, 4, 0, 2, 3, 3])
        init = all_mask_init(v, 6)
        ctx = oracle_ctx(target, init, c0=1.0, c_max=1.0)
        trace = decode(
            noisy_oracle_logits, ctx, init, DecodeConfig(tau=0.9), DeterministicRng(0),
        )
        assert trace.nfe == 1
        assert trace.final_tokens.tolist() == target.tolist()
        assert not trace.capped

    def test_permanently_sub_threshold_unmasks_one_per_iteration(self):
        v = Vocabulary(4)
        target = np.array([0, 1, 2, 3, 0, 1, 2])
        init = all_mask_init(v, 7)
        ctx = oracle_ctx(target, init, c0=0.3, gamma=0.0, c_max=0.3)
        trace = decode(
            noisy_oracle_logits, ctx, init, DecodeConfig(tau=0.9), DeterministicRng(0),
        )
        assert trace.nfe == 7
        assert all(len(rec.unmasked) == 1 for rec in trace.iterations)
        assert trace.final_tokens.tolist() == target.tolist()

    def test_progress_and_bookkeeping_every_iteration(self):
        v = Vocabulary(6)
        rng = DeterministicRng(5)
        target = np.array([int(rng.draw("t", i, 0) * 6) for i in range(12)])
        init = inject_tokens(v, target, 0.3, DeterministicRng(6))
        ctx = oracle_ctx(target, init, c0=0.35, gamma=0.8, c_max=0.95)
        dcfg = DecodeConfig(tau=0.9, remask_enabled=True, b0=0.4, lam=0.08, k_max=48)
        trace = decode(noisy_oracle_logits, ctx, init, dcfg, DeterministicRng(7))
        masked = int(init.masked().sum())
        for rec in trace.iterations:
            assert len(rec.unmasked) >= 1
            masked = masked - len(rec.unmasked) + len(rec.remasked)
            assert rec.masked_after == masked
        assert trace.iterations[-1].masked_after == 0
        assert trace.nfe == len(trace.iterations)
        assert trace.nfe <= 12 + len(init.injected)

    def test_non_injected_positions_never_remasked(self):
        v = Vocabulary(4)
        rng = DeterministicRng(8)
        target = np.array([int(rng.draw("t", i, 0) * 4) for i in range(10)])
        init = inject_tokens(v, target, 0.5, DeterministicRng(9))
        ctx = oracle_ctx(target, init, c0=0.4, gamma=0.5, c_max=0.9)
        dcfg = DecodeConfig(tau=0.95, remask_enabled=True, b0=0.6, lam=0.05, k_max=40)
        trace = decode(noisy_oracle_logits, ctx, init, dcfg, DeterministicRng(10))
        remasked = {p for rec in trace.iterations for p, _ in rec.remasked}
        assert remasked <= set(init.injected.tolist())

    def test_init_state_not_mutated(self):
        v = Vocabulary(4)
        target = np.array([0, 1, 2, 3])
        init = all_mask_init(v, 4)
        decode(
            noisy_oracle_logits, oracle_ctx(target, init, c0=1.0, c_max=1.0), init,
            DecodeConfig(tau=0.5), DeterministicRng(0),
        )
        assert int(init.masked().sum()) == 4

    @staticmethod
    def state_bytes(state):
        override = state.embedding_override
        return state.tokens.tobytes(), state.injected.tobytes(), None if override is None else override.ids.tobytes()

    def test_remasking_run_leaves_init_byte_identical(self):
        """decode shares `injected` with `init` and remasks from it."""
        v = Vocabulary(6)
        target = np.arange(12) % 6
        init = inject_tokens(v, (target + 1) % 6, 0.5, DeterministicRng(3))
        before = self.state_bytes(init)
        dcfg = DecodeConfig(tau=0.9, remask_enabled=True, b0=1.0, lam=0.05)
        trace = decode(noisy_oracle_logits, oracle_ctx(target, init), init, dcfg, DeterministicRng(4))
        assert trace.remask_counts.sum() >= 1
        assert self.state_bytes(init) == before

    def test_first_iteration_embedding_run_leaves_init_byte_identical(self):
        """decode shares `embedding_override` with `init` and drops it after
        the first call."""
        v = Vocabulary(6)
        target = np.arange(12) % 6
        table = EmbeddingTable.random(v, 4, DeterministicRng(5))
        wcfg = WarmStartConfig(method="embedding-interpolation", rho=0.5, alpha=0.6)
        init = warm_init(v, (target + 1) % 6, table, wcfg, DeterministicRng(6))
        before = self.state_bytes(init)
        denoiser, ctx = prepare(target, NoisyOracleParams(eta=0.5), init)
        dcfg = DecodeConfig(tau=0.9, override_persistence="first-iteration")
        trace = decode(denoiser, ctx, init, dcfg, DeterministicRng(7))
        assert trace.nfe > 1 and init.embedding_override is not None
        assert self.state_bytes(init) == before

    def test_cap_hit_flags_instead_of_raising(self):
        v = Vocabulary(4)
        target = np.array([0, 1, 2, 3, 0, 1])
        init = all_mask_init(v, 6)
        ctx = oracle_ctx(target, init, c0=0.3, gamma=0.0, c_max=0.3)
        with pytest.warns(UserWarning):
            trace = decode(
                noisy_oracle_logits, ctx, init,
                DecodeConfig(tau=0.9, k_max=2), DeterministicRng(0),
            )
        assert trace.capped
        assert trace.nfe == 2
        assert (trace.final_tokens == v.mask_id).sum() == 4

    def test_no_warning_when_cap_is_safe(self):
        v = Vocabulary(4)
        target = np.array([0, 1, 2])
        init = all_mask_init(v, 3)
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            decode(
                noisy_oracle_logits, oracle_ctx(target, init, c0=1.0, c_max=1.0),
                init, DecodeConfig(tau=0.5, k_max=6), DeterministicRng(0),
            )

    def test_first_iteration_persistence_drops_override(self):
        v = Vocabulary(4)
        target = np.array([0, 1, 2, 3])
        seen = []

        def spy(state, ctx, rows, held_rows):
            seen.append(state.embedding_override is not None)
            return noisy_oracle_logits(state, ctx, rows, held_rows)

        init = overridden_init(v, 4)
        ctx = oracle_ctx(target, init, c0=0.3, gamma=0.0, c_max=0.3)
        decode(spy, ctx, init, DecodeConfig(tau=0.9, override_persistence="first-iteration"), DeterministicRng(0))
        assert seen[0] is True
        assert all(not s for s in seen[1:])

    def test_while_masked_persistence_keeps_override(self):
        v = Vocabulary(4)
        target = np.array([0, 1, 2, 3])
        seen = []

        def spy(state, ctx, rows, held_rows):
            seen.append(state.embedding_override is not None)
            return noisy_oracle_logits(state, ctx, rows, held_rows)

        init = overridden_init(v, 4)
        ctx = oracle_ctx(target, init, c0=0.3, gamma=0.0, c_max=0.3)
        decode(spy, ctx, init, DecodeConfig(tau=0.9), DeterministicRng(0))
        assert all(seen)

    def test_tied_maxima_unmask_the_lowest_token_id(self):
        """Rows whose maximum is shared by several tokens: both the threshold
        pass (k = 1) and the forced pick (k = 2) unmask the lowest tied id."""
        v = Vocabulary(4)
        script = iter(
            [
                np.array([[0.0, 0.0, 0.5, 0.5], [0.05, 0.05, 0.45, 0.45], [0.3, 0.3, 0.3, 0.1]]),
                np.array([[0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 0.0, 1.0], [0.1, 0.3, 0.3, 0.3]]),
            ]
        )

        def tied(state, ctx, rows):
            return next(script)[rows]

        trace = decode(
            rows_denoiser(tied), None, all_mask_init(v, 3), DecodeConfig(tau=0.4), DeterministicRng(0)
        )
        assert trace.nfe == 2
        assert trace.unmask_counts.tolist() == [2, 1]
        assert trace.unmask_pos.tolist() == [0, 1, 2]
        assert trace.unmask_tok.tolist() == [2, 2, 1]
        assert trace.unmask_conf.tolist() == [0.5, 0.45, 0.3]
        assert trace.final_tokens.tolist() == [2, 2, 1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_denoiser_output_raises(self, bad):
        v = Vocabulary(3)

        def broken(state, ctx, rows):
            pi = np.full((len(rows), 3), 1.0 / 3.0)
            pi[-1, 1] = bad
            return pi

        with pytest.raises(ValueError, match="non-finite"):
            decode(
                rows_denoiser(broken), None, all_mask_init(v, 4), DecodeConfig(tau=0.9), DeterministicRng(0),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["conf", "held"])
    def test_non_finite_confidence_or_held_probability_raises(self, bad, where):
        """decode checks what a denoiser returns, not only what the row
        adapter reads."""
        v = Vocabulary(3)

        def broken(state, ctx, rows, held_rows):
            conf, held = np.full(len(rows), 0.5), np.full(len(held_rows), 0.5)
            {"conf": conf, "held": held}[where][-1:] = bad
            return np.zeros(len(rows), dtype=np.int64), conf, held

        init = DiffusionState(vocab=v, tokens=np.array([0, 3, 2, 3]), injected={0, 2})
        dcfg = DecodeConfig(tau=0.9, remask_enabled=True)
        with pytest.raises(ValueError, match="non-finite"):
            decode(broken, None, init, dcfg, DeterministicRng(0))

    def test_overflowing_embedding_bonus_raises(self):
        """Entries of 1e200 overflow the dot products of the cosine, so the
        oracle's bonus, and with it a masked position's confidence, is NaN.
        At alpha 0 every blend is the mask vector, so every bonus is exactly
        0 on the same table and the run is the one without an override."""
        v = Vocabulary(4)
        target = np.array([0, 1, 2, 3])
        table = EmbeddingTable(rows=np.full((5, 3), 1e200))
        init = overridden_init(v, 4, EmbeddingOverride(target, 0.5, table))
        with np.errstate(over="ignore", invalid="ignore"):
            denoiser, ctx = prepare(target, NoisyOracleParams(eta=0.5), init)
            assert np.isnan(ctx.bonus).all()
            with pytest.raises(ValueError, match="non-finite"):
                decode(denoiser, ctx, init, DecodeConfig(tau=0.9), DeterministicRng(0))
        init = overridden_init(v, 4, EmbeddingOverride(target, 0.0, table))
        denoiser, ctx = prepare(target, NoisyOracleParams(eta=0.5), init)
        assert ctx.bonus.tolist() == [0.0] * 4
        trace = decode(denoiser, ctx, init, DecodeConfig(tau=0.9), DeterministicRng(0))
        plain = all_mask_init(v, 4)
        denoiser, ctx = prepare(target, NoisyOracleParams(eta=0.5), plain)
        expected = decode(denoiser, ctx, plain, DecodeConfig(tau=0.9), DeterministicRng(0))
        assert trace.final_tokens.tolist() == expected.final_tokens.tolist() and trace.nfe == expected.nfe

    def test_full_injection_returns_immediately(self):
        v = Vocabulary(4)
        target = np.array([0, 1, 2, 3])
        init = inject_tokens(v, target, 1.0, DeterministicRng(0))
        trace = decode(
            noisy_oracle_logits, oracle_ctx(target, init), init, DecodeConfig(tau=0.9), DeterministicRng(0),
        )
        assert trace.nfe == 0
        assert trace.iterations == []
        assert trace.final_tokens.tolist() == target.tolist()
        assert not trace.capped


class TestScriptedTraceEquivalence:
    """Hand-enumerable instance: scripted probability rows on a 3-token,
    3-word problem."""

    def test_three_token_trace_matches_reference(self):
        v = Vocabulary(3)
        script = [
            np.array([[0.80, 0.15, 0.05], [0.10, 0.50, 0.40], [0.20, 0.15, 0.65]]),
            np.array([[0.30, 0.40, 0.30], [0.25, 0.70, 0.05], [0.10, 0.10, 0.80]]),
            np.array([[0.05, 0.05, 0.90], [0.90, 0.05, 0.05], [0.33, 0.33, 0.34]]),
        ]

        def scripted(arrays):
            it = iter(arrays)
            return lambda state, ctx, rows: next(it)[rows]

        ctx = None  # the scripted denoiser reads no context
        trace = decode(
            rows_denoiser(scripted(script)), ctx, all_mask_init(v, 3), DecodeConfig(tau=0.75), DeterministicRng(0),
        )
        ref_tokens, ref_records = reference_decode(
            scripted(script), ctx, all_mask_init(v, 3).tokens, v, tau=0.75
        )
        assert trace.final_tokens.tolist() == ref_tokens
        assert len(trace.iterations) == len(ref_records)
        for rec, ref in zip(trace.iterations, ref_records):
            assert rec.k == ref["k"]
            assert [(p, t) for p, t, _ in rec.unmasked] == [(p, t) for p, t, _ in ref["unmasked"]]
            for (_, _, c), (_, _, rc) in zip(rec.unmasked, ref["unmasked"]):
                assert abs(c - rc) < 1e-9

        # Independent hand check of the first iteration: only position 0
        # clears 0.75, so it unmasks alone with token 0.
        assert [(p, t) for p, t, _ in trace.iterations[0].unmasked] == [(0, 0)]

    def test_narrow_denoiser_dtypes_give_int64_and_float64_columns(self):
        # float32 rows that depend on the position and the revealed count; the
        # denoiser reduces them to int32 tokens and float32 confidences. At
        # tau = 0.9 some iterations unmask several positions above tau, others
        # force the single most confident one.
        v, n, tau = Vocabulary(5), 12, 0.9
        draws = DeterministicRng(41).draws("conf", np.arange(n), np.arange(n + 1))

        def scripted_rows(state, ctx, rows):
            r = int(np.count_nonzero(state.tokens != v.mask_id))
            c = (0.3 + 0.7 * draws[rows, r]).astype(np.float32)
            pi = np.repeat(((1 - c) / (v.size - 1))[:, None], v.size, axis=1)
            pi[np.arange(len(rows)), (rows + r) % v.size] = c
            return pi

        def narrow(state, ctx, rows, held_rows):
            pi = scripted_rows(state, ctx, rows)
            return pi.argmax(axis=1).astype(np.int32), pi.max(axis=1), np.empty(0, np.float32)

        trace = decode(narrow, None, all_mask_init(v, n), DecodeConfig(tau=tau), DeterministicRng(0))
        ref_tokens, ref_records = reference_decode(scripted_rows, None, all_mask_init(v, n).tokens, v, tau=tau)

        for name in ("unmask_counts", "unmask_pos", "unmask_tok", "remask_counts", "remask_pos", "masked_after"):
            assert getattr(trace, name).dtype == np.int64, name
        for name in ("unmask_conf", "remask_rate"):
            assert getattr(trace, name).dtype == np.float64, name
        forced = [rec["unmasked"] for rec in ref_records if not rec["unmasked"][0][2] > tau]
        assert len(forced) >= 2 and max(trace.unmask_counts) > 1
        masked, records = n, []
        for rec in ref_records:
            masked -= len(rec["unmasked"])
            records.append(IterationRecord(rec["k"], rec["unmasked"], [], masked))
        want = RecordTrace(records, np.array(ref_tokens), len(records), False)
        header = {"run": 0}
        assert trace_lines(trace, header) == reference_trace_lines(want, header)
        ref_conf = [c for rec in ref_records for _, _, c in rec["unmasked"]]
        assert trace.unmask_conf.tobytes() == np.array(ref_conf).tobytes()
        assert trace.final_tokens.tolist() == ref_tokens

    def test_reference_equivalence_on_oracle_denoisers(self):
        # Baseline-equivalence sweep: n <= 8, V <= 5, both oracle modes,
        # all-mask and injected starts, several seeds; remask disabled.
        for seed in range(6):
            rng = DeterministicRng(seed)
            n = 1 + int(rng.draw("n", 0, 0) * 8)
            V = 2 + int(rng.draw("V", 0, 0) * 4)
            v = Vocabulary(V)
            target = np.array([int(rng.draw("t", i, 0) * V) for i in range(n)])
            mode = "credulous" if seed % 2 else "faithful"
            prop = (target + 1) % V
            starts = [all_mask_init(v, n), inject_tokens(v, prop, 0.4, DeterministicRng(seed + 50))]
            for init in starts:
                if int(init.masked().sum()) == 0:
                    continue
                ctx = oracle_ctx(target, init, c0=0.31, gamma=0.47, c_max=0.93, mode=mode)
                for tau in (0.5, 0.9):
                    trace = decode(
                        noisy_oracle_logits, ctx, init, DecodeConfig(tau=tau), DeterministicRng(0),
                    )
                    ref_tokens, ref_records = reference_decode(oracle_rows, ctx, init.tokens, v, tau=tau)
                    assert trace.final_tokens.tolist() == ref_tokens
                    assert [
                        [(p, t) for p, t, _ in rec.unmasked] for rec in trace.iterations
                    ] == [[(p, t) for p, t, _ in rec["unmasked"]] for rec in ref_records]


def test_decode_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(tau=0.0)
    with pytest.raises(ValueError):
        DecodeConfig(tau=1.2)
    with pytest.raises(ValueError):
        DecodeConfig(b0=0.0)
    with pytest.raises(ValueError):
        DecodeConfig(lam=-0.1)
    with pytest.raises(ValueError):
        DecodeConfig(k_max=0)
    with pytest.raises(ValueError, match="override_persistence"):
        DecodeConfig(override_persistence="forever")
