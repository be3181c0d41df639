import json
import sys
from dataclasses import fields

import numpy as np
import pytest

from reference_rng import reference_run_key
from reference_trace import RecordTrace, columnar, reference_trace_lines
from warmdiff import core, harness
from warmdiff.core import DeterministicRng
from warmdiff.decoder import DecodeConfig, IterationRecord
from warmdiff.denoiser import NoisyOracleParams
from warmdiff.harness import (
    CSV_COLUMNS,
    ConfigError,
    build_config,
    build_resources,
    check_trace_invariants,
    config_to_dict,
    csv_lines,
    exact_match,
    expand_grid,
    parse_config_text,
    run_experiment,
    run_one,
    sweep,
    token_accuracy,
    trace_lines,
    validate_runs,
)
from warmdiff.warmstart import WarmStartConfig


class TestConfigParsing:
    def test_example_keys(self):
        text = 'decode.tau = 0.9\nwarmstart.method = "token-injection"\nwarmstart.rho = 0.25\n'
        out = parse_config_text(text)
        assert out == {"decode.tau": 0.9, "warmstart.method": "token-injection", "warmstart.rho": 0.25}

    def test_comments_and_blank_lines(self):
        out = parse_config_text("# a comment\n\nn = 8  # trailing\n")
        assert out == {"n": 8}

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError):
            parse_config_text("decode.tua = 0.9\n")

    def test_duplicate_key_is_error(self):
        with pytest.raises(ConfigError):
            parse_config_text("n = 8\nn = 9\n")

    def test_missing_equals_is_error(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words\n")

    def test_type_mismatch_is_error(self):
        with pytest.raises(ConfigError):
            parse_config_text('n = "eight"\n')
        with pytest.raises(ConfigError):
            parse_config_text("decode.remask_enabled = 1\n")
        with pytest.raises(ConfigError):
            parse_config_text("num_runs = 2.5\n")

    def test_value_list_rejected_outside_sweep(self):
        with pytest.raises(ConfigError):
            parse_config_text("decode.tau = 0.5, 0.9\n")

    def test_value_list_allowed_for_sweepable_keys_in_grids(self):
        out = parse_config_text('warmstart.method = "none", "token-injection"\n', allow_sweep_lists=True)
        assert out == {"warmstart.method": ["none", "token-injection"]}

    def test_list_on_non_sweepable_key_rejected_even_in_grids(self):
        with pytest.raises(ConfigError):
            parse_config_text("n = 8, 16\n", allow_sweep_lists=True)

    def test_bare_word_strings_accepted(self):
        out = parse_config_text("denoiser.mode = credulous\n")
        assert out == {"denoiser.mode": "credulous"}

    def test_quoted_hash_and_comma_are_kept(self):
        out = parse_config_text('corpus.path = "a#b,c.txt"  # comment, with a comma\n')
        assert out == {"corpus.path": "a#b,c.txt"}
        out = parse_config_text("warmstart.method = 'none', \"token-injection\"  # x\n", allow_sweep_lists=True)
        assert out == {"warmstart.method": ["none", "token-injection"]}


FLOAT_KEYS = [key for key, (kind, _, _) in harness.SCHEMA.items() if kind is float]
BIG = "9" * 400


class TestNumberCoercion:
    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, key, literal):
        with pytest.raises(ConfigError, match="finite"):
            parse_config_text(f"{key} = {literal}\n")
        with pytest.raises(ConfigError, match="finite"):
            build_config({key: float(literal)})

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_integer_too_large_for_a_float_rejected(self, key):
        for literal in (BIG, "-" + BIG):
            with pytest.raises(ConfigError, match="finite"):
                parse_config_text(f"{key} = {literal}\n")

    def test_400_digit_integer_for_an_int_key_is_a_config_error(self):
        for key in ("n", "num_runs", "decode.k_max"):
            with pytest.raises(ConfigError):
                build_config(parse_config_text(f"{key} = -{BIG}\n"))
        with pytest.raises(ConfigError, match="integer"):
            parse_config_text(f"num_runs = {BIG}.5\n")  # reads as float inf

    def test_whole_floats_coerce_to_int_and_ints_to_float(self):
        cfg = build_config(parse_config_text("n = 8.0\ndecode.tau = 1\n"))
        assert cfg.n == 8 and type(cfg.n) is int
        assert cfg.decode.tau == 1.0 and type(cfg.decode.tau) is float


class TestBuildConfig:
    def test_defaults_resolve(self):
        cfg = build_config({})
        assert cfg.n == 16
        assert cfg.decode.k_max == 32  # auto 2n
        assert cfg.warmstart.method == "none"

    def test_explicit_k_max_kept(self):
        cfg = build_config({"decode.k_max": 100})
        assert cfg.decode.k_max == 100

    def test_invalid_ranges_rejected(self):
        for overrides in (
            {"n": 0},
            {"vocab_size": 1},
            {"num_runs": 0},
            {"target_source": "lottery"},
            {"denoiser.kind": "gpt"},
            {"proposer.kind": "human"},
            {"proposer.epsilon": 2.0},
            {"decode.tau": 0.0},
            {"decode.k_max": -3},
            {"warmstart.method": "magnets"},
            {"warmstart.override_persistence": "forever"},
            {"denoiser.window": 4},
        ):
            with pytest.raises(ConfigError):
                build_config(overrides)

    def test_size_limit_is_inclusive(self):
        side = 2**12  # (side - 1 + 1) * side == MAX_ENTRIES
        assert harness.MAX_ENTRIES == side * side
        build_config({"vocab_size": side - 1, "embed_dim": side})
        build_config({"n": harness.MAX_ENTRIES // 16, "vocab_size": 16})
        for overrides in (
            {"vocab_size": side - 1, "embed_dim": side + 1},
            {"vocab_size": side, "embed_dim": side},
            {"n": harness.MAX_ENTRIES // 16 + 1, "vocab_size": 16},
        ):
            with pytest.raises(ConfigError, match=str(harness.MAX_ENTRIES)):
                build_config(overrides)

    def test_schema_defaults_are_the_field_defaults_they_name(self):
        """Each nested config's default is written in SCHEMA and on its
        dataclass field; the two agree. decode.k_max is the exception: its
        config default 0 resolves to 2n, while DecodeConfig defaults to 4096."""
        owners = {"oracle": NoisyOracleParams, "warmstart": WarmStartConfig, "decode": DecodeConfig}
        checked = {owner: 0 for owner in owners}
        for key, (_, default, attr) in harness.SCHEMA.items():
            owner, _, name = attr.rpartition(".")
            if owner not in owners or key == "decode.k_max":
                continue
            field_default = next(f.default for f in fields(owners[owner]) if f.name == name)
            assert (type(default), default) == (type(field_default), field_default), key
            checked[owner] += 1
        assert checked == {"oracle": 6, "warmstart": 3, "decode": 5}

    def test_config_to_dict_round_trips_keys(self):
        cfg = build_config({"warmstart.rho": 0.5})
        flat = config_to_dict(cfg)
        assert flat["warmstart.rho"] == 0.5
        assert flat["decode.k_max"] == 32
        rebuilt = build_config({k: v for k, v in flat.items()})
        assert rebuilt == cfg


class TestMetrics:
    def test_exact_match_and_accuracy_identical(self):
        t = np.array([1, 2, 3, 4])
        assert exact_match(t, t) is True
        assert token_accuracy(t, t) == 1.0

    def test_one_differing_token(self):
        t = np.array([1, 2, 3, 4])
        o = np.array([1, 2, 3, 0])
        assert exact_match(o, t) is False
        assert token_accuracy(o, t) == 0.75

    def test_all_differing(self):
        t = np.array([1, 2])
        o = np.array([0, 0])
        assert exact_match(o, t) is False
        assert token_accuracy(o, t) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            exact_match(np.array([1]), np.array([1, 2]))
        with pytest.raises(ValueError):
            token_accuracy(np.array([1]), np.array([1, 2]))


class TestRunOne:
    def test_perfect_oracle_baseline(self):
        cfg = build_config({"n": 8, "denoiser.c0": 1.0, "denoiser.c_max": 1.0, "num_runs": 1})
        result, trace, _ = run_one(cfg, 0)
        assert result.nfe == 1
        assert result.exact_match is True
        assert result.token_acc == 1.0
        assert result.capped is False

    def test_same_index_twice_identical(self):
        cfg = build_config({"n": 10, "warmstart.method": "token-injection", "proposer.epsilon": 0.3,
                            "decode.remask_enabled": True, "seed": 5})
        a_result, a_trace, _ = run_one(cfg, 3)
        b_result, b_trace, _ = run_one(cfg, 3)
        assert a_result == b_result
        header = {"h": 1}
        assert trace_lines(a_trace, header) == trace_lines(b_trace, header)

    def test_run_seed_is_the_hashed_run_key(self):
        cfg = build_config({"seed": 12})
        result, _, _ = run_one(cfg, 5)
        assert result.seed == reference_run_key(12, 5)

    def test_base_seeds_share_no_run_seed(self):
        """Under `seed XOR run`, seeds 0..7 replayed the same 200 runs."""
        seeds = {r.seed for s in range(8) for r in run_experiment(build_config({"n": 1, "num_runs": 200, "seed": s}))[0].runs}
        assert len(seeds) == 8 * 200

    def test_recorded_seed_replays_the_runs_draws(self, monkeypatch):
        cfg = build_config({"n": 12, "seed": 3, "warmstart.method": "token-injection", "proposer.epsilon": 0.3,
                            "decode.remask_enabled": True, "decode.b0": 0.01, "decode.lambda": 0.002})
        resources = build_resources(cfg)  # its embedding table is drawn from the base seed
        calls = []
        draws = DeterministicRng.draws

        def recording_draws(self, purpose, positions, iteration):
            out = draws(self, purpose, positions, iteration)
            calls.append((self.seed, purpose, np.array(positions), iteration, out))
            return out

        monkeypatch.setattr(DeterministicRng, "draws", recording_draws)
        result, _, _ = run_one(cfg, 9, resources)
        monkeypatch.undo()
        assert {seed for seed, *_ in calls} == {result.seed}
        assert {purpose for _, purpose, *_ in calls} >= {"target", "proposal-corrupt", "inject-gate", "remask"}
        replay = DeterministicRng(result.seed)
        for _, purpose, positions, iteration, out in calls:
            assert replay.draws(purpose, positions, iteration).tobytes() == out.tobytes()

    def test_full_injection_with_clean_proposal_is_free(self):
        cfg = build_config({
            "n": 6, "warmstart.method": "token-injection", "warmstart.rho": 1.0,
            "proposer.epsilon": 0.0, "num_runs": 1,
        })
        result, trace, _ = run_one(cfg, 0)
        assert result.nfe == 0
        assert result.exact_match is True
        assert trace.unmask_counts.size == trace.unmask_pos.size == trace.masked_after.size == 0
        assert len(trace_lines(trace, {})) == 2

    def test_markov_pieces_require_corpus(self):
        with pytest.raises(ConfigError):
            build_resources(build_config({"denoiser.kind": "markov"}))

    def test_corpus_targets_come_from_corpus(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 1 2 3 0 1 2 3 0 1\n", encoding="utf-8")
        cfg = build_config({
            "n": 4, "vocab_size": 4, "target_source": "corpus", "corpus.path": str(path),
            "denoiser.c0": 1.0, "denoiser.c_max": 1.0, "num_runs": 1,
        })
        result, trace, _ = run_one(cfg, 0)
        final = trace.final_tokens.tolist()
        text = [int(t) for t in path.read_text().split()]
        windows = [text[i : i + 4] for i in range(len(text) - 3)]
        assert final in windows

    def test_corpus_too_short_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 1\n0 1 2\n", encoding="utf-8")
        for kind in ("noisy-oracle", "markov"):
            cfg = build_config({"n": 4, "target_source": "corpus", "corpus.path": str(path), "denoiser.kind": kind})
            with pytest.raises(ConfigError, match=r"^corpus has no sequence of length >= n = 4$"):
                build_resources(cfg)

    def test_corpus_too_short_serves_uniform_targets(self, tmp_path):
        """Only corpus targets need a sequence of length >= n; the bigram
        model is fitted on the short ones."""
        path = tmp_path / "c.txt"
        path.write_text("0 1\n2 3 0\n", encoding="utf-8")
        cfg = build_config({
            "n": 6, "vocab_size": 4, "num_runs": 2, "corpus.path": str(path),
            "denoiser.kind": "markov", "proposer.kind": "markov", "warmstart.method": "token-injection",
        })
        resources = build_resources(cfg)
        assert resources.target_seqs == []
        record, _ = run_experiment(cfg, resources=resources)
        assert len(record.runs) == 2
        assert all(r.nfe >= 1 for r in record.runs)

    def test_corpus_targets_are_cut_from_the_long_sequences(self, tmp_path):
        """Targets drawn from the filtered list the resources hold equal those
        drawn from the file's lines of length >= n, in file order."""
        lines = [list(range(length)) for length in (3, 9, 5, 6, 2, 12, 7)]
        path = tmp_path / "c.txt"
        path.write_text("".join(" ".join(map(str, seq)) + "\n" for seq in lines), encoding="utf-8")
        n = 6
        cfg = build_config({
            "n": n, "vocab_size": 12, "num_runs": 24, "target_source": "corpus", "corpus.path": str(path),
            "denoiser.c0": 1.0, "denoiser.c_max": 1.0,
        })
        resources = build_resources(cfg)
        eligible = [seq for seq in lines if len(seq) >= n]
        assert resources.target_seqs == eligible
        for r in range(cfg.num_runs):
            result, trace, _ = run_one(cfg, r, resources)
            rng = DeterministicRng(result.seed)
            seq = eligible[int(rng.draw("target-seq", 0, 0) * len(eligible))]
            start = int(rng.draw("target-off", 0, 0) * (len(seq) - n + 1))
            assert trace.final_tokens.tolist() == seq[start : start + n]

    def test_corpus_token_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 1\n0 9 2 -1\n", encoding="utf-8")
        cfg = build_config({"vocab_size": 4, "denoiser.kind": "markov", "corpus.path": str(path)})
        with pytest.raises(ConfigError, match=r"^corpus token 9 outside \[0, 4\)$"):
            build_resources(cfg)

    def test_markov_end_to_end(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 1 2 3 0 1 2 3 0 1 2 3\n2 3 0 1 2 3 0 1\n", encoding="utf-8")
        cfg = build_config({
            "n": 6, "vocab_size": 4, "target_source": "corpus", "corpus.path": str(path),
            "denoiser.kind": "markov", "proposer.kind": "markov",
            "warmstart.method": "token-injection", "decode.tau": 0.6, "num_runs": 3,
        })
        record, _ = run_experiment(cfg)
        assert len(record.runs) == 3
        assert all(r.nfe >= 1 for r in record.runs)


class TestSweep:
    def grid(self):
        return {
            "n": 8,
            "num_runs": 3,
            "denoiser.c0": 1.0,
            "denoiser.c_max": 1.0,
            "warmstart.method": ["none", "token-injection"],
            "warmstart.rho": 0.25,
        }

    def test_expansion_order_and_ids(self):
        points = expand_grid(self.grid())
        assert len(points) == 2
        assert points[0]["warmstart.method"] == "none"
        assert points[1]["warmstart.method"] == "token-injection"

    def test_empty_grid_dimension_single_row(self):
        records = sweep({"n": 4, "num_runs": 2, "denoiser.c0": 1.0, "denoiser.c_max": 1.0})
        assert len(records) == 1
        assert records[0].grid_id == 0

    def test_row_counting(self):
        records = sweep(self.grid())
        lines = csv_lines(records)
        assert len(lines) == 1 + 2 * 3  # header + G * R

    def test_csv_header_and_shape(self):
        records = sweep(self.grid())
        lines = csv_lines(records)
        assert lines[0] == ",".join(CSV_COLUMNS)
        for line in lines[1:]:
            assert len(line.split(",")) == len(CSV_COLUMNS)

    def test_aggregates_recomputable_from_rows(self):
        records = sweep(self.grid())
        lines = csv_lines(records)
        header = lines[0].split(",")
        by_grid = {}
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            by_grid.setdefault(row["grid_id"], []).append(float(row["nfe"]))
        for rec in records:
            assert abs(np.mean(by_grid[str(rec.grid_id)]) - rec.mean_nfe) < 1e-12

    def test_exact_match_rate_bounded_by_token_accuracy(self):
        grid = self.grid()
        grid.update({"denoiser.c0": 0.4, "denoiser.c_max": 0.9, "proposer.epsilon": 0.5})
        for rec in sweep(grid):
            assert rec.exact_match_rate <= rec.mean_token_acc + 1e-12

    def test_mean_nfe_bounded_by_n_without_remask(self):
        for rec in sweep(self.grid()):
            assert rec.mean_nfe <= 8

    @pytest.mark.parametrize("methods, builds", [("token-injection", 1), (["none", "token-injection"], 2)])
    def test_resources_built_once_per_distinct_input(self, tmp_path, monkeypatch, methods, builds):
        """A markov proposer reads the corpus only for a warm start, so a grid
        mixing "none" in needs a second build; the CSV is that of building
        per point."""
        path = tmp_path / "c.txt"
        path.write_text("0 1 2 3 0 1 2 3 0 1 2 3\n2 3 0 1 2 3 0 1\n", encoding="utf-8")
        grid = {
            "n": 6, "vocab_size": 4, "num_runs": 2, "corpus.path": str(path),
            "proposer.kind": "markov", "warmstart.method": methods,
            "warmstart.rho": [0.25, 0.75], "decode.tau": [0.5, 0.9],
        }
        per_point = [run_experiment(build_config(p), grid_id=g)[0] for g, p in enumerate(expand_grid(grid))]
        built = []
        monkeypatch.setattr(harness, "build_resources", lambda cfg: built.append(cfg) or build_resources(cfg))
        assert csv_lines(sweep(grid)) == csv_lines(per_point)
        assert len(built) == builds


    def test_alpha_sweep_matches_separate_runs(self, monkeypatch):
        """A sweep over more alphas than the table once kept memos for builds
        one table for its grid points, whose one memo their runs share; its
        rows, grid_id aside, are those of a fresh run_experiment per alpha."""
        grid = {
            "n": 32, "vocab_size": 32, "num_runs": 20, "seed": 9, "embed_dim": 16,
            "warmstart.method": "embedding-interpolation", "warmstart.rho": 0.5,
            "warmstart.alpha": [0.2, 0.3, 0.6, 0.8, 1.0], "denoiser.eta": 0.5,
        }
        separate = [run_experiment(build_config(point))[0] for point in expand_grid(grid)]
        built = []
        monkeypatch.setattr(harness, "build_resources", lambda cfg: built.append(build_resources(cfg)) or built[-1])
        swept = sweep(grid)
        memo = built[0].table.blend_cosine.cache_info()
        assert len(built) == 1 and memo.currsize > 0 and memo.hits > 0
        assert [r.grid_id for r in swept] == [0, 1, 2, 3, 4] and [r.alpha for r in swept] == [0.2, 0.3, 0.6, 0.8, 1.0]

        def without_grid_id(records):
            return [line.partition(",")[2] for line in csv_lines(records)]

        assert without_grid_id(swept) == without_grid_id(separate)
        assert len({record.mean_nfe for record in separate}) > 1

    def test_markov_sweep_matches_separate_runs(self, tmp_path, monkeypatch):
        """A markov sweep shares one bigram model, and with it the pair
        tables its first call builds, across its grid points; its rows,
        grid_id aside, are those of a fresh run_experiment per tau, each
        fitting its own model."""
        # Mostly t -> t + 1 (mod 16), every fifth token or so drawn from an
        # LCG, so rows next to revealed tokens are confident and tau matters.
        x, lines = 7, []
        for _ in range(12):
            seq = [x % 16]
            for _ in range(39):
                x = (x * 75 + 74) % 65537
                seq.append(x % 16 if x % 5 == 0 else (seq[-1] + 1) % 16)
            lines.append(" ".join(map(str, seq)))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        grid = {
            "n": 24, "vocab_size": 16, "num_runs": 20, "seed": 5, "target_source": "corpus",
            "corpus.path": str(corpus), "denoiser.kind": "markov", "proposer.kind": "markov",
            "decode.remask_enabled": True, "warmstart.method": "token-injection", "warmstart.rho": 0.25,
            "decode.tau": [0.5, 0.9],
        }
        separate = [run_experiment(build_config(point))[0] for point in expand_grid(grid)]
        built = []
        monkeypatch.setattr(harness, "build_resources", lambda cfg: built.append(build_resources(cfg)) or built[-1])
        swept = sweep(grid)
        assert len(built) == 1 and "pair_tables" in vars(built[0].bigram)
        assert [r.grid_id for r in swept] == [0, 1] and [r.tau for r in swept] == [0.5, 0.9]

        def without_grid_id(records):
            return [line.partition(",")[2] for line in csv_lines(records)]

        assert without_grid_id(swept) == without_grid_id(separate)
        assert separate[0].mean_nfe != separate[1].mean_nfe

    def test_many_runs_at_large_v_keep_the_memo_within_its_bounds(self, monkeypatch):
        """With the memo's bound shrunk below what many runs at a large V
        look up, the table's memo stays within it and the rows are those of
        a run whose memo keeps everything."""
        cfg = build_config({
            "n": 16, "vocab_size": 4096, "embed_dim": 8, "num_runs": 40, "seed": 4,
            "warmstart.method": "embedding-interpolation", "warmstart.rho": 0.8,
            "warmstart.alpha": 0.6, "denoiser.eta": 0.5,
        })
        built = []
        monkeypatch.setattr(harness, "build_resources", lambda cfg: built.append(build_resources(cfg)) or built[-1])
        kept_all = run_experiment(cfg)[0]
        assert built[0].table.blend_cosine.cache_info().currsize > 100
        monkeypatch.setattr(core, "_MEMO_ENTRIES", 100)
        bounded = run_experiment(cfg)[0]
        assert built[1].table.blend_cosine.cache_info().currsize == 100
        assert csv_lines([bounded]) == csv_lines([kept_all])


class TestAggregates:
    def test_std_uses_sample_denominator(self):
        cfg = build_config({"n": 8, "num_runs": 5, "warmstart.method": "token-injection",
                            "denoiser.c0": 1.0, "denoiser.c_max": 1.0})
        record, _ = run_experiment(cfg)
        nfes = [r.nfe for r in record.runs]
        assert abs(record.std_nfe - np.std(nfes, ddof=1)) < 1e-12

    def test_single_run_std_is_zero(self):
        cfg = build_config({"n": 4, "num_runs": 1})
        record, _ = run_experiment(cfg)
        assert record.std_nfe == 0.0

    def test_aggregates_ignore_row_order(self):
        cfg = build_config({"n": 8, "num_runs": 6, "warmstart.method": "token-injection",
                            "proposer.epsilon": 0.4})
        record, _ = run_experiment(cfg)
        before = (record.mean_nfe, record.std_nfe, record.exact_match_rate, record.mean_token_acc)
        record.runs.reverse()
        assert (record.mean_nfe, record.std_nfe, record.exact_match_rate,
                record.mean_token_acc) == before


def test_embedding_interpolation_shortens_decoding():
    base = {"n": 16, "vocab_size": 16, "embed_dim": 8, "num_runs": 10, "seed": 31,
            "denoiser.c0": 0.4, "denoiser.gamma": 0.6, "denoiser.c_max": 0.99,
            "decode.tau": 0.9}
    cold, _ = run_experiment(build_config(base))
    warm, _ = run_experiment(build_config({
        **base, "warmstart.method": "embedding-interpolation",
        "warmstart.alpha": 1.0, "warmstart.rho": 1.0,
        "denoiser.eta": 0.8, "proposer.epsilon": 0.0,
    }))
    assert warm.mean_nfe < cold.mean_nfe
    assert warm.mean_token_acc == 1.0


# Hand-built traces at the edges of the trace writer: no iterations, a capped
# decode, extreme floats, signed zeros, and iterations with several unmasks
# and remasks.
EDGE_TRACES = {
    "zero-iterations": RecordTrace([], np.array([3, 1, 0]), 0, False),
    "zero-positions": RecordTrace([], np.array([], dtype=np.int64), 0, False),
    "capped": RecordTrace(
        [IterationRecord(1, [(2, 0, 0.5)], [], 3), IterationRecord(2, [(0, 3, 0.25)], [], 2)],
        np.array([3, 4, 0, 4]), 2, True,
    ),
    "extreme-floats": RecordTrace(
        [
            IterationRecord(1, [(0, 1, 1.0), (1, 0, 5e-324)], [(3, 0.0)], 1),
            IterationRecord(2, [(3, 2, 0.9999999999999999)], [(2, 1.0)], 1),
            IterationRecord(3, [(2, 0, 1e-300)], [], 0),
        ],
        np.array([1, 0, 0, 2]), 3, False,
    ),
    "signed-zeros": RecordTrace(
        [
            IterationRecord(1, [(0, 1, 0.0), (1, 0, -0.0)], [(3, -0.0), (4, 0.0)], 3),
            IterationRecord(2, [(2, 2, -0.0), (3, 0, 0.0), (4, 1, 0.5)], [(1, 0.0), (2, -0.0)], 2),
        ],
        np.array([2, 5, 5, 0, 1]), 2, True,
    ),
    "several-per-iteration": RecordTrace(
        [
            IterationRecord(1, [(0, 1, 0.95), (2, 3, 0.1 + 0.2), (5, 0, 1 / 3)], [(1, 1.0), (3, 0.1), (4, 2.5e-17)], 3),
            IterationRecord(2, [(1, 2, 0.5), (3, 3, 0.75), (4, 0, 2.0**-52)], [], 0),
        ],
        np.array([1, 2, 3, 3, 0, 0]), 2, False,
    ),
}


class TestTraceFormat:
    @pytest.mark.parametrize("name", EDGE_TRACES)
    def test_edge_cases_match_the_reference_writer(self, name):
        trace = EDGE_TRACES[name]
        header = {"config": {"decode.tau": 0.9, "n": len(trace.final_tokens)}, "run": 7, "seed": 2**64 - 1}
        assert trace_lines(columnar(trace), header) == reference_trace_lines(trace, header)
        assert columnar(trace).iterations == trace.iterations

    def test_lines_are_json_with_contract_fields(self):
        cfg = build_config({"n": 6, "num_runs": 1, "warmstart.method": "token-injection",
                            "decode.remask_enabled": True, "proposer.epsilon": 0.4})
        result, trace, _ = run_one(cfg, 0)
        header = {"config": config_to_dict(cfg), "run": 0, "seed": result.seed}
        lines = trace_lines(trace, header)
        head = json.loads(lines[0])
        assert head["config"]["decode.tau"] == 0.9
        for line in lines[1:-1]:
            obj = json.loads(line)
            assert set(obj) == {"k", "unmasked", "remasked", "masked_after"}
            for u in obj["unmasked"]:
                assert set(u) == {"pos", "tok", "conf"}
            for r in obj["remasked"]:
                assert set(r) == {"pos", "rate"}
        tail = json.loads(lines[-1])
        assert tail["nfe"] == result.nfe
        assert tail["capped"] is False
        assert len(tail["final_tokens"]) == 6


class TestFloatReprMemo:
    """trace_lines takes float reprs from a process-wide memo; nothing it holds
    may change a byte of output."""

    HEADER = {"config": {"decode.tau": 0.9}, "run": 0, "seed": 1}

    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(harness, "_REPRS", {})

    def assert_written_like_the_reference(self, trace):
        assert trace_lines(columnar(trace), self.HEADER) == reference_trace_lines(trace, self.HEADER)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_signed_zeros_after_a_trace_that_held_a_zero(self, zero):
        self.assert_written_like_the_reference(
            RecordTrace([IterationRecord(1, [(0, 0, zero)], [(1, zero)], 1)], np.array([0, 3]), 1, True)
        )
        self.assert_written_like_the_reference(EDGE_TRACES["signed-zeros"])

    def test_more_distinct_floats_than_the_bound(self):
        bound = harness._REPRS_BOUND
        values = DeterministicRng(3).draws("conf", np.arange(bound + 500), 0).tolist()
        assert len(set(values)) == len(values) and 0.0 not in values

        def one_per_iteration(confs, rates):
            return RecordTrace(
                [IterationRecord(k, [(k, 0, c)], [(k, r)], 0) for k, (c, r) in enumerate(zip(confs, rates), 1)],
                np.array([0]), len(confs), False,
            )

        self.assert_written_like_the_reference(one_per_iteration(values[:bound], values[bound - 1 :: -1]))
        memo = harness._REPRS
        assert len(memo) == bound
        assert sys.getsizeof(memo) + sum(sys.getsizeof(x) + sys.getsizeof(s) for x, s in memo.items()) < 2**20
        self.assert_written_like_the_reference(one_per_iteration(values, values[::-1]))
        assert 0 < len(harness._REPRS) <= bound

    def test_a_trace_is_the_same_written_fresh_and_after_a_thousand_others(self):
        cfg = build_config({"n": 12, "num_runs": 1, "warmstart.method": "token-injection",
                            "decode.remask_enabled": True, "proposer.epsilon": 0.4})
        _, trace, _ = run_one(cfg, 0)
        fresh = trace_lines(trace, self.HEADER)
        rng = DeterministicRng(8)
        for i in range(1000):
            # Eight floats each, some of them the trace's own, some zeros of
            # either sign: 8000 entries, more than the memo holds.
            values = rng.draws("other", np.arange(8), i)
            values[:2] = trace.unmask_conf[i % len(trace.unmask_conf)], (-0.0, 0.0)[i % 2]
            other = RecordTrace([IterationRecord(1, [(p, 0, c) for p, c in enumerate(values[:4].tolist())],
                                                 list(enumerate(values[4:].tolist())), 0)], np.array([0]), 1, False)
            trace_lines(columnar(other), self.HEADER)
        assert trace_lines(trace, self.HEADER) == fresh
        assert fresh == reference_trace_lines(trace, self.HEADER)


class TestInvariantChecking:
    def test_clean_run_has_no_problems(self):
        cfg = build_config({"n": 12, "warmstart.method": "token-injection",
                            "decode.remask_enabled": True, "proposer.epsilon": 0.3, "num_runs": 4})
        assert validate_runs(cfg) == []

    def test_tampered_trace_is_caught(self):
        cfg = build_config({"n": 6, "num_runs": 1})
        _, trace, init = run_one(cfg, 0)
        trace.masked_after[0] += 1
        problems = check_trace_invariants(trace, init)
        assert any("masked_after" in p for p in problems)

    def test_fabricated_remask_is_caught(self):
        cfg = build_config({"n": 6, "num_runs": 1})
        _, trace, init = run_one(cfg, 0)
        trace.remask_counts[0] += 1
        trace.remask_pos = np.insert(trace.remask_pos, 0, 0)
        trace.remask_rate = np.insert(trace.remask_rate, 0, 0.5)
        problems = check_trace_invariants(trace, init)
        assert any("non-injected" in p for p in problems)

    @pytest.mark.parametrize("column", ["final_tokens", "unmask_tok"])
    def test_tokens_that_disagree_with_the_replay_are_caught(self, column):
        """A token changed in the final state or in an unmask record leaves
        every count as it was; only replaying init's tokens through the
        recorded unmasks and remasks sees it."""
        cfg = build_config({"n": 12, "warmstart.method": "token-injection", "warmstart.rho": 0.5,
                            "decode.remask_enabled": True, "decode.b0": 1.0, "proposer.epsilon": 0.5,
                            "num_runs": 1})
        _, trace, init = run_one(cfg, 0)
        assert check_trace_invariants(trace, init) == []
        assert trace.remask_pos.size > 0
        values = getattr(trace, column)
        values[0] = (values[0] + 1) % init.vocab.size
        problems = check_trace_invariants(trace, init)
        assert any("replayed" in p for p in problems)

    def test_missing_progress_is_caught(self):
        cfg = build_config({"n": 6, "num_runs": 1, "denoiser.c0": 0.3, "denoiser.gamma": 0.0,
                            "denoiser.c_max": 0.3})
        _, trace, init = run_one(cfg, 0)
        assert trace.unmask_counts.tolist() == [1] * 6
        trace.unmask_counts[2] = 0
        for name in ("unmask_pos", "unmask_tok", "unmask_conf"):
            setattr(trace, name, np.delete(getattr(trace, name), 2))
        problems = check_trace_invariants(trace, init)
        assert any("no position unmasked" in p for p in problems)

    def test_confidence_one_ulp_above_one_is_caught(self):
        cfg = build_config({"n": 6, "num_runs": 1, "denoiser.c0": 1.0, "denoiser.c_max": 1.0})
        _, trace, init = run_one(cfg, 0)
        assert check_trace_invariants(trace, init) == []
        assert trace.unmask_conf.tolist() == [1.0] * 6
        trace.unmask_conf[0] = np.nextafter(1.0, 2.0)
        problems = check_trace_invariants(trace, init)
        assert any("outside [0, 1]" in p for p in problems)

    @pytest.mark.parametrize("column", [
        "unmask_counts", "unmask_pos", "unmask_tok", "unmask_conf",
        "remask_counts", "remask_pos", "remask_rate", "masked_after",
    ])
    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_columns_that_disagree_in_length_are_reported(self, column, change):
        cfg = build_config({"n": 12, "warmstart.method": "token-injection", "warmstart.rho": 0.5,
                            "decode.remask_enabled": True, "decode.b0": 1.0, "proposer.epsilon": 0.5,
                            "num_runs": 1})
        _, trace, init = run_one(cfg, 0)
        assert check_trace_invariants(trace, init) == []
        assert trace.remask_pos.size > 0
        values = getattr(trace, column)
        setattr(trace, column, np.append(values, values[-1:]) if change == "extra" else values[:-1])
        problems = check_trace_invariants(trace, init)
        assert problems and all(p.startswith("column ") for p in problems)

    def test_negative_count_is_reported(self):
        cfg = build_config({"n": 6, "num_runs": 1, "denoiser.c0": 0.3, "denoiser.gamma": 0.0,
                            "denoiser.c_max": 0.3})
        _, trace, init = run_one(cfg, 0)
        trace.unmask_counts[:2] = [-1, 3]
        problems = check_trace_invariants(trace, init)
        assert problems == ["unmask_counts or remask_counts holds a negative count"]

    def test_nfe_disagreeing_with_the_columns_is_caught(self):
        cfg = build_config({"n": 6, "num_runs": 1})
        _, trace, init = run_one(cfg, 0)
        trace.nfe += 1
        problems = check_trace_invariants(trace, init)
        assert any("iterations recorded" in p for p in problems)
