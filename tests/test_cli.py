import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from warmdiff import cli, harness
from warmdiff.harness import CSV_COLUMNS


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


BASIC = "n = 8\nnum_runs = 3\ndenoiser.c0 = 1.0\ndenoiser.c_max = 1.0\n"


def package_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("command", ["run --config", "sweep --grid"])
def test_closed_stdout_exits_one_without_a_traceback(tmp_path, command):
    """A reader that is gone before the first write (as with `| head`) gives
    exit code 1 and one line on stderr."""
    cfg = write(tmp_path / "cfg.txt", BASIC)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "warmdiff", *command.split(), cfg],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=30, env=package_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: standard output was closed"]


def test_run_trace_memory_is_flat_in_the_number_of_runs(tmp_path):
    """`run --trace` writes each run's trace as the run finishes and keeps
    none, so a child's peak RSS barely grows from 200 to 1,000 runs of a
    remasking n = 64 config. Measured on a 2-core VM: 0.3 MB of growth
    (34.6 -> 34.9 MB), against 23.6 MB (39.0 -> 62.7 MB) when every trace
    was held until the last run ended."""
    # Linux carries a process's peak RSS across fork and exec, so the run is
    # started from a small interpreter, which reports its child's peak.
    report = (
        "import resource, subprocess, sys\n"
        "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )

    def peak_mb(runs):
        cfg = write(tmp_path / f"cfg-{runs}.txt", (
            f"n = 64\nvocab_size = 64\nnum_runs = {runs}\nseed = 3\n"
            'warmstart.method = "token-injection"\nwarmstart.rho = 0.9\nproposer.epsilon = 0.1\n'
            "decode.remask_enabled = true\ndecode.b0 = 0.01\ndecode.lambda = 0.002\n"
        ))
        command = [sys.executable, "-m", "warmdiff", "run", "--config", cfg, "--trace", str(tmp_path / "t.jsonl")]
        proc = subprocess.run(
            [sys.executable, "-c", report, *command], capture_output=True, text=True, timeout=60, env=package_env()
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux

    assert peak_mb(1000) - peak_mb(200) < 8


class TestRun:
    def test_prints_summary_and_exits_zero(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.txt", BASIC)
        assert cli.main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "runs = 3" in out
        assert "mean_nfe = 1.0" in out
        assert "exact_match_rate = 1.0" in out

    def test_writes_csv_and_trace(self, tmp_path, capsys, monkeypatch):
        cfg = write(tmp_path / "cfg.txt", BASIC)
        csv_path = tmp_path / "rows.csv"
        trace_path = tmp_path / "trace.jsonl"
        code = cli.main(
            ["run", "--config", cfg, "--csv", str(csv_path), "--trace", str(trace_path)]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 3
        trace = trace_path.read_text().splitlines()
        head = json.loads(trace[0])
        assert head["run"] == 0
        assert head["config"]["n"] == 8
        capsys.readouterr()
        # Each run's trace lines are written as the run finishes, and the
        # file holds those of run_one's traces, joined in run order.
        run_one, write_lines = harness.run_one, cli.trace_lines
        events = []
        monkeypatch.setattr(harness, "run_one", lambda *args: events.append(("run", args[1])) or run_one(*args))
        monkeypatch.setattr(cli, "trace_lines", lambda t, head: events.append(("write", head["run"])) or write_lines(t, head))
        for text in (
            'n = 12\nnum_runs = 5\nseed = 4\nwarmstart.method = "token-injection"\nwarmstart.rho = 0.75\n'
            "proposer.epsilon = 0.5\ndecode.remask_enabled = true\n",
            'n = 12\nnum_runs = 5\nseed = 4\nwarmstart.method = "embedding-interpolation"\nwarmstart.rho = 0.5\n'
            "denoiser.eta = 0.5\n",
        ):
            events.clear()
            assert cli.main(["run", "--config", write(tmp_path / "cfg.txt", text), "--trace", str(trace_path)]) == 0
            capsys.readouterr()
            assert events == [event for r in range(5) for event in (("run", r), ("write", r))]
            config = harness.load_config(str(tmp_path / "cfg.txt"))
            lines = []
            for r in range(config.num_runs):
                result, decoded, _ = run_one(config, r)
                header = {"config": harness.config_to_dict(config), "run": r, "seed": result.seed}
                lines += write_lines(decoded, header)
            assert trace_path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.txt", "nn = 8\n")
        assert cli.main(["run", "--config", cfg]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.txt")]) == 1
        capsys.readouterr()

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"n = 8\n# \xff\xfe\n")
        assert cli.main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: cannot read config file {cfg}")

    @pytest.mark.parametrize("flag, runs", [("--csv", 3), ("--trace", 0)], ids=["--csv", "--trace"])
    def test_unwritable_output_exits_one(self, tmp_path, capsys, monkeypatch, flag, runs):
        """The CSV is written after the runs; the trace file is opened
        before them, so a trace path that cannot be written costs no run."""
        calls = []
        run_one = harness.run_one
        monkeypatch.setattr(harness, "run_one", lambda *args: calls.append(args) or run_one(*args))
        cfg = write(tmp_path / "cfg.txt", BASIC)
        target = tmp_path / "missing-dir" / "out.txt"
        assert cli.main(["run", "--config", cfg, flag, str(target)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write {target}: No such file or directory"]
        assert len(calls) == runs

    def test_non_finite_eta_exits_one(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "cfg.txt",
            'warmstart.method = "embedding-interpolation"\ndenoiser.eta = inf\n',
        )
        assert cli.main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: denoiser.eta expects a finite number, got inf"]


    @pytest.mark.parametrize(
        "line",
        [f"vocab_size = {'9' * 400}", f"embed_dim = {'9' * 400}", "vocab_size = 100000000000", "n = 100000000"],
        ids=["vocab_size-400-digits", "embed_dim-400-digits", "vocab_size-1e11", "n-1e8"],
    )
    def test_oversized_config_exits_one_promptly(self, tmp_path, line):
        """Sizes that would exhaust memory or run for hours are config errors,
        reported before any array is allocated or target drawn."""
        cfg = write(tmp_path / "cfg.txt", line + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "warmdiff", "run", "--config", cfg],
            capture_output=True, text=True, timeout=10, env=package_env(),
        )
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and "<= 16777216" in err[0]


    def test_bigram_config_beyond_the_table_bound_exits_one(self, tmp_path):
        """n * vocab_size = 2^24 passes the run's own bound, but the bigram
        model's (vocab_size + 1)^2 tables would hold 2^40 entries: a config
        error, reported before the corpus is read."""
        corpus = write(tmp_path / "corpus.txt", "0 1 2 3\n")
        text = f'n = 16\nvocab_size = 1048576\ndenoiser.kind = "markov"\ncorpus.path = "{corpus}"\n'
        cfg = write(tmp_path / "cfg.txt", text)
        proc = subprocess.run(
            [sys.executable, "-m", "warmdiff", "run", "--config", cfg],
            capture_output=True, text=True, timeout=30, env=package_env(),
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        err = proc.stderr.splitlines()
        assert err == ["config error: a bigram model needs (vocab_size + 1)**2 <= 16777216 table entries"]

    @pytest.mark.parametrize(
        "needs_bigram",
        [
            'denoiser.kind = "markov"',
            'target_source = "corpus"',
            'proposer.kind = "markov"\nwarmstart.method = "token-injection"',
        ],
        ids=["markov-denoiser", "corpus-target", "markov-proposer"],
    )
    def test_bigram_table_bound_is_inclusive(self, tmp_path, capsys, monkeypatch, needs_bigram):
        """With the bound at 25 entries, vocab_size = 4 fills a bigram table
        exactly and runs; vocab_size = 5 does not. An oracle-only config of
        vocab_size = 24 still runs: it fits no bigram model."""
        monkeypatch.setattr(harness, "MAX_ENTRIES", 25)
        corpus = write(tmp_path / "corpus.txt", "0 1 2 3 0 1 2 3\n")
        small = f'n = 4\nembed_dim = 1\nnum_runs = 2\ncorpus.path = "{corpus}"\n{needs_bigram}\n'
        assert cli.main(["run", "--config", write(tmp_path / "v4.txt", small + "vocab_size = 4\n")]) == 0
        capsys.readouterr()
        assert cli.main(["run", "--config", write(tmp_path / "v5.txt", small + "vocab_size = 5\n")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: a bigram model needs (vocab_size + 1)**2 <= 25 table entries"]
        oracle_only = "n = 1\nembed_dim = 1\nnum_runs = 2\nvocab_size = 24\n"
        assert cli.main(["run", "--config", write(tmp_path / "oracle.txt", oracle_only)]) == 0
        capsys.readouterr()

    def test_markov_pair_table_bound_is_inclusive(self, tmp_path, capsys, monkeypatch):
        """With the bound at 100 operations, the markov denoiser's pair
        tables at vocab_size = 4 take exactly (4 + 1)^2 * 4 = 100 and run;
        vocab_size = 5 does not, reported before the corpus is read. Models
        that never build the tables still run at vocab_size = 5."""
        monkeypatch.setattr(harness, "MAX_PAIR_TABLE_OPS", 100)
        corpus = write(tmp_path / "corpus.txt", "0 1 2 3 0 1 2 3\n")
        base = "n = 4\nembed_dim = 1\nnum_runs = 2\n"
        markov = base + f'denoiser.kind = "markov"\ncorpus.path = "{corpus}"\nvocab_size = 4\n'
        assert cli.main(["run", "--config", write(tmp_path / "v4.txt", markov)]) == 0
        capsys.readouterr()
        unread = base + f'denoiser.kind = "markov"\ncorpus.path = "{tmp_path / "absent.txt"}"\nvocab_size = 5\n'
        trace = tmp_path / "trace.jsonl"
        assert cli.main(["run", "--config", write(tmp_path / "v5.txt", unread), "--trace", str(trace)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: the markov denoiser needs (vocab_size + 1)**2 * vocab_size <= 100 operations"]
        assert not trace.exists()
        for other in ('target_source = "corpus"', 'proposer.kind = "markov"\nwarmstart.method = "token-injection"'):
            text = base + f'corpus.path = "{corpus}"\nvocab_size = 5\n{other}\n'
            assert cli.main(["run", "--config", write(tmp_path / "other.txt", text)]) == 0
            capsys.readouterr()


class TestSweep:
    GRID = (
        "n = 8\nnum_runs = 2\ndenoiser.c0 = 1.0\ndenoiser.c_max = 1.0\n"
        'warmstart.method = "none", "token-injection"\n'
    )

    def test_stdout_csv(self, tmp_path, capsys):
        grid = write(tmp_path / "grid.txt", self.GRID)
        assert cli.main(["sweep", "--grid", grid]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 2

    def test_out_file(self, tmp_path, capsys):
        grid = write(tmp_path / "grid.txt", self.GRID)
        out = tmp_path / "results.csv"
        assert cli.main(["sweep", "--grid", grid, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
        capsys.readouterr()

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        grid = write(tmp_path / "grid.txt", self.GRID)
        assert cli.main(["sweep", "--grid", grid, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {tmp_path}: ")

    def test_grid_ids_enumerate_points(self, tmp_path, capsys):
        grid = write(tmp_path / "grid.txt", self.GRID)
        cli.main(["sweep", "--grid", grid])
        lines = capsys.readouterr().out.splitlines()[1:]
        assert sorted({line.split(",")[0] for line in lines}) == ["0", "1"]


class TestValidate:
    def test_clean_config_exits_zero(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "cfg.txt",
            'n = 10\nnum_runs = 4\nwarmstart.method = "token-injection"\n'
            "proposer.epsilon = 0.3\ndecode.remask_enabled = true\n",
        )
        assert cli.main(["validate", "--config", cfg]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_violation_exits_two(self, tmp_path, capsys, monkeypatch):
        cfg = write(tmp_path / "cfg.txt", BASIC)
        monkeypatch.setattr(cli, "validate_runs", lambda _cfg: ["run 0: fabricated problem"])
        assert cli.main(["validate", "--config", cfg]) == 2
        assert "fabricated problem" in capsys.readouterr().err


def test_subcommand_required():
    with pytest.raises(SystemExit):
        cli.main([])
