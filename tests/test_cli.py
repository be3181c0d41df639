import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from warmdiff import cli
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


class TestRun:
    def test_prints_summary_and_exits_zero(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.txt", BASIC)
        assert cli.main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "runs = 3" in out
        assert "mean_nfe = 1.0" in out
        assert "exact_match_rate = 1.0" in out

    def test_writes_csv_and_trace(self, tmp_path, capsys):
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

    @pytest.mark.parametrize("flag", ["--csv", "--trace"])
    def test_unwritable_output_exits_one(self, tmp_path, capsys, flag):
        cfg = write(tmp_path / "cfg.txt", BASIC)
        target = tmp_path / "missing-dir" / "out.txt"
        assert cli.main(["run", "--config", cfg, flag, str(target)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write {target}: No such file or directory"]

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
