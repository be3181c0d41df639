"""Tiny-size smoke tests of the benchmark.

Run from the repository root: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import measure  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from warmdiff import core, decoder, harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "core.state.masked_calls_per_nfe",
    "core.rng.draws_per_run",
    "bigram.row_queries_per_nfe",
    "decoder.remask.accept_ratio",
    "decoder.nfe_per_run",
    "decoder.unmasked_per_nfe",
    "decoder.forced_share",
    "decoder.capped_runs",
    "warmstart.injected_share",
    "harness.serialize.bytes_per_run",
    "harness.exact_match_rate",
    "harness.mean_token_acc",
)


def _measure(tmp_path: Path, name: str, trace: bool, seed: int = 3) -> dict:
    work = tmp_path / "work"
    work.mkdir()
    try:
        return measure.measure(name, seed, 0.0, trace, work, tiny=True)
    finally:
        shutil.rmtree(work)


def test_spec_names_the_benchmarks_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_reported_with_its_unit_and_digests_agree(tmp_path, name):
    reports = {trace: _measure(tmp_path, name, trace) for trace in (False, True)}
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        report = reports[trace]
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: unit for k, (_, unit) in report["metrics"].items()} == expected
        assert report["failed"] == 0 and report["problems"] == []
        assert report["digests_match"] and report["tracer_restored"]
    assert reports[False]["csv_sha256"] == reports[True]["csv_sha256"]
    assert reports[False]["trace_sha256"] == reports[True]["trace_sha256"]
    assert reports[False]["metrics"]["run_ms_p50"][0] > 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_exact_counts_repeat(tmp_path, name):
    first, again = (_measure(tmp_path, name, True)["metrics"] for _ in range(2))
    for key in EXACT_COUNTS:
        assert first[key] == again[key], key


def test_inputs_follow_the_seed(tmp_path):
    wl = workloads.get("markov-sweep", tiny=True)
    texts = []
    for i, seed in enumerate((1, 1, 2)):
        path = tmp_path / f"corpus{i}.txt"
        workloads.write_corpus(path, wl, seed)
        texts.append((path.read_text(), workloads.config_text(wl, seed, None)))
    assert texts[0] == texts[1]
    assert texts[0][0] != texts[2][0] and texts[0][1] != texts[2][1]


def test_tracer_wraps_what_callers_resolve_and_restores_it():
    originals = {
        "decoder.softmax": decoder.softmax,
        "core.softmax": core.softmax,
        "harness.decode": harness.decode,
        "draw": vars(core.DeterministicRng)["draw"],
        "random": vars(core.EmbeddingTable)["random"],
    }
    tracer = Tracer()
    patches = measure.install_tracer(tracer, measure)
    try:
        assert decoder.softmax is not originals["decoder.softmax"]
        assert core.softmax is not originals["core.softmax"]
        cfg = harness.build_config({"n": 8, "vocab_size": 8, "num_runs": 1})
        _, trace, _ = harness.run_one(cfg, 0, harness.build_resources(cfg))
    finally:
        assert patches.restore()
    assert tracer.calls["core.softmax"] == trace.nfe
    assert tracer.calls["denoiser.oracle"] == trace.nfe
    assert tracer.calls["harness.build_resources"] == 1
    assert tracer.keyed["core.rng", "embed-table"] == 9 * 8  # (V + 1) x embed_dim
    assert decoder.softmax is originals["decoder.softmax"] is core.softmax
    assert harness.decode is originals["harness.decode"]
    assert vars(core.DeterministicRng)["draw"] is originals["draw"]
    assert vars(core.EmbeddingTable)["random"] is originals["random"]


def test_without_engine_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "oracle-embed", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
