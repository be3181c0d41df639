"""Passes over one workload and the metrics they give.

A batch is the work of one `warmdiff sweep --out` invocation, or of one
`warmdiff run --csv [--trace]` invocation per config: every decode of the
workload, then its output written. One measurement makes three kinds of pass
over the same batch:

- a replay from a fresh set-up, untraced, one batch: the reference output
  (and warm-up);
- an untraced pass: the end-to-end timings;
- a traced pass: the per-layer split.

The pass that matches the mode runs whole batches for the requested seconds,
the other runs one batch. Every decode of every pass is checked outside the
timed region: its trace must satisfy `check_trace_invariants`, and its CSV
row and trace bytes must equal the replay's. Times are scaled to a reference
machine speed read by `calibrate`.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import struct
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from warmdiff import core, decoder, denoiser, harness, proposal, warmstart
from warmdiff.bigram import BigramModel

import workloads
from tracing import Patches, Tracer, package_modules

# Purpose labels the engine passes to DeterministicRng.draw.
RNG_PURPOSES = (
    "target",
    "target-seq",
    "target-off",
    "proposal-corrupt",
    "proposal-corrupt-choice",
    "proposal-markov",
    "inject-gate",
    "embed-drop",
    "remask",
    "embed-table",
)

# Self time of each span or leaf name is charged to the layer its prefix names.
LAYERS = ("core", "denoiser.oracle", "denoiser.markov", "bigram", "decoder", "proposal", "warmstart", "harness", "bench")

# Every reported time is scaled to the machine speed at which `calibrate`
# takes this long.
CALIBRATION_REF_S = 1e-3
_CAL_LOGITS = np.log(np.linspace(0.01, 1.0, 64 * 64).reshape(64, 64))
_CAL_ROWS = np.linspace(-1.0, 1.0, 72 * 64).reshape(72, 64)
_CAL_KEY = struct.pack("<Q", 7)

SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 101
SETUP_BUDGET_S = 1.0


def write_lines(path: Path, lines: list[str]) -> int:
    """Write lines the way the CLI writes its CSV and trace files; returns bytes."""
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    return len(text)  # CSV and json.dumps output are ASCII


def calibrate() -> float:
    """Seconds taken by fixed work shaped like decoding.

    Row softmax and selection on a 64 x 64 matrix, cosines of short vectors,
    keyed blake2b draws and small-object churn. It is the benchmark's own
    code, so changes to the engine do not move it, but other tenants of a
    shared machine slow it much as they slow the engine: in a 90-second probe
    on a 2-core VM, the engine's time for fixed work had an interquartile
    spread of 42%, and its time relative to this calibration one of 8%.
    """
    t0 = perf_counter()
    tokens = np.full(64, 64)
    acc = 0.0
    for k in range(8):
        e = np.exp(_CAL_LOGITS - _CAL_LOGITS.max(axis=1, keepdims=True))
        pi = e / e.sum(axis=1, keepdims=True)
        conf = pi.max(axis=1)
        hits = np.flatnonzero((tokens == 64) & (conf > 0.5))
        tokens[k * 8] = int(pi[k].argmax())
        for i in range(8):
            u, v = _CAL_ROWS[i + k], _CAL_ROWS[71 - i]
            acc += float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
            digest = hashlib.blake2b(b"cal" + struct.pack("<qq", i, k), digest_size=8, key=_CAL_KEY).digest()
            acc += int.from_bytes(digest, "little") / 2.0**64
        acc += len(json.dumps({"k": k, "hits": [(int(p), float(conf[p])) for p in hits[:8]]}))
    return perf_counter() - t0


def trace_header(cfg, result) -> dict:
    return {"config": harness.config_to_dict(cfg), "run": result.run, "seed": result.seed}


# ---------------------------------------------------------------------------
# Set-up and batches


def set_up(config_paths: list[Path]):
    """Config parse, build_config and build_resources for every grid point."""
    grids, points = [], []
    for path in config_paths:
        overrides = harness.load_grid(str(path))
        grids.append(overrides)
        for point in harness.expand_grid(overrides):
            cfg = harness.build_config(point)
            points.append((cfg, harness.build_resources(cfg)))
    return grids, points


@dataclass
class Batch:
    decodes: list  # (cfg, RunResult, DecodeTrace, initial DiffusionState) per decode
    latencies: list[float]  # seconds per run_one call
    calibrations: list[float]  # `calibrate` seconds, read before each run_one call
    wall: float  # calibrations excluded
    csv: list[str]
    traces: list[list[str]] | None  # per-decode trace lines, when the workload writes them
    written: int  # bytes written


class Runner:
    """Runs batches of one workload from a finished set-up."""

    def __init__(self, wl: workloads.Workload, setup, out_dir: Path):
        self.wl = wl
        self.grids, self.points = setup
        self.out_dir = out_dir

    def batch(self, tracer: Tracer | None = None) -> Batch:
        decodes: list = []
        latencies: list[float] = []
        calibrations: list[float] = []
        run_one = harness.run_one
        # Traced, the calibration's time is kept off whichever span encloses it.
        read_speed = calibrate if tracer is None else tracer.leaf("bench.calibrate", calibrate)

        def probe(cfg, run_index, resources=None):
            calibrations.append(read_speed())
            t0 = perf_counter()
            out = run_one(cfg, run_index, resources)
            latencies.append(perf_counter() - t0)
            decodes.append((cfg, *out))
            return out

        work = self._work if tracer is None else tracer.span("bench.batch", self._work)
        patches = Patches()
        patches.function(run_one, probe, package_modules("warmdiff"))
        try:
            t0 = perf_counter()
            csv, traces, written = work(decodes)
            wall = perf_counter() - t0 - sum(calibrations)
        finally:
            if not patches.restore():
                raise RuntimeError("run_one probe was not removed")
        return Batch(decodes, latencies, calibrations, wall, csv, traces, written)

    def _work(self, decodes: list):
        if self.wl.sweep:
            records = [record for grid in self.grids for record in harness.sweep(grid)]
        else:
            records = []
            for grid_id, (cfg, resources) in enumerate(self.points):
                record = harness.MetricsRecord(
                    grid_id=grid_id,
                    method=cfg.warmstart.method,
                    rho=cfg.warmstart.rho,
                    alpha=cfg.warmstart.alpha,
                    epsilon=cfg.epsilon,
                    tau=cfg.decode.tau,
                    b0=cfg.decode.b0,
                    lam=cfg.decode.lam,
                )
                for r in range(cfg.num_runs):
                    result, _, _ = harness.run_one(cfg, r, resources)
                    record.runs.append(result)
                records.append(record)
        csv = harness.csv_lines(records)
        written = write_lines(self.out_dir / "results.csv", csv)
        traces = None
        if self.wl.writes_trace:
            traces = [harness.trace_lines(trace, trace_header(cfg, result)) for cfg, result, trace, _ in decodes]
            written += write_lines(self.out_dir / "trace.jsonl", [line for lines in traces for line in lines])
        return csv, traces, written


# ---------------------------------------------------------------------------
# Correctness gate


@dataclass
class Counts:
    """Exact per-batch counts taken from the decode traces."""

    runs: int = 0
    nfe: int = 0
    unmasked: int = 0
    forced: int = 0
    remasked: int = 0
    capped: int = 0
    injected: int = 0
    positions: int = 0
    exact: int = 0
    token_acc: float = 0.0


@dataclass
class Checker:
    reference: list[bytes] | None = None  # per-decode digests of the replay
    csv_sha256: str = ""
    trace_sha256: str = ""
    counts: Counts | None = None
    attempted: int = 0
    failed: int = 0
    digests_match: bool = True
    problems: list[str] = field(default_factory=list)

    def check(self, batch: Batch) -> Counts:
        counts = Counts()
        trace_hash = hashlib.sha256()
        digests = []
        for i, (cfg, result, trace, init) in enumerate(batch.decodes):
            lines = batch.traces[i] if batch.traces is not None else harness.trace_lines(trace, trace_header(cfg, result))
            text = "\n".join(lines) + "\n"
            trace_hash.update(text.encode())
            digest = hashlib.sha256((batch.csv[i + 1] + "\n" + text).encode()).digest()
            digests.append(digest)
            problems = harness.check_trace_invariants(trace, init)
            if self.reference is not None and (i >= len(self.reference) or digest != self.reference[i]):
                problems.append("output bytes differ from the replay")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"decode {i}: {p}" for p in problems[: max(0, 3 - len(self.problems))])
            _count(counts, cfg, result, trace, init)
        csv_sha256 = hashlib.sha256(("\n".join(batch.csv) + "\n").encode()).hexdigest()
        if self.reference is None:
            self.reference = digests
            self.csv_sha256, self.trace_sha256 = csv_sha256, trace_hash.hexdigest()
            self.counts = counts
        elif (csv_sha256, trace_hash.hexdigest()) != (self.csv_sha256, self.trace_sha256) or counts != self.counts:
            self.digests_match = False
        return counts


def _count(counts: Counts, cfg, result, trace, init):
    tau = cfg.decode.tau
    counts.runs += 1
    counts.nfe += trace.nfe
    for rec in trace.iterations:
        counts.unmasked += len(rec.unmasked)
        counts.forced += sum(1 for _, _, conf in rec.unmasked if not conf > tau)
        counts.remasked += len(rec.remasked)
    counts.capped += trace.capped
    counts.injected += len(init.injected)
    counts.positions += len(init.tokens)
    counts.exact += result.exact_match
    counts.token_acc += result.token_acc


# ---------------------------------------------------------------------------
# Passes


@dataclass
class PassStats:
    batches: int = 0
    runs: int = 0
    nfe: int = 0
    written: int = 0
    walls: list[float] = field(default_factory=list)  # seconds per batch
    latencies: list[list[float]] = field(default_factory=list)  # seconds per run_one call, per batch
    scales: list[float] = field(default_factory=list)  # per batch: reference speed / speed

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def scale(self) -> float:
        return statistics.median(self.scales)


def run_pass(runner: Runner, checker: Checker, seconds: float, tracer: Tracer | None = None) -> PassStats:
    """Whole batches until their summed wall time reaches `seconds` (at least one)."""
    stats = PassStats()
    while stats.wall < seconds or not stats.batches:
        batch = runner.batch(tracer)
        with tracer.paused() if tracer else nullcontext():
            counts = checker.check(batch)
        stats.batches += 1
        stats.runs += counts.runs
        stats.nfe += counts.nfe
        stats.written += batch.written
        stats.walls.append(batch.wall)
        stats.latencies.append(batch.latencies)
        stats.scales.append(CALIBRATION_REF_S / statistics.median(batch.calibrations))
    return stats


def install_tracer(tracer: Tracer, bench_module) -> Patches:
    """Wrap each layer's public functions wherever the engine resolves them."""
    patches = Patches()
    modules = package_modules("warmdiff")
    spans = [
        (harness.run_one, "harness.run_one"),
        (harness.sweep, "harness.sweep"),
        (harness.load_grid, "harness.load_grid"),
        (harness.build_config, "harness.build_config"),
        (harness.build_resources, "harness.build_resources"),
        (harness.csv_lines, "harness.csv_lines"),
        (harness.trace_lines, "harness.trace_lines"),
        (harness.load_corpus, "bigram.load_corpus"),
        (denoiser.noisy_oracle_logits, "denoiser.oracle"),
        (denoiser.markov_logits, "denoiser.markov"),
        (proposal.propose_corrupted, "proposal.corrupted"),
        (proposal.propose_markov, "proposal.markov"),
        (warmstart.warm_init, "warmstart.warm_init"),
        (decoder.decode, "decoder.decode"),
        (core.softmax, "core.softmax"),
        (decoder.confidences, "decoder.confidences"),
        (decoder.select_unmask, "decoder.select"),
        (decoder.remask_rates, "decoder.remask_rates"),
        (decoder.apply_remask, "decoder.apply_remask"),
    ]
    for fn, name in spans:
        patches.function(fn, tracer.span(name, fn, opens_run=fn is harness.run_one), modules)
    patches.function(bench_module.write_lines, tracer.span("harness.write", bench_module.write_lines), [bench_module])
    patches.method(core.EmbeddingTable, "random", lambda fn: tracer.span("core.embed_table", fn))
    patches.method(BigramModel, "fit", lambda fn: tracer.span("bigram.fit", fn))
    for attr in ("next_probs", "prev_probs", "unigram"):
        patches.method(BigramModel, attr, lambda fn: tracer.leaf("bigram.query", fn))
    patches.method(core.DeterministicRng, "draw", lambda fn: tracer.leaf("core.rng", fn, key_arg=1))
    patches.method(core.DiffusionState, "masked", lambda fn: tracer.leaf("core.state.masked", fn, timed=False))
    return patches


# ---------------------------------------------------------------------------
# Metrics


def _layer(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


def end_to_end_metrics(untraced: PassStats, setup_s: float, peak_rss_mb: float) -> dict:
    """Timings of one batch at reference speed, each part the median of its repeats.

    Each batch's times are scaled by the calibrations read beside its runs.
    Every batch decodes the same runs, so each run's latency is the median
    of its scaled repeats, and so is the batch's time outside run_one
    (serialization, resource rebuilds in a sweep).
    """
    scaled = [[t * f for t in lat] for lat, f in zip(untraced.latencies, untraced.scales)]
    runs = [statistics.median(repeats) for repeats in zip(*scaled)]
    rest = statistics.median((wall - sum(lat)) * f for wall, lat, f in zip(untraced.walls, untraced.latencies, untraced.scales))
    wall = sum(runs) + rest
    return {
        "runs_per_s": (len(runs) / wall, "1/s"),
        "us_per_nfe": (wall * 1e6 / (untraced.nfe / untraced.batches), "us"),
        "run_ms_p50": (statistics.median(runs) * 1e3, "ms"),
        "run_ms_p99": (_percentile(runs, 99) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def per_layer_metrics(
    traced: PassStats, t: Tracer, setup: Tracer, setup_reps: int, setup_scale: float, counts: Counts, untraced: PassStats
) -> dict:
    """Per-layer metrics of the traced pass; set-up layers are per set-up.

    Times are scaled to reference speed like the end-to-end ones; the
    calibrations read inside each batch count in no layer.
    """
    S, C, K = t.self_s, t.calls, t.keyed
    runs, nfe = traced.runs, traced.nfe
    us = 1e6 * traced.scale

    def per_call(name):
        return S[name] * us / C[name] if C[name] else 0.0

    def per_setup(name):
        return setup.total_s[name] * setup_scale / setup_reps

    remask_draws = K["core.rng", "remask"]
    remasks = counts.remasked * traced.batches
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, s in S.items():
        if name != "bench.calibrate":
            layer_self[_layer(name)] += s
    root = t.total_s["bench.batch"] - S["bench.calibrate"]
    untraced_per_run = untraced.wall * untraced.scale / untraced.runs
    traced_per_run = traced.wall * traced.scale / traced.runs

    m = {
        "core.softmax.us_per_nfe": (S["core.softmax"] * us / nfe, "us"),
        "core.state.masked_calls_per_nfe": (C["core.state.masked"] / nfe, "count"),
        "core.rng.draws_per_run": (C["core.rng"] / runs, "count"),
    }
    for purpose in RNG_PURPOSES:
        m[f"core.rng.draws_per_run.{purpose}"] = (K["core.rng", purpose] / runs, "count")
    m.update(
        {
            "core.rng.us_per_run": (S["core.rng"] * us / runs, "us"),
            "core.embed_table.s": (per_setup("core.embed_table"), "s"),
            "denoiser.oracle.us_per_call": (per_call("denoiser.oracle"), "us"),
            "denoiser.markov.us_per_call": (per_call("denoiser.markov"), "us"),
            "bigram.row_queries_per_nfe": (C["bigram.query"] / nfe, "count"),
            "bigram.query.us_per_nfe": (S["bigram.query"] * us / nfe, "us"),
            "bigram.fit_s": (per_setup("bigram.fit"), "s"),
            "bigram.load_corpus_s": (per_setup("bigram.load_corpus"), "s"),
            "decoder.self_us_per_nfe": (S["decoder.decode"] * us / nfe, "us"),
            "decoder.confidences.us_per_nfe": (S["decoder.confidences"] * us / nfe, "us"),
            "decoder.select.us_per_nfe": (S["decoder.select"] * us / nfe, "us"),
            "decoder.remask.us_per_nfe": ((S["decoder.remask_rates"] + S["decoder.apply_remask"]) * us / nfe, "us"),
            "decoder.remask.accept_ratio": (remasks / remask_draws if remask_draws else 0.0, "ratio"),
            "decoder.nfe_per_run": (counts.nfe / counts.runs, "count"),
            "decoder.unmasked_per_nfe": (counts.unmasked / counts.nfe, "count"),
            "decoder.forced_share": (counts.forced / counts.unmasked, "share"),
            "decoder.capped_runs": (counts.capped, "count"),
            "proposal.us_per_run": ((S["proposal.corrupted"] + S["proposal.markov"]) * us / runs, "us"),
            "warmstart.us_per_run": (S["warmstart.warm_init"] * us / runs, "us"),
            "warmstart.injected_share": (counts.injected / counts.positions, "share"),
            "harness.run_one.self_us_per_run": (S["harness.run_one"] * us / runs, "us"),
            "harness.serialize.us_per_run": (
                (S["harness.csv_lines"] + S["harness.trace_lines"] + S["harness.write"]) * us / runs,
                "us",
            ),
            "harness.serialize.bytes_per_run": (traced.written / runs, "bytes"),
            "harness.exact_match_rate": (counts.exact / counts.runs, "share"),
            "harness.mean_token_acc": (counts.token_acc / counts.runs, "share"),
            "trace.overhead_share": (1.0 - untraced_per_run / traced_per_run, "share"),
        }
    )
    for layer in LAYERS:
        m[f"self_share.{layer}"] = (layer_self[layer] / root, "share")
    return m


# ---------------------------------------------------------------------------
# One measurement


def measure(name: str, seed: int, seconds: float, trace: bool, work_dir: Path, tiny: bool = False) -> dict:
    """Set up, replay, and run the untraced and traced passes of one workload.

    `work_dir` receives the config, corpus and output files; the trace
    headers name the corpus by its path relative to the working directory,
    so output digests compare across measurements that share both. Returns the
    report: the mode's metrics as {name: (value, unit)} plus what the
    correctness gate saw.
    """
    wl = workloads.get(name, tiny)
    corpus_path = work_dir / "corpus.txt" if wl.corpus_shape else None
    corpus = workloads.write_corpus(corpus_path, wl, seed) if corpus_path else None
    config_paths = [work_dir / f"config{i}.txt" for i in range(wl.configs)]
    for i, path in enumerate(config_paths):
        # The corpus path is relative, as it appears in every trace header.
        text = workloads.config_text(wl, seed, corpus_path and os.path.relpath(corpus_path), i)
        path.write_text(text, encoding="utf-8")
    for sub in ("replay", "untraced", "traced"):
        (work_dir / sub).mkdir()

    restored = True
    setup_tracer = Tracer()
    patches = install_tracer(setup_tracer, sys.modules[__name__]) if trace else None
    setup_times: list[float] = []
    setup_calibrations: list[float] = []
    while len(setup_times) < SETUP_MIN_REPS or (sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX_REPS):
        setup_calibrations.append(calibrate())
        t0 = perf_counter()
        setup = set_up(config_paths)
        setup_times.append(perf_counter() - t0)
    if patches:
        restored &= patches.restore()
    setup_scale = CALIBRATION_REF_S / statistics.median(setup_calibrations)

    checker = Checker()
    run_pass(Runner(wl, set_up(config_paths), work_dir / "replay"), checker, 0.0)
    runner = Runner(wl, setup, work_dir / "untraced")
    untraced = run_pass(runner, checker, 0.0 if trace else seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runner.out_dir = work_dir / "traced"
    tracer = Tracer()
    patches = install_tracer(tracer, sys.modules[__name__])
    try:
        traced = run_pass(runner, checker, seconds if trace else 0.0, tracer)
    finally:
        restored &= patches.restore()

    if trace:
        metrics = per_layer_metrics(
            traced, tracer, setup_tracer, len(setup_times), setup_scale, checker.counts, untraced
        )
    else:
        metrics = end_to_end_metrics(untraced, statistics.median(setup_times) * setup_scale, peak_rss_mb)
    return {
        "workload": name,
        "metrics": metrics,
        "corpus": corpus,
        "csv_sha256": checker.csv_sha256,
        "trace_sha256": checker.trace_sha256,
        "digests_match": checker.digests_match,
        "tracer_restored": restored,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "batch_counts": asdict(checker.counts),
        "passes": {
            "setup_reps": len(setup_times),
            "untraced_batches": untraced.batches,
            "untraced_wall_s": untraced.wall,
            "traced_batches": traced.batches,
            "traced_wall_s": traced.wall,
            "run_samples": sum(map(len, (traced if trace else untraced).latencies)),
            "calibration_ms": {
                "reference": CALIBRATION_REF_S * 1e3,
                "setup": statistics.median(setup_calibrations) * 1e3,
                "untraced": CALIBRATION_REF_S * 1e3 / untraced.scale,
                "traced": CALIBRATION_REF_S * 1e3 / traced.scale,
            },
            "runs_per_batch": checker.counts.runs,
        },
        "tracer": tracer,
    }
