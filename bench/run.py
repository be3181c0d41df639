"""warmdiff benchmark: one workload, its end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload oracle-inject-remask --seed 1 --seconds 10 --trace 0

`--trace 0` prints the end-to-end metrics of an untraced timed pass;
`--trace 1` prints the per-layer metrics of a traced pass and writes its
spans to `.bench-out/`. Every metric is printed as `name = value unit`; the
last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. The engine is imported from `src/` of the checkout, never from
an installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, set before numpy is imported, so that a
# small box measures the program and not the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark one warmdiff workload.")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int, help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", required=True, type=_positive, help="timed seconds of the measured pass")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1), help="1: per-layer metrics from a traced pass")
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "warmdiff" / "__init__.py").is_file():
        print(f"error: no warmdiff sources at {src}; run from the root of a warmdiff checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    from measure import measure

    # A fixed working directory and work path keep the corpus path in the
    # trace headers, and with it the output digests, the same on every run.
    os.chdir(ROOT)
    work = ROOT / ".bench-tmp" / f"{args.workload}.seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work)
    report["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload_seed": args.seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    tracer = report.pop("tracer")
    if args.trace:
        out = ROOT / ".bench-out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"{args.workload}.seed{args.seed}.spans.tsv"
        report["spans"] = {"path": str(spans_path.relative_to(ROOT)), "count": tracer.write_spans(spans_path)}

    metrics = report.pop("metrics")
    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0 and report["digests_match"] and report["tracer_restored"]
    for key, value in report.items():
        print(f"{key} = {json.dumps(value)}")
    print(f"failed_share = {failed / attempted!r} share")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
