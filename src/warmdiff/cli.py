"""Command-line interface: run, sweep, validate.

Exit codes: 0 success, 1 config error, an output file that cannot be
written or a standard output closed early, 2 runtime invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, nullcontext

from .harness import (
    ConfigError,
    InvariantViolation,
    build_resources,
    config_to_dict,
    csv_lines,
    load_config,
    load_grid,
    run_experiment,
    sweep,
    trace_lines,
    validate_runs,
)


class _OutputError(Exception):
    """An output file could not be written."""


@contextmanager
def _output(path: str | None):
    """Standard output, or `path` open for writing; an OSError from opening
    the file or raised while it is open is an _OutputError."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            yield f
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _warn_capped(records) -> None:
    """One stderr line if any run stopped at the cap; a capped run's NFE is decode.k_max."""
    runs = [r for record in records for r in record.runs]
    capped = [r.nfe for r in runs if r.capped]
    if capped:
        message = f"{len(capped)} of {len(runs)} runs stopped at decode.k_max = {capped[0]} with positions still masked"
        print(f"warning: {message}", file=sys.stderr)


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    resources = build_resources(cfg)  # config errors come before any file is opened
    config = config_to_dict(cfg)
    # Both files open before the first run; the inner trace file names its own path on a write error.
    with _output(args.csv) if args.csv else nullcontext() as csv_file:
        with _output(args.trace) if args.trace else nullcontext() as trace_file:

            def write_trace(result, trace, _init):
                header = {"config": config, "run": result.run, "seed": result.seed}
                trace_file.write("\n".join(trace_lines(trace, header)) + "\n")

            record = run_experiment(cfg, resources=resources, on_run=write_trace if args.trace else None)
        if args.csv:
            csv_file.write("\n".join(csv_lines([record])) + "\n")
    summary = [
        f"runs = {cfg.num_runs}",
        f"mean_nfe = {record.mean_nfe}",
        f"std_nfe = {record.std_nfe}",
        f"exact_match_rate = {record.exact_match_rate}",
        f"mean_token_acc = {record.mean_token_acc}",
        f"capped_runs = {record.capped_runs}",
    ]
    print("\n".join(summary))
    _warn_capped([record])
    return 0


def _cmd_sweep(args) -> int:
    overrides = load_grid(args.grid)
    records = sweep(overrides)
    with _output(args.out) as f:
        f.write("\n".join(csv_lines(records)) + "\n")
    _warn_capped(records)
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    problems = validate_runs(cfg)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        raise InvariantViolation(f"{len(problems)} invariant violation(s)")
    print(f"ok: {cfg.num_runs} runs, all invariants hold")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="warmdiff",
        description="Masked-diffusion decoding experiments with warm-start initialization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration and print aggregate metrics")
    p_run.add_argument("--config", required=True, help="flat key=value config file")
    p_run.add_argument("--trace", help="write per-run JSON-lines decode traces to this path")
    p_run.add_argument("--csv", help="also write per-run CSV rows to this path")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="expand a grid config and emit per-run CSV rows")
    p_sweep.add_argument("--grid", required=True, help="config file; sweepable keys may list values")
    p_sweep.add_argument("--out", help="CSV output path (default: stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run the invariant suite on a configuration")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (as `| head` does): send what is still
        # buffered to devnull, so the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
