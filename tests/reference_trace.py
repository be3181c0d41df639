"""Reference JSON-lines trace writer, one `json.dumps` per record.

Deliberately independent of `warmdiff.harness.trace_lines`: it serializes a
list of `IterationRecord`s through nested dicts, the way the trace was
written before `DecodeTrace` held columns. `columnar` goes the other way,
turning hand-built records into the column form `decode` returns.
"""

import json
from dataclasses import dataclass

import numpy as np

from warmdiff.decoder import DecodeTrace, IterationRecord


@dataclass
class RecordTrace:
    """A decode trace held as one record per iteration."""

    iterations: list[IterationRecord]
    final_tokens: np.ndarray
    nfe: int
    capped: bool


def reference_trace_lines(trace, header: dict) -> list[str]:
    """JSON-lines trace of anything with `iterations` records, `final_tokens`,
    `nfe` and `capped`: a header object, one object per iteration, and a
    final summary object."""
    lines = [json.dumps(header)]
    for rec in trace.iterations:
        lines.append(
            json.dumps(
                {
                    "k": rec.k,
                    "unmasked": [{"pos": p, "tok": t, "conf": c} for p, t, c in rec.unmasked],
                    "remasked": [{"pos": p, "rate": r} for p, r in rec.remasked],
                    "masked_after": rec.masked_after,
                }
            )
        )
    lines.append(
        json.dumps(
            {
                "final_tokens": [int(t) for t in trace.final_tokens],
                "nfe": trace.nfe,
                "capped": trace.capped,
            }
        )
    )
    return lines


def columnar(trace: RecordTrace) -> DecodeTrace:
    """The columns of a record trace."""
    recs = trace.iterations
    return DecodeTrace(
        unmask_counts=np.array([len(rec.unmasked) for rec in recs], dtype=np.int64),
        unmask_pos=np.array([p for rec in recs for p, _, _ in rec.unmasked], dtype=np.int64),
        unmask_tok=np.array([t for rec in recs for _, t, _ in rec.unmasked], dtype=np.int64),
        unmask_conf=np.array([c for rec in recs for _, _, c in rec.unmasked], dtype=np.float64),
        remask_counts=np.array([len(rec.remasked) for rec in recs], dtype=np.int64),
        remask_pos=np.array([p for rec in recs for p, _ in rec.remasked], dtype=np.int64),
        remask_rate=np.array([r for rec in recs for _, r in rec.remasked], dtype=np.float64),
        masked_after=np.array([rec.masked_after for rec in recs], dtype=np.int64),
        final_tokens=np.asarray(trace.final_tokens, dtype=np.int64),
        nfe=trace.nfe,
        capped=trace.capped,
    )
