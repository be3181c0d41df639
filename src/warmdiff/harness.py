"""Seeded experiment harness.

Wires target generation, proposers, warm starts, and the decoder into
reproducible runs and parameter sweeps; emits per-run CSV rows and JSON-lines
decode traces. Config files are flat `key = value` text with dotted keys;
unknown keys are errors.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from .bigram import BigramModel, load_corpus
from .core import DeterministicRng, DiffusionState, EmbeddingTable, Vocabulary, all_mask_init, run_key
from .decoder import DecodeConfig, DecodeTrace, decode
from .denoiser import NoisyOracleParams, prepare
from .proposal import propose_corrupted, propose_markov
from .warmstart import WarmStartConfig, warm_init

__all__ = [
    "ConfigError",
    "InvariantViolation",
    "ExperimentConfig",
    "RunResult",
    "MetricsRecord",
    "RunResources",
    "parse_config_text",
    "load_config",
    "load_grid",
    "build_config",
    "config_to_dict",
    "build_resources",
    "run_one",
    "run_experiment",
    "sweep",
    "exact_match",
    "token_accuracy",
    "csv_lines",
    "trace_lines",
    "check_trace_invariants",
    "validate_runs",
    "CSV_COLUMNS",
]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class InvariantViolation(RuntimeError):
    """A decode trace broke one of the runtime invariants."""


# Most entries a config may ask for: in its embedding table ((vocab_size + 1)
# x embed_dim); in n x vocab_size, the probability rows of a whole state,
# which a denoiser's answer stands for without building them; and, where a
# bigram model is fit, in each of its (vocab_size + 1) x (vocab_size + 1)
# tables. Far above any study this engine is for, far below what exhausts
# memory.
MAX_ENTRIES = 2**24
# Most operations the markov denoiser's pair tables may take to build, once
# per model on its first call: (vocab_size + 1)^2 * vocab_size, so
# vocab_size <= 1023, about 3 s on a 2-core VM (0.3 s at 512, 43 s at 2048).
MAX_PAIR_TABLE_OPS = 2**30

# ---------------------------------------------------------------------------
# Configuration schema

# One row per config key: its type, its default, and the ExperimentConfig
# attribute that holds the resolved value. Row order is the canonical key
# order of config_to_dict, and so of every trace header.
SCHEMA = {
    "n": (int, 16, "n"),
    "vocab_size": (int, 16, "vocab_size"),
    "embed_dim": (int, 8, "embed_dim"),
    "num_runs": (int, 20, "num_runs"),
    "seed": (int, 0, "seed"),
    "target_source": (str, "uniform", "target_source"),
    "corpus.path": (str, "", "corpus_path"),
    "denoiser.kind": (str, "noisy-oracle", "denoiser_kind"),
    "denoiser.c0": (float, 0.4, "oracle.c0"),
    "denoiser.gamma": (float, 0.6, "oracle.gamma"),
    "denoiser.eta": (float, 0.0, "oracle.eta"),
    "denoiser.c_max": (float, 0.99, "oracle.c_max"),
    "denoiser.mode": (str, "faithful", "oracle.mode"),
    "denoiser.window": (int, 3, "oracle.window"),
    "proposer.kind": (str, "corrupted-oracle", "proposer_kind"),
    "proposer.epsilon": (float, 0.0, "epsilon"),
    "warmstart.method": (str, "none", "warmstart.method"),
    "warmstart.rho": (float, 0.25, "warmstart.rho"),
    "warmstart.alpha": (float, 0.6, "warmstart.alpha"),
    "warmstart.override_persistence": (str, "while-masked", "decode.override_persistence"),  # decode reads it
    "decode.tau": (float, 0.9, "decode.tau"),
    "decode.remask_enabled": (bool, False, "decode.remask_enabled"),
    "decode.b0": (float, 0.5, "decode.b0"),
    "decode.lambda": (float, 0.05, "decode.lam"),
    "decode.k_max": (int, 0, "decode.k_max"),  # 0 means "auto": resolved to 2 * n
}

# Dimensions a sweep grid may vary, in the canonical expansion order.
SWEEP_ORDER = [
    "warmstart.method",
    "warmstart.rho",
    "warmstart.alpha",
    "proposer.epsilon",
    "decode.tau",
    "decode.b0",
    "decode.lambda",
]


def _split_unquoted(text: str, sep: str) -> list[str]:
    """Split `text` at every `sep` outside single or double quotes."""
    parts = []
    buf = []
    quote = None
    for ch in text:
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == sep:
            parts.append("".join(buf))
            buf = []
            continue
        buf.append(ch)
    parts.append("".join(buf))
    return parts


def _parse_scalar(token: str, key: str):
    token = token.strip()
    if not token:
        raise ConfigError(f"empty value for key {key!r}")
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'":
        value = token[1:-1]
    elif token in ("true", "false"):
        value = token == "true"
    else:
        try:
            value = int(token)
        except ValueError:
            try:
                value = float(token)
            except ValueError:
                value = token  # bare word
    return _coerce(key, value)


def _coerce(key: str, value):
    kind = SCHEMA[key][0]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    # Compared exactly, so nan, infinities and ints too large for a float fail.
    if kind is float and number and abs(value) <= sys.float_info.max:
        return float(value)
    if kind in (bool, str) and isinstance(value, kind):
        return value
    expected = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}[kind]
    raise ConfigError(f"{key} expects {expected}, got {value!r}")


def parse_config_text(text: str, allow_sweep_lists: bool = False) -> dict:
    """Parse flat `key = value` lines into an override dict.

    With `allow_sweep_lists`, the sweepable keys may carry comma-separated
    value lists (grid dimensions); everywhere else a list is an error.
    """
    overrides: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _split_unquoted(raw, "#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw.strip()!r}")
        key, _, value_part = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parts = _split_unquoted(value_part, ",")
        if len(parts) > 1:
            if not (allow_sweep_lists and key in SWEEP_ORDER):
                raise ConfigError(f"line {lineno}: key {key!r} does not accept a value list")
            overrides[key] = [_parse_scalar(p, key) for p in parts]
        else:
            overrides[key] = _parse_scalar(parts[0], key)
    return overrides


def load_config(path: str) -> "ExperimentConfig":
    return build_config(_read_overrides(path, allow_sweep_lists=False))


def load_grid(path: str) -> dict:
    """Read a sweep config; sweepable keys may hold value lists."""
    return _read_overrides(path, allow_sweep_lists=True)


def _read_overrides(path: str, allow_sweep_lists: bool) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, allow_sweep_lists=allow_sweep_lists)


# ---------------------------------------------------------------------------
# Experiment configuration

@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    vocab_size: int
    embed_dim: int
    num_runs: int
    seed: int
    target_source: str
    corpus_path: str
    denoiser_kind: str
    oracle: NoisyOracleParams
    proposer_kind: str
    epsilon: float
    warmstart: WarmStartConfig
    decode: DecodeConfig


def build_config(overrides: dict) -> ExperimentConfig:
    """Defaults plus overrides, validated into an ExperimentConfig."""
    values = {key: default for key, (_, default, _) in SCHEMA.items()}
    for key, value in overrides.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, list):
            raise ConfigError(f"key {key!r} holds a value list; expand the grid first")
        values[key] = _coerce(key, value)

    n = values["n"]
    if n < 1:
        raise ConfigError("n must be >= 1")
    if values["vocab_size"] < 2:
        raise ConfigError("vocab_size must be >= 2")
    if values["embed_dim"] < 1:
        raise ConfigError("embed_dim must be >= 1")
    if values["num_runs"] < 1:
        raise ConfigError("num_runs must be >= 1")
    if (values["vocab_size"] + 1) * values["embed_dim"] > MAX_ENTRIES:
        raise ConfigError(f"(vocab_size + 1) * embed_dim must be <= {MAX_ENTRIES} embedding entries")
    if n * values["vocab_size"] > MAX_ENTRIES:
        raise ConfigError(f"n * vocab_size must be <= {MAX_ENTRIES} denoiser row entries")
    if values["target_source"] not in ("uniform", "corpus"):
        raise ConfigError("target_source must be 'uniform' or 'corpus'")
    if values["denoiser.kind"] not in ("noisy-oracle", "markov"):
        raise ConfigError("denoiser.kind must be 'noisy-oracle' or 'markov'")
    if values["proposer.kind"] not in ("corrupted-oracle", "markov"):
        raise ConfigError("proposer.kind must be 'corrupted-oracle' or 'markov'")
    if not 0.0 <= values["proposer.epsilon"] <= 1.0:
        raise ConfigError("proposer.epsilon must be in [0, 1]")
    if values["decode.k_max"] == 0:
        values["decode.k_max"] = 2 * n
    elif values["decode.k_max"] < 1:
        raise ConfigError("decode.k_max must be positive (or 0 for the 2n default)")

    # Keyword arguments per constructor, named by the attribute path: "" is
    # ExperimentConfig itself, the others its nested configs.
    kwargs: dict[str, dict] = {"": {}, "oracle": {}, "warmstart": {}, "decode": {}}
    for key, (_, _, attr) in SCHEMA.items():
        owner, _, name = attr.rpartition(".")
        kwargs[owner][name] = values[key]
    try:
        return ExperimentConfig(
            **kwargs[""],
            oracle=NoisyOracleParams(**kwargs["oracle"]),
            warmstart=WarmStartConfig(**kwargs["warmstart"]),
            decode=DecodeConfig(**kwargs["decode"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_resolved_values = attrgetter(*(attr for _, _, attr in SCHEMA.values()))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Fully resolved flat key/value view, in canonical key order."""
    return dict(zip(SCHEMA, _resolved_values(cfg)))


# ---------------------------------------------------------------------------
# Per-config resources (the fixed "model": embedding table, bigram counts)

@dataclass
class RunResources:
    """What every run of a config shares. `target_seqs` holds the corpus
    sequences of length >= n, which corpus targets are cut from."""

    table: EmbeddingTable
    bigram: BigramModel | None = None
    target_seqs: list[list[int]] | None = None


def build_resources(cfg: ExperimentConfig) -> RunResources:
    needs_corpus = (
        cfg.denoiser_kind == "markov"
        or cfg.target_source == "corpus"
        or (cfg.proposer_kind == "markov" and cfg.warmstart.method != "none")
    )
    target_seqs = None
    bigram = None
    if needs_corpus:
        if not cfg.corpus_path:
            raise ConfigError("this configuration needs corpus.path to be set")
        if (cfg.vocab_size + 1) ** 2 > MAX_ENTRIES:
            raise ConfigError(f"a bigram model needs (vocab_size + 1)**2 <= {MAX_ENTRIES} table entries")
        if cfg.denoiser_kind == "markov" and (cfg.vocab_size + 1) ** 2 * cfg.vocab_size > MAX_PAIR_TABLE_OPS:
            raise ConfigError(
                f"the markov denoiser needs (vocab_size + 1)**2 * vocab_size <= {MAX_PAIR_TABLE_OPS} operations"
            )
        try:
            corpus = load_corpus(cfg.corpus_path)
            bigram = BigramModel.fit(corpus, cfg.vocab_size)  # range-checks every token
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        target_seqs = [s for s in corpus if len(s) >= cfg.n]
        if cfg.target_source == "corpus" and not target_seqs:
            raise ConfigError(f"corpus has no sequence of length >= n = {cfg.n}")
    table = EmbeddingTable.random(Vocabulary(cfg.vocab_size), cfg.embed_dim, DeterministicRng(cfg.seed))
    return RunResources(table=table, bigram=bigram, target_seqs=target_seqs)


def _make_target(cfg: ExperimentConfig, resources: RunResources, rng: DeterministicRng) -> np.ndarray:
    if cfg.target_source == "uniform":
        return (rng.draws("target", np.arange(cfg.n), 0) * cfg.vocab_size).astype(np.int64)
    eligible = resources.target_seqs
    seq = eligible[int(rng.draw("target-seq", 0, 0) * len(eligible))]
    start = int(rng.draw("target-off", 0, 0) * (len(seq) - cfg.n + 1))
    return np.array(seq[start : start + cfg.n], dtype=np.int64)


# ---------------------------------------------------------------------------
# Metrics

def exact_match(out: np.ndarray, target: np.ndarray) -> bool:
    if len(out) != len(target):
        raise ValueError("output and target lengths differ")
    return bool(np.array_equal(out, target))


def token_accuracy(out: np.ndarray, target: np.ndarray) -> float:
    if len(out) != len(target):
        raise ValueError("output and target lengths differ")
    return float((np.asarray(out) == np.asarray(target)).mean())


@dataclass(frozen=True)
class RunResult:
    run: int
    seed: int
    nfe: int
    exact_match: bool
    token_acc: float
    capped: bool


@dataclass
class MetricsRecord:
    """Aggregates over one grid point, plus the per-run rows they come from."""

    grid_id: int
    method: str
    rho: float
    alpha: float
    epsilon: float
    tau: float
    b0: float
    lam: float
    runs: list[RunResult] = field(default_factory=list)

    @property
    def mean_nfe(self) -> float:
        return float(np.mean([r.nfe for r in self.runs]))

    @property
    def std_nfe(self) -> float:
        if len(self.runs) < 2:
            return 0.0
        return float(np.std([r.nfe for r in self.runs], ddof=1))

    @property
    def exact_match_rate(self) -> float:
        return float(np.mean([r.exact_match for r in self.runs]))

    @property
    def mean_token_acc(self) -> float:
        return float(np.mean([r.token_acc for r in self.runs]))

    @property
    def capped_runs(self) -> int:
        return sum(r.capped for r in self.runs)


# Per sweep key: the ExperimentConfig value and the MetricsRecord field
# ("decode.lambda" -> cfg.decode.lam -> lam).
_sweep_values = attrgetter(*(SCHEMA[key][2] for key in SWEEP_ORDER))
_SWEEP_FIELDS = [SCHEMA[key][2].rpartition(".")[2] for key in SWEEP_ORDER]


def _record_for(cfg: ExperimentConfig, grid_id: int) -> MetricsRecord:
    return MetricsRecord(grid_id=grid_id, **dict(zip(_SWEEP_FIELDS, _sweep_values(cfg))))


# ---------------------------------------------------------------------------
# Running

def run_one(
    cfg: ExperimentConfig, run_index: int, resources: RunResources | None = None
) -> tuple[RunResult, DecodeTrace, DiffusionState]:
    """One fully deterministic run, drawing from the seed `run_key(cfg.seed,
    run_index)`, which the result records: `DeterministicRng(result.seed)`
    replays the run's draws.

    Returns the per-run metrics, the decode trace, and the initial state
    (the latter so callers can audit injected-position bookkeeping).
    """
    if resources is None:
        resources = build_resources(cfg)
    rng = DeterministicRng(run_key(cfg.seed, run_index))
    vocab = Vocabulary(cfg.vocab_size)
    target = _make_target(cfg, resources, rng)

    if cfg.warmstart.method == "none":
        init = all_mask_init(vocab, cfg.n)
    else:
        if cfg.proposer_kind == "corrupted-oracle":
            prop = propose_corrupted(vocab, target, cfg.epsilon, rng)
        else:
            prop = propose_markov(resources.bigram, cfg.n, rng)
        init = warm_init(vocab, prop, resources.table, cfg.warmstart, rng)

    params = cfg.oracle if cfg.denoiser_kind == "noisy-oracle" else resources.bigram
    denoiser, ctx = prepare(target, params, init)
    trace = decode(denoiser, ctx, init, cfg.decode, rng)
    result = RunResult(
        run=run_index,
        seed=rng.seed,
        nfe=trace.nfe,
        exact_match=exact_match(trace.final_tokens, target),
        token_acc=token_accuracy(trace.final_tokens, target),
        capped=trace.capped,
    )
    return result, trace, init


def run_experiment(
    cfg: ExperimentConfig,
    grid_id: int = 0,
    collect_traces: bool = False,
    resources: RunResources | None = None,
) -> tuple[MetricsRecord, list[DecodeTrace]]:
    """All runs for one grid point, in run-index order; `resources` defaults
    to a fresh build_resources(cfg)."""
    if resources is None:
        resources = build_resources(cfg)
    record = _record_for(cfg, grid_id)
    traces = []
    for r in range(cfg.num_runs):
        result, trace, _ = run_one(cfg, r, resources)
        record.runs.append(result)
        if collect_traces:
            traces.append(trace)
    return record, traces


def expand_grid(overrides: dict) -> list[dict]:
    """Cartesian product over the sweepable keys, in canonical order.

    Dimensions expand in SWEEP_ORDER with values in the order written, so
    grid ids are stable for a given grid file.
    """
    base = {k: v for k, v in overrides.items() if not isinstance(v, list)}
    dims = []
    for key in SWEEP_ORDER:
        value = overrides.get(key)
        if isinstance(value, list):
            dims.append((key, value))
    points = []
    for combo in itertools.product(*(values for _, values in dims)):
        point = dict(base)
        for (key, _), value in zip(dims, combo):
            point[key] = value
        points.append(point)
    return points


def sweep(overrides: dict) -> list[MetricsRecord]:
    """One MetricsRecord per grid point, grid ids following expansion order."""
    records = []
    # Of what build_resources reads, only whether the warm-start method is
    # "none" can differ between the points of one grid.
    resources: dict[bool, RunResources] = {}
    for grid_id, point in enumerate(expand_grid(overrides)):
        cfg = build_config(point)
        cold = cfg.warmstart.method == "none"
        if cold not in resources:
            resources[cold] = build_resources(cfg)
        record, _ = run_experiment(cfg, grid_id=grid_id, resources=resources[cold])
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Serialization

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# A row is the grid point (its id, then the sweep keys in SWEEP_ORDER, each
# named by its last key part) followed by the RunResult fields.
_RUN_FIELDS = [f.name for f in fields(RunResult)]
CSV_COLUMNS = ["grid_id", *(key.rpartition(".")[2] for key in SWEEP_ORDER), *_RUN_FIELDS]
_point_columns = attrgetter("grid_id", *_SWEEP_FIELDS)
_run_columns = attrgetter(*_RUN_FIELDS)


def csv_lines(records: list[MetricsRecord]) -> list[str]:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        point = _point_columns(rec)
        for run in rec.runs:
            lines.append(",".join(map(_fmt, point + _run_columns(run))))
    return lines


# Float reprs already written, shared by every trace this process writes.
# Confidences and rates are read from a few per-config values (the oracle's
# levels and bonuses, the markov pair tables), so they repeat across runs;
# a hit costs about a third of a repr, a miss about 1.5 reprs, and the memo
# gains only while most lookups hit. The memo never holds more than
# _REPRS_BOUND entries (under 1 MB), and a full memo starts over, so it
# follows what is being written; neither changes a byte of output. Zeros
# are never stored: 0.0 and -0.0 are one dict key but repr differently.
_REPRS: dict[float, str] = {}
_REPRS_BOUND = 2**12


def _repr_miss(x: float) -> str:
    text = repr(x)
    if x:
        if len(_REPRS) >= _REPRS_BOUND:
            _REPRS.clear()
        _REPRS[x] = text
    return text


def _float_reprs(values: list[float]) -> list[str]:
    get = _REPRS.get
    return [get(x) or _repr_miss(x) for x in values]


def trace_lines(trace: DecodeTrace, header: dict) -> list[str]:
    """JSON-lines trace: a header object, one object per iteration, and a
    final summary object. Entries are written as json.dumps writes them:
    ints as str, floats as repr, ", " and ": " separators."""
    unmasked = [
        f'{{"pos": {p}, "tok": {t}, "conf": {c}}}'
        for p, t, c in zip(trace.unmask_pos.tolist(), trace.unmask_tok.tolist(), _float_reprs(trace.unmask_conf.tolist()))
    ]
    remasked = [
        f'{{"pos": {p}, "rate": {r}}}'
        for p, r in zip(trace.remask_pos.tolist(), _float_reprs(trace.remask_rate.tolist()))
    ]
    lines = [json.dumps(header)]
    u = r = 0
    per_iteration = zip(trace.unmask_counts.tolist(), trace.remask_counts.tolist(), trace.masked_after.tolist())
    for k, (nu, nr, after) in enumerate(per_iteration, start=1):
        lines.append(
            f'{{"k": {k}, "unmasked": [{", ".join(unmasked[u : u + nu])}], '
            f'"remasked": [{", ".join(remasked[r : r + nr])}], "masked_after": {after}}}'
        )
        u, r = u + nu, r + nr
    final = ", ".join(map(str, trace.final_tokens.tolist()))
    capped = "true" if trace.capped else "false"
    lines.append(f'{{"final_tokens": [{final}], "nfe": {trace.nfe}, "capped": {capped}}}')
    return lines


# ---------------------------------------------------------------------------
# Invariant checking (used by the `validate` subcommand and the test suite)

def _column_problems(trace: DecodeTrace) -> list[str]:
    """Negative counts, and columns whose lengths disagree with the counts:
    either would misalign every later iteration."""
    problems = []
    if (trace.unmask_counts < 0).any() or (trace.remask_counts < 0).any():
        problems.append("unmask_counts or remask_counts holds a negative count")
    iterations = len(trace.unmask_counts)
    unmasks, remasks = int(trace.unmask_counts.sum()), int(trace.remask_counts.sum())
    lengths = {
        "remask_counts": iterations, "masked_after": iterations,
        "unmask_pos": unmasks, "unmask_tok": unmasks, "unmask_conf": unmasks,
        "remask_pos": remasks, "remask_rate": remasks,
    }
    for name, want in lengths.items():
        have = len(getattr(trace, name))
        if have != want:
            problems.append(f"column {name} has {have} entries, the counts say {want}")
    return problems


def check_trace_invariants(trace: DecodeTrace, init: DiffusionState) -> list[str]:
    """Audit one decode trace against the loop's guarantees.

    Checks that the columns line up, progress (>= 1 unmask per iteration),
    masked-count bookkeeping, unmask-only behavior for model-decoded
    positions, one-shot remasking restricted to initially injected
    positions, the n + |I| termination bound, NFE accounting, and that the
    final tokens are init's tokens replayed through the recorded unmasks and
    remasks. Returns a list of problems (empty = clean).
    """
    problems = _column_problems(trace)
    if problems:
        return problems
    n = len(init.tokens)
    injected0 = set(init.injected.tolist())
    masked = set(np.flatnonzero(init.masked()).tolist())
    replayed = init.tokens.tolist()
    unmasked_seen: set[int] = set()
    remasked_seen: set[int] = set()

    for rec in trace.iterations:
        idx = rec.k
        if not rec.unmasked:
            problems.append(f"iteration {idx}: no position unmasked")
        for pos, tok, conf in rec.unmasked:
            if pos not in masked:
                problems.append(f"iteration {idx}: unmasked position {pos} was not masked")
            if pos in unmasked_seen:
                problems.append(f"iteration {idx}: position {pos} unmasked twice")
            if tok < 0 or tok >= init.vocab.size:
                problems.append(f"iteration {idx}: unmasked token {tok} outside vocabulary")
            if not 0.0 <= conf <= 1.0:
                problems.append(f"iteration {idx}: confidence {conf} outside [0, 1]")
            if 0 <= pos < n:
                replayed[pos] = tok
            unmasked_seen.add(pos)
            masked.discard(pos)
        for pos, rate in rec.remasked:
            if pos not in injected0:
                problems.append(f"iteration {idx}: non-injected position {pos} remasked")
            if pos in remasked_seen:
                problems.append(f"iteration {idx}: position {pos} remasked twice")
            if pos in unmasked_seen:
                problems.append(f"iteration {idx}: model-decoded position {pos} remasked")
            if not 0.0 <= rate <= 1.0:
                problems.append(f"iteration {idx}: remask rate {rate} outside [0, 1]")
            if 0 <= pos < n:
                replayed[pos] = init.vocab.mask_id
            remasked_seen.add(pos)
            masked.add(pos)
        if rec.masked_after != len(masked):
            problems.append(
                f"iteration {idx}: masked_after={rec.masked_after}, bookkeeping says {len(masked)}"
            )

    iterations = len(trace.unmask_counts)
    if trace.nfe != iterations:
        problems.append(f"nfe={trace.nfe} but {iterations} iterations recorded")
    bound = n + len(injected0)
    if not trace.capped and iterations > bound:
        problems.append(f"{iterations} iterations exceeds n + |I| = {bound}")
    if not trace.capped and masked:
        problems.append(f"decode finished with {len(masked)} masked positions but capped=False")
    if trace.capped and not masked:
        problems.append("trace flagged capped but nothing is masked")
    final_masked = int((trace.final_tokens == init.vocab.mask_id).sum())
    if final_masked != len(masked):
        problems.append(f"final tokens have {final_masked} masks, bookkeeping says {len(masked)}")
    if trace.final_tokens.tolist() != replayed:
        problems.append("final tokens differ from init's tokens replayed through the recorded unmasks and remasks")
    return problems


def validate_runs(cfg: ExperimentConfig) -> list[str]:
    """Run every configured run and collect invariant violations."""
    resources = build_resources(cfg)
    problems = []
    records = []
    for r in range(cfg.num_runs):
        result, trace, init = run_one(cfg, r, resources)
        records.append(result)
        for problem in check_trace_invariants(trace, init):
            problems.append(f"run {r}: {problem}")
        if not math.isfinite(result.token_acc) or not 0.0 <= result.token_acc <= 1.0:
            problems.append(f"run {r}: token accuracy {result.token_acc} outside [0, 1]")
    rate = float(np.mean([r.exact_match for r in records]))
    acc = float(np.mean([r.token_acc for r in records]))
    if rate > acc + 1e-12:
        problems.append(f"exact-match rate {rate} exceeds mean token accuracy {acc}")
    return problems
