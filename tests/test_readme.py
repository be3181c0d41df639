"""README.md against the code: the key table, the sweep keys, the RNG
purpose table and the quick-start files must say what the code does."""

import itertools
import re
from pathlib import Path

import pytest

from reference_rng import record_draws
from warmdiff.harness import SCHEMA, SWEEP_ORDER, build_config, expand_grid, parse_config_text, run_experiment

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title):
    """Text from the `## title` heading up to the next `## ` heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else None]


def key_table():
    """(key, default cell) per key, expanding `a.b` / `c` / `d` rows and
    their `x / y / z` defaults."""
    rows = []
    for line in section("Configuration keys").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        names = [n.strip().strip("`") for n in cells[0].split(" / ")]
        defaults = [d.strip() for d in cells[1].split(" / ")]
        assert len(names) == len(defaults), line
        prefix = names[0].rpartition(".")[0]
        for name, default in zip(names, defaults):
            rows.append((name if "." in name or not prefix else f"{prefix}.{name}", default))
    return rows


def readme_default(key, cell):
    """A default cell as the config parser reads it: backticks dropped, a
    trailing `(...)` note dropped, and an em dash standing for empty."""
    cell = re.sub(r"\s*\(.*\)$", "", cell.replace("`", ""))
    if cell == "—":
        return ""
    return parse_config_text(f"{key} = {cell}\n")[key]


def quick_start_file(name):
    match = re.search(rf"```text\n# {re.escape(name)}\n(.*?)```", README, re.S)
    assert match, f"no quick-start block for {name}"
    return match.group(1)


def test_key_table_names_every_schema_key_with_its_default():
    rows = key_table()
    keys = [key for key, _ in rows]
    assert len(keys) == len(set(keys)) and set(keys) == set(SCHEMA)
    for key, cell in rows:
        default = SCHEMA[key][1]
        value = readme_default(key, cell)
        assert (type(value), value) == (type(default), default), key


def test_sweep_sentence_lists_the_sweep_order():
    sentence = re.search(r"In a sweep grid file, the keys (.*?) may hold", README, re.S).group(1)
    assert re.findall(r"`([^`]+)`", sentence) == SWEEP_ORDER
    order = re.search(r"fixed dimension order \((.*?)\)", README, re.S).group(1)
    assert [part.strip() for part in order.split(",")] == [k.rpartition(".")[2] for k in SWEEP_ORDER]


def rng_table():
    """{purpose: address} from the README's table of random draws."""
    rows = re.findall(r"^\| `([a-z-]+)` \| `(\([a-z0-9]+, [a-z0-9]+\))` \|", section("Random draws"), re.M)
    assert len(rows) == len(dict(rows))
    return dict(rows)


def test_rng_table_names_every_purpose_with_its_address(tmp_path, monkeypatch):
    seen = record_draws(monkeypatch)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("0 1 2 3 0 1 2\n3 2 1 0 3 2\n", encoding="utf-8")
    n, V, d = 6, 4, 3
    for method, proposer, denoiser, target in itertools.product(
        ("none", "token-injection", "embedding-interpolation"),
        ("corrupted-oracle", "markov"),
        ("noisy-oracle", "markov"),
        ("uniform", "corpus"),
    ):
        run_experiment(build_config({
            "n": n, "vocab_size": V, "embed_dim": d, "num_runs": 2, "corpus.path": str(corpus),
            "warmstart.method": method, "warmstart.rho": 0.5, "proposer.kind": proposer,
            "proposer.epsilon": 0.5, "denoiser.kind": denoiser, "target_source": target,
            "decode.remask_enabled": True,
        }))

    table = rng_table()
    assert {purpose for purpose, _, _ in seen} == set(table)
    fits = {
        "(i, 0)": lambda pos, it: 0 <= pos < n and it == 0,
        "(0, 0)": lambda pos, it: (pos, it) == (0, 0),
        "(pos, k)": lambda pos, it: 0 <= pos < n and it >= 1,
        "(row, col)": lambda pos, it: 0 <= pos <= V and 0 <= it < d,
    }
    for purpose, pos, it in seen:
        assert fits[table[purpose]](pos, it), (purpose, pos, it)


def test_quick_start_experiment_builds():
    cfg = build_config(parse_config_text(quick_start_file("experiment.txt")))
    assert (cfg.n, cfg.num_runs, cfg.warmstart.method) == (32, 200, "token-injection")


def test_quick_start_text_gives_the_printed_numbers():
    """The paragraph after the quick-start commands quotes what `run` prints
    for experiment.txt, and for the same config without a warm start."""
    text = " ".join(section("Quick start").split())
    overrides = parse_config_text(quick_start_file("experiment.txt"))
    warm = run_experiment(build_config(overrides))
    cold = run_experiment(build_config({**overrides, "warmstart.method": "none"}))
    assert f"prints `mean_nfe = {warm.mean_nfe}` and `exact_match_rate = {warm.exact_match_rate}`" in text
    assert f"take `mean_nfe = {cold.mean_nfe}` and all of them match" in text
    assert cold.exact_match_rate == 1.0 and warm.mean_nfe < cold.mean_nfe


def test_ci_runs_the_quick_start_experiment():
    """The workflow's console-script step writes the README's experiment.txt."""
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    step = r"cat > experiment\.txt <<'EOF'\n(.*?)\n *EOF\n *warmdiff run --config experiment\.txt\n"
    match = re.search(step, workflow, re.S)
    assert match, "no console-script step for experiment.txt"
    assert [line.strip() for line in match.group(1).splitlines()] == quick_start_file("experiment.txt").splitlines()


def test_quick_start_grid_expands_to_six_points():
    points = expand_grid(parse_config_text(quick_start_file("grid.txt"), allow_sweep_lists=True))
    assert len(points) == 6
    for point in points:
        build_config(point)


@pytest.mark.filterwarnings("error")
def test_library_example_runs():
    block = re.search(r"## Library use\n\n```python\n(.*?)```", README, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {"print": lambda *args: None})
