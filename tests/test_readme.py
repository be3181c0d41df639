"""README.md against the config schema: the key table, the sweep keys, and
the quick-start files must say what the code does."""

import re
from pathlib import Path

import pytest

from warmdiff.harness import SCHEMA, SWEEP_ORDER, build_config, expand_grid, parse_config_text

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


def test_quick_start_experiment_builds():
    cfg = build_config(parse_config_text(quick_start_file("experiment.txt")))
    assert (cfg.n, cfg.num_runs, cfg.warmstart.method) == (32, 200, "token-injection")


def test_quick_start_grid_expands_to_six_points():
    points = expand_grid(parse_config_text(quick_start_file("grid.txt"), allow_sweep_lists=True))
    assert len(points) == 6
    for point in points:
        build_config(point)


@pytest.mark.filterwarnings("error")
def test_library_example_runs():
    block = re.search(r"## Library use\n\n```python\n(.*?)```", README, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {"print": lambda *args: None})
