"""The benchmark resolves engine names: a refactor must keep them.

`bench/measure.py:install_tracer` looks up each layer's public functions and
methods wherever the engine resolves them, on every benchmark run, traced or
not, and raises LookupError for a name that no engine module holds any more.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_install_tracer_finds_every_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    names = ("measure", "tracing", "workloads")
    loaded = {name: sys.modules.get(name) for name in names}
    try:
        measure = importlib.import_module("measure")
        tracing = importlib.import_module("tracing")
        patches = measure.install_tracer(tracing.Tracer(), measure)  # LookupError if a name is gone
        assert patches.restore()
    finally:
        for name, module in loaded.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
