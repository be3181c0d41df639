"""Outside-in instrumentation of warmdiff: attribute patches and a span tracer.

Nothing here changes the engine's code. Functions are wrapped by replacing
every module attribute that holds them (so `warmdiff.decoder.softmax` is
wrapped, not only `warmdiff.core.softmax`), methods by replacing the class
attribute; `Patches.restore` puts every original object back.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def function(self, fn, wrapper, modules):
        """Replace every attribute of `modules` that is `fn` with `wrapper`."""
        hits = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    hits += 1
        if not hits:
            raise LookupError(f"{fn.__qualname__} is not a module attribute of the traced modules")

    def method(self, cls, attr, make_wrapper):
        """Replace `cls.attr` with `make_wrapper(function)`, keeping classmethods."""
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make_wrapper(original.__func__))
        else:
            replacement = make_wrapper(original)
        self._saved.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def restore(self) -> bool:
        """Put every original back; True when each attribute holds it again."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        return all(vars(owner)[attr] is original for owner, attr, original in saved)


def package_modules(package: str) -> list:
    """The loaded modules of `package`, itself included."""
    return [m for name, m in sorted(sys.modules.items()) if name == package or name.startswith(package + ".")]


class Tracer:
    """Spans kept in memory, plus counted leaf calls.

    A span records (name, start, end, parent span, run id); spans that start
    inside one `run_one` call share its run id, and all others get -1. Leaf
    calls (hot primitives such as rng draws) are counted and timed without
    their own span record: their time is charged to the leaf's name and taken
    off the enclosing span's self time, exactly as a child span would be.
    Self time of a name is its spans' durations minus their children's.
    """

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self.run = array("i")
        self.self_s: dict[str, float] = {}
        self.total_s: Counter = Counter()  # span durations, children included
        self.calls: Counter = Counter()
        self.keyed: Counter = Counter()  # (leaf name, key) -> calls
        self.on = True
        self._stack = [[-1, 0.0]]  # [span index, time covered by children]
        self._run_id = -1
        self._runs = 0

    def _register(self, name: str) -> int:
        if name not in self.self_s:
            self.names.append(name)
            self.self_s[name] = 0.0
        return self.names.index(name)

    def span(self, name: str, fn, opens_run: bool = False):
        """`fn` wrapped so that each call records one span."""
        nid = self._register(name)
        tracer, stack, self_s, total_s, calls = self, self._stack, self.self_s, self.total_s, self.calls
        starts, ends, names, parents, runs = self.start, self.end, self.name, self.parent, self.run

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            outer_run = tracer._run_id
            if opens_run:
                tracer._run_id = tracer._runs
                tracer._runs += 1
            parent = stack[-1]
            index = len(starts)
            starts.append(0.0)
            ends.append(0.0)
            names.append(nid)
            parents.append(parent[0])
            runs.append(tracer._run_id)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._run_id = outer_run
                starts[index] = t0
                ends[index] = t1
                self_s[name] += (t1 - t0) - frame[1]
                total_s[name] += t1 - t0
                calls[name] += 1
                parent[1] += t1 - t0

        return traced

    def leaf(self, name: str, fn, key_arg: int | None = None, timed: bool = True):
        """`fn` wrapped so that each call is counted, and timed if `timed`.

        With `key_arg`, calls are also counted by that positional argument.
        """
        self._register(name)
        tracer, stack, self_s, calls, keyed = self, self._stack, self.self_s, self.calls, self.keyed

        if not timed:

            def counted(*args, **kwargs):
                if tracer.on:
                    calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        def timed_leaf(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            stack[-1][1] += dt
            self_s[name] += dt
            calls[name] += 1
            if key_arg is not None:
                keyed[name, args[key_arg]] += 1
            return out

        return timed_leaf

    @contextmanager
    def paused(self):
        self.on = False
        try:
            yield
        finally:
            self.on = True

    def write_spans(self, path) -> int:
        """Write the spans as TSV, times in µs from the first span; returns the count."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\tname\tstart_us\tend_us\tparent\trun\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.names[self.name[i]]}\t{(self.start[i] - origin) * 1e6:.3f}\t"
                    f"{(self.end[i] - origin) * 1e6:.3f}\t{self.parent[i]}\t{self.run[i]}\n"
                )
        return len(self.start)

