"""Spans around the calls one cochad module makes into another.

The tracer wraps module attributes, i.e. names as the calling module
looks them up (``cochad.search.pair_ci``, ``cochad.cli.run_search``),
so nothing inside the package is edited and calls within one module stay
unwrapped.  Spans are kept in memory and written once, by ``dump``.

Worker processes forked by ``run_search(jobs > 1)`` inherit the wrapped
names, but their spans stay in the worker's memory and are lost; the
harness reports the workers' CPU time (``search.children_cpu_s``) in
their place.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# group is trivial and paths is the test oracle, not on the product path.
UNTRACED_MODULES = ("cochad.group", "cochad.paths")

FIELDS = ("name", "start", "end", "parent", "run", "size")


def _home(obj) -> str:
    return getattr(obj, "__module__", None) or ""


class Tracer:
    """Collects (name, start, end, parent, run, size) spans.

    ``size`` comes from an optional per-span-name function of
    (args, result), e.g. the array length a kernel call processed.
    """

    def __init__(self, sizes=None):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._sizes = sizes or {}

    def _wrap(self, name: str, fn):
        spans, stack, size = self.spans, self._stack, self._sizes.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        return traced

    @staticmethod
    def call_cost_s(calls: int = 50_000, repeats: int = 5) -> float:
        """Seconds one wrapper adds to a call, timed on a no-op in this process.

        The best of ``repeats`` timings of ``calls`` wrapped calls, minus
        the same for bare calls.  Multiplied by a run's span count, this
        gives the tracer's cost in that run; sized spans cost a little
        more.
        """
        def noop():
            return None

        probe = Tracer()
        wrapped = probe._wrap("noop", noop)
        best = {}
        for fn in (noop, wrapped):
            timings = []
            for _ in range(repeats):
                start = perf_counter()
                for _ in range(calls):
                    fn()
                timings.append(perf_counter() - start)
                probe.spans.clear()
            best[fn] = min(timings)
        return max(best[wrapped] - best[noop], 0.0) / calls

    @contextmanager
    def installed(self, modules, entry_points=()):
        """Wrap cross-module function names in ``modules`` while active.

        ``entry_points`` are (module, name) pairs the harness itself calls
        through, which the cross-module rule would skip.
        """
        targets = []
        for mod in modules:
            for attr, obj in vars(mod).items():
                home = _home(obj)
                if (
                    isinstance(obj, type)
                    or not callable(obj)
                    or not home.startswith("cochad.")
                    or home == mod.__name__
                    or home in UNTRACED_MODULES
                ):
                    continue
                targets.append((mod, attr))
        targets.extend(entry_points)
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr in targets]
        try:
            for mod, attr, fn in originals:
                name = f"{_home(fn).rsplit('.', 1)[-1]}.{attr}"
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def totals(self, run: int) -> dict[str, dict[str, float]]:
        """Per span name: total and self seconds, calls and summed size.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly in one thread, so children never
        overlap.
        """
        child_s = defaultdict(float)
        for span in self.spans:
            if span[4] == run and span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "size": 0}
        )
        for i, span in enumerate(self.spans):
            if span[4] != run:
                continue
            entry = out[span[0]]
            duration = span[2] - span[1]
            entry["s"] += duration
            entry["self_s"] += duration - child_s[i]
            entry["calls"] += 1
            entry["size"] += span[5]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh, separators=(",", ":"))
