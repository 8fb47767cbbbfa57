"""Spans and counters recorded from outside the program.

The tracer patches public functions and methods of kinchem's modules so
that every call opens a span (name, start, end, parent).  Spans are kept in
memory and written once, when the run ends.  Nothing here is imported by
kinchem; an untraced run patches nothing.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

RNG_METHODS = ("random", "randrange", "gauss", "expovariate", "gammavariate",
               "betavariate")


class NullTracer:
    """What an untraced run passes around: spans cost nothing, nothing is patched."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index or -1]
        self._open: list = []
        self._patches: list = []
        self.absent: list = []       # span names whose target does not exist

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until ``restore``.

        ``on_call(*args, **kwargs)``, when given, sees each call's arguments.
        A missing target is recorded as absent, so a metric whose code was
        removed reads as absent rather than failing the run.
        """
        target = owner.__dict__.get(attr) if isinstance(owner, type) else \
            getattr(owner, attr, None)
        if target is None:
            self.absent.append(name)
            return

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = self.begin(name)
            try:
                return target(*args, **kwargs)
            finally:
                self.end(idx)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, target))

    def restore(self) -> None:
        for owner, attr, target in reversed(self._patches):
            setattr(owner, attr, target)
        self._patches.clear()

    # -- summaries --------------------------------------------------------------

    def _children_time(self) -> list:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return child

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def total(self, name: str) -> float:
        """Summed duration of spans with this name (nested calls counted once)."""
        out = 0.0
        for sname, t0, t1, parent in self.spans:
            if sname == name and not self._inside(parent, name):
                out += t1 - t0
        return out

    def _inside(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_entries(self, layer: str):
        """Spans of ``layer`` entered from outside it: (count, busy seconds)."""
        count, busy = 0, 0.0
        for name, t0, t1, parent in self.spans:
            if _layer(name) == layer and (parent < 0 or _layer(self.spans[parent][0]) != layer):
                count += 1
                busy += t1 - t0
        return count, busy

    def self_times(self) -> dict:
        """Per layer: span durations minus the time their child spans cover."""
        child = self._children_time()
        out: dict = defaultdict(float)
        for idx, (name, t0, t1, _) in enumerate(self.spans):
            out[_layer(name)] += (t1 - t0) - child[idx]
        return dict(out)

    def write(self, path, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "absent": self.absent,
                       "spans": [{"name": n, "start": a, "end": b, "parent": p}
                                 for n, a, b, p in self.spans]}, fh)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.idx)
        return False


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class CountingRandom:
    """Stand-in for ``random.Random`` that counts and times each variate call.

    Every method delegates to the wrapped generator, so the stream it yields
    is the wrapped generator's own; calls the generator makes internally are
    not counted.  Counts and times are aggregated, not kept as spans.
    """

    def __init__(self, inner, tally: dict):
        self._inner = inner
        for method in RNG_METHODS:
            setattr(self, method, _counted(getattr(inner, method), method, tally))

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _counted(fn, method: str, tally: dict):
    clock = time.perf_counter
    calls_key = method + "_calls"
    time_key = method + "_s"

    def counted(*args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        tally[time_key] += clock() - t0
        tally[calls_key] += 1
        return out

    return counted


def new_rng_tally() -> dict:
    tally: dict = {}
    for method in RNG_METHODS:
        tally[method + "_calls"] = 0
        tally[method + "_s"] = 0.0
    return tally
