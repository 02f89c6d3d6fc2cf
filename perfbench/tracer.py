"""In-memory span tracer for the benchmark's traced run.

The tracer wraps functions and methods of the program from outside, so the
program itself is unchanged. Each call of a wrapped function becomes a span
(name, start, end, parent) held in flat arrays until the run ends; counts and
self times are worked out from the spans afterwards.
"""

from __future__ import annotations

import functools
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name):
        """Traced version of `fn`.

        `name` is a span name, or a function of the call's positional
        arguments that returns one. A call made while a span of the same name
        is innermost (a fixed-split policy calling its inner policy) stays
        inside that span rather than opening a second one.
        """
        pick = name if callable(name) else None
        fixed = None if pick else self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if pick is None else self._id(pick(args))
            if open_spans and names[open_spans[-1]] == nid:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_spans.pop()

        return traced

    def patch(self, owner, attr: str, name):
        """Trace the function `owner.attr` (a module or class attribute)."""
        self.replace(owner, attr, self.wrap(vars(owner)[attr], name))

    def replace(self, owner, attr: str, new):
        """Set `owner.attr` to `new` until `restore`."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """Per span name: (calls, total seconds, self seconds).

        A span's self time is its duration minus the durations of its child
        spans; children nest inside their parent, so they never overlap it.
        """
        import numpy as np

        if self._open:
            raise RuntimeError("spans still open")
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nid = np.frombuffer(self.name, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        self_s = np.bincount(nid, weights=dur - child, minlength=n)
        return {name: (int(calls[i]), float(total[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def root_names(self) -> set:
        import numpy as np

        parent = np.frombuffer(self.parent, dtype=np.int32)
        nid = np.frombuffer(self.name, dtype=np.int32)
        return {self.names[i] for i in np.unique(nid[parent < 0])}
