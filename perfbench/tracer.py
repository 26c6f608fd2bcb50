"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the public functions one ``tractfield`` module
calls in another.  The wrappers are installed by replacing the name in the
calling module's namespace (or the method on its class) for the duration
of a traced iteration and restored afterwards, so no library file changes.

Each span keeps its name, start, end, parent span and run id in flat
arrays; per-call counts (points evaluated, bytes written) accumulate beside
them.  ``totals_by_run`` derives per-name totals and self times, where a span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


class Tracer:
    """Records nested spans and counters while its patches are installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._run = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.run_id = 0

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        i = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self.run_id)
        self._end.append(0)
        self._stack.append(i)
        self._start.append(perf_counter_ns())
        return i

    def _close(self, i):
        self._end[i] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def count(self, key, amount):
        self.counts[self.run_id][key] += amount

    def wrap(self, fn, name, counter=None):
        """``fn`` recording a span per call; ``counter`` sees args and result."""
        nid = self._id(name)
        opn, cls = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = opn(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                cls(i)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, patches):
        """Replace each ``(owner, attr, span_name, counter)`` with a wrapper."""
        saved = []
        try:
            for owner, attr, name, counter in patches:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        """Span table as numpy arrays (times in seconds from the first span)."""
        start = np.frombuffer(self._start, dtype=np.int64)
        end = np.frombuffer(self._end, dtype=np.int64)
        t0 = int(start.min()) if len(start) else 0
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self._run, dtype=np.int32).copy(),
            "start": (start - t0) / 1e9,
            "end": (end - t0) / 1e9,
        }

    def write(self, path):
        """Write the span table to ``path`` (numpy .npz, names by index)."""
        tmp = f"{path}.tmp.npz"
        np.savez_compressed(tmp, names=np.array(self.names), **self.arrays())
        os.replace(tmp, path)


def self_times(parent, start, end):
    """Duration minus the time covered by direct children, per span.

    Spans come from one thread and nest properly, so direct children never
    overlap and their durations add up to the covered time.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - covered


def check_well_formed(tables, tol=1e-9):
    """List problems: open spans, children outside parents, negative self time."""
    parent, start, end, run = (
        tables["parent"], tables["start"], tables["end"], tables["run"]
    )
    problems = []
    if np.any(end < start):
        problems.append("span ends before it starts (left open?)")
    child = np.flatnonzero(parent >= 0)
    par = parent[child]
    if np.any(par >= child):
        problems.append("parent recorded after its child")
    if np.any(start[child] < start[par] - tol) or np.any(end[child] > end[par] + tol):
        problems.append("child span outside its parent")
    if np.any(run[child] != run[par]):
        problems.append("child span in another run than its parent")
    if len(start) and self_times(parent, start, end).min() < -tol:
        problems.append("negative self time")
    return problems


def totals_by_run(tracer):
    """Per run id: {span name: (calls, total seconds, self seconds)}."""
    tables = tracer.arrays()
    own = self_times(tables["parent"], tables["start"], tables["end"])
    dur = tables["end"] - tables["start"]
    result = {}
    for run in np.unique(tables["run"]):
        sel = tables["run"] == run
        names = tables["name"][sel]
        k = len(tracer.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur[sel], minlength=k)
        own_total = np.bincount(names, weights=own[sel], minlength=k)
        result[int(run)] = {
            tracer.names[i]: (int(calls[i]), float(total[i]), float(own_total[i]))
            for i in range(k)
            if calls[i]
        }
    return result
