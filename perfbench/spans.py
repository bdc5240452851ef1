"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``SpanRecorder.install``
replaces module and class attributes of ``keenact`` with wrappers that
time each call, and ``uninstall`` puts the originals back.  Where a
module imports a function by name, the wrapper goes on the importing
module's attribute, because that is the name the caller looks up.

Each span is (name, start, end, parent), kept in flat arrays so that the
hundreds of thousands of spans of a training run stay small; they are
written out once, after the run, by ``save``.  Calls are nested and come
from one thread, so a span's children never overlap and its self time is
its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, fn, name, on_result=None):
        """Wrap ``fn`` so each call records one span.

        ``name`` is a string or a function of the call's arguments;
        ``on_result(recorder, duration, result, *args, **kwargs)`` runs
        after the span closes, to add counters and samples.
        """
        clock = time.perf_counter
        fixed = None if callable(name) else self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(*args, **kwargs))
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if on_result is not None:
                on_result(self, self.end[i] - self.start[i], result, *args, **kwargs)
            return result

        return wrapper

    def install(self, owner, attr: str, name, on_result=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(original, name, on_result))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total (inclusive) seconds, self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        selft = dur - child
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=dur, minlength=n)
        self_s = np.bincount(a["name"], weights=selft, minlength=n)
        return {
            nm: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, nm in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
