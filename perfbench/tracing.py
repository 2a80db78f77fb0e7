"""Span tracer that wraps the public functions of the azqsl modules from
outside the package.

Each call into a wrapped function records one span: a name, start and end
times, the index of the enclosing span, and the request it belongs to.
Spans are kept in flat arrays in memory and written out once the traced run
ends. Self time is the span's duration minus the durations of its direct
children; calls on one thread nest strictly, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("cli", "dynamics", "states", "entropy", "linalg", "qsl")


def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the summed durations of the spans
    whose parent it is. `parents` holds -1 for top-level spans."""
    durations = np.asarray(durations, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    nested = parents >= 0
    child_total = np.bincount(
        parents[nested], weights=durations[nested], minlength=len(durations)
    )
    return durations - child_total


class Tracer:
    """Collects spans from wrapped callables while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.counts: dict[str, float] = {}
        self.current_request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(nid)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """Return `fn` wrapped so each call records a span named `name`;
        `on_result(tracer, result)` may add counts from the return value."""
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code (a
        request or a figure pass)."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    # --- installing -----------------------------------------------------

    def install(self, package, hooks=None) -> None:
        """Wrap every public function defined in the traced modules of
        `package`, plus DensityMatrix construction, in every namespace of
        the package that binds them."""
        hooks = hooks or {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for short in TRACED_MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped = self.wrap(name, obj, hooks.get(name))
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is obj:
                            self._restore.append((mod, key, val))
                            setattr(mod, key, wrapped)
        states = sys.modules[f"{package.__name__}.states"]
        cls = states.DensityMatrix
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self.wrap("states.DensityMatrix", cls.__init__)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, val = self._restore.pop()
            setattr(owner, key, val)

    # --- results --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "request": np.frombuffer(self.request, dtype=np.int64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls", "s", "self_s"}} over every recorded span."""
        arr = self.arrays()
        dur = arr["end"] - arr["start"]
        own = self_times(dur, arr["parent"])
        n = len(self.names)
        calls = np.bincount(arr["name_id"], minlength=n)
        total = np.bincount(arr["name_id"], weights=dur, minlength=n)
        own_total = np.bincount(arr["name_id"], weights=own, minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own_total[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

