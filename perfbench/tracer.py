"""Span tracer that wraps coarselab functions from outside the package.

Tracer.install() replaces each target function with a wrapper *everywhere it
is bound*: every attribute of every loaded coarselab module (and, for methods,
the class) that holds the same function object, so that calls made through a
``from .x import f`` binding are counted too.  uninstall() puts every original
back.  A target that no longer exists is reported in ``absent`` instead of
failing, so the benchmark survives deletions planned in the program.

Each span records its name, start, end and parent span; spans are kept in
compact in-memory arrays (up to SPAN_CAP of them) and written out at the end.
Self time (duration minus the time covered by child spans) and call counts
are accumulated as the spans close, so they cover every call even past the
cap.  Optional per-target hooks take counts at the same boundaries; their
time is counted as child time of the enclosing span, so that no span's self
time includes the benchmark's own counting.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SPAN_CAP = 500_000


def span_name(module: str, qualname: str) -> str:
    # metric names must start with a letter: "_accel.coalesce" -> "accel.coalesce"
    return f"{module.lstrip('_')}.{qualname}"


class Tracer:
    """Wrap targets, record their spans and run their hooks."""

    def __init__(self, targets, hooks=None):
        self.targets = list(targets)          # (module, qualname) pairs
        self.hooks = dict(hooks or {})        # span name -> hook(tracer, args, kwargs, result)
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counts: dict[str, float] = {}
        self._distinct: dict[str, set] = {}
        self.absent: list[str] = []
        self.hook_s = 0.0
        self.dropped = 0
        self._stack: list[list] = []          # open spans: [child_time, span_index]
        self._span_nid = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._patched: list[tuple] = []

    # -- span bookkeeping ------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._name_id.get(name)
        if i is None:
            i = self._name_id[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return i

    def _open(self, nid: int, t0: float) -> list:
        idx = -1
        if len(self._span_start) < SPAN_CAP:
            idx = len(self._span_start)
            self._span_nid.append(nid)
            self._span_parent.append(self._stack[-1][1] if self._stack else -1)
            self._span_start.append(t0)
            self._span_end.append(t0)
        else:
            self.dropped += 1
        frame = [0.0, idx]
        self._stack.append(frame)
        return frame

    def _close(self, nid: int, frame: list, t0: float, t1: float):
        self._stack.pop()
        dur = t1 - t0
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        if frame[1] >= 0:
            self._span_end[frame[1]] = t1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (setup, item)."""
        nid = self.name_id(name)
        t0 = perf_counter()
        frame = self._open(nid, t0)
        try:
            yield
        finally:
            self._close(nid, frame, t0, perf_counter())

    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            t0 = perf_counter()
            frame = self._open(nid, t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(nid, frame, t0, perf_counter())
            if hook is not None:
                t1 = perf_counter()
                hook(self, args, kwargs, result)
                dt = perf_counter() - t1
                self.hook_s += dt
                if self._stack:
                    self._stack[-1][0] += dt
            return result
        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, value: float = 1):
        self.counts[key] = self.counts.get(key, 0) + value

    def count_max(self, key: str, value: float):
        self.counts[key] = max(self.counts.get(key, value), value)

    def count_min(self, key: str, value: float):
        self.counts[key] = min(self.counts.get(key, value), value)

    def count_distinct(self, key: str, item):
        seen = self._distinct.setdefault(key, set())
        seen.add(item)
        self.counts[key] = len(seen)

    # -- installing and restoring ------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer: already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "coarselab" or n.startswith("coarselab."))]
        for module, qualname in self.targets:
            name = span_name(module, qualname)
            owner = sys.modules.get(f"coarselab.{module}")
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------------

    def stats(self, name: str):
        """(calls, self seconds, total seconds) of a span name; zeros if never seen."""
        i = self._name_id.get(name)
        if i is None:
            return 0, 0.0, 0.0
        return self.calls[i], self.self_time[i], self.total[i]

    @property
    def kept_spans(self) -> int:
        return len(self._span_start)

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self._span_nid, np.int32),
            parent=np.frombuffer(self._span_parent, np.int32),
            start=np.frombuffer(self._span_start, np.float64),
            end=np.frombuffer(self._span_end, np.float64),
            dropped=np.array(self.dropped))
