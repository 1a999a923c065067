"""Spans and counters recorded around calls into gaptrack, from outside it.

A :class:`Tracer` replaces module-level names with timing wrappers. It
patches the name a caller looks up, not the defining module's: the tracker
calls ``score_detection`` through ``gaptrack.tracker``, so that is where the
wrapper goes. Each call becomes a span (name, start, end, parent). Spans stay
in memory in flat arrays and are written out once, when the run ends. A
span's self time is its duration minus the time its child spans cover.

The benchmark opens one root span per set-up and per measured round, so
every span and every count belongs to one of them.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()  # (root span name, key) -> count
        self.missing: set[str] = set()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, n: int = 1) -> None:
        root = self.names[self.name_id[self._stack[1]]] if len(self._stack) > 1 else ""
        self.counters[(root, key)] += n

    def wrap(self, target: str, name: str | None, hook=None) -> None:
        """Patch ``target`` (``"module:attr"``) so each call records a span named ``name``.

        ``hook(tracer, args, result)`` runs after the call, outside the span.
        With ``name=None`` no span is recorded, only what the hook counts.
        A target the module no longer has is remembered as missing, so that
        metrics built on it read as absent.
        """
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(target)
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                idx = tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(idx)
            if hook is not None:
                hook(tracer, args, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self):
        """Span totals grouped by root.

        Returns ``(roots, spans)``: ``roots`` maps a root span name to how
        many such roots there are, ``spans`` maps (root name, span name) to
        (number of spans, summed duration, summed self time), in seconds.
        """
        name_id = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        # Pointer jumping: parents precede children, so this reaches every root.
        root = np.where(has_parent, parent, np.arange(len(parent)))
        while True:
            nxt = np.where(parent[root] >= 0, parent[root], root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        roots = Counter(self.names[i] for i in name_id[~has_parent])
        spans = {}
        keys = name_id[root].astype(np.int64) * len(self.names) + name_id
        for key in np.unique(keys):
            sel = keys == key
            root_name = self.names[int(key) // len(self.names)]
            span_name = self.names[int(key) % len(self.names)]
            spans[(root_name, span_name)] = (int(sel.sum()), float(dur[sel].sum()), float(self_time[sel].sum()))
        return roots, spans

    def write(self, path: Path) -> None:
        """Write every span as flat arrays (``names[name_id]``, parent index, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )
