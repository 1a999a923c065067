"""Wall times rescaled to a reference machine speed.

On a shared host the same work can take 20-40 % longer for tens of seconds
at a time, and a longer run does not average that out. So the benchmark
runs a fixed probe every ``INTERVAL_S`` between measured calls and rescales
each measured interval by ``reference time / probe time`` over the probes
around it. There are two probes, each shaped like the work it rescales:
``"step"`` (single-row products and Python bookkeeping, like scoring and
tracking) and ``"batch"`` (a batched output projection and softmax, like
training). Work that is the same takes the same rescaled time whether the
host is fast or slow; a change to gaptrack moves the rescaled time as much
as the raw one, since the probes run no gaptrack code. Probe time spent
inside a measured interval is subtracted from it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
WINDOW_S = 0.5  # probes this close to a measured interval set its scale

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((2, 96))
_W = _rng.standard_normal((96, 192))
_EDGES = np.sort(_rng.standard_normal(255))
_H = _rng.standard_normal((600, 48))
_HEAD = _rng.standard_normal((48, 1024))


def _step_work() -> None:
    rows = []
    for i in range(250):
        y = np.tanh(_X @ _W)
        s = float(np.exp(-np.abs(y)).sum())
        rows.append((i, s, int(np.searchsorted(_EDGES, s / 1e3))))


def _batch_work() -> None:
    z = _H @ _HEAD
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)


# kind -> (work, the probe's median time on the reference machine; see README)
PROBES = {"step": (_step_work, 0.0045), "batch": (_batch_work, 0.0053)}


class SpeedProbe:
    def __init__(self):
        self.starts: dict[str, list[float]] = {kind: [] for kind in PROBES}
        self.seconds: dict[str, list[float]] = {kind: [] for kind in PROBES}
        self._all_starts: list[float] = []
        self._all_total = [0.0]  # running sum of probe time, for subtraction

    def probe(self, kind: str) -> None:
        started = time.perf_counter()
        PROBES[kind][0]()
        elapsed = time.perf_counter() - started
        self.starts[kind].append(started)
        self.seconds[kind].append(elapsed)
        self._all_starts.append(started)
        self._all_total.append(self._all_total[-1] + elapsed)

    def probe_all(self) -> None:
        for kind in PROBES:
            self.probe(kind)

    def maybe_probe(self, kind: str) -> None:
        starts = self.starts[kind]
        if not starts or time.perf_counter() - starts[-1] >= INTERVAL_S:
            self.probe(kind)

    def scaled(self, start: float, end: float, kind: str) -> float:
        """Seconds the interval [start, end] would take at reference speed, probes excluded."""
        lo = bisect.bisect_left(self._all_starts, start)
        hi = bisect.bisect_left(self._all_starts, end)
        net = (end - start) - (self._all_total[hi] - self._all_total[lo])
        starts = self.starts[kind]
        lo = max(bisect.bisect_left(starts, start - WINDOW_S) - 1, 0)
        hi = min(bisect.bisect_right(starts, end + WINDOW_S) + 1, len(starts))
        return net * PROBES[kind][1] / statistics.median(self.seconds[kind][lo:hi])
