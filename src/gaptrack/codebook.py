"""Data-dependent quantization of box velocities.

Each of the four velocity components gets its own 1-D codebook fitted by
k-means, so a continuous velocity maps to a quadruple of cluster indices and
each index decodes back to its component centroid. All four codebooks share
one size K; if some component has fewer distinct sample values than requested,
K is reduced to the smallest achievable count so the quadruple stays
rectangular. :func:`quantize` and :func:`decode` work on arrays whose last
axis holds the four components, of any leading shape.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyInputError, SchemaError
from .geometry import COMPONENTS

_FILE_MAGIC = "gaptrack-codebook"
_FILE_VERSION = 1

# Distinct-value count below which fitting switches to the exact
# dynamic program over contiguous partitions of the sorted values.
_EXACT_FIT_LIMIT = 64

# Centroids closer than this are considered duplicates.
_DEDUP_TOL = 1e-12

# Lloyd iterations a component fit may take before it stops unconverged.
_MAX_LLOYD_ITERS = 100


@dataclass(frozen=True)
class Codebook:
    """Four sorted centroid arrays, one per velocity component, each of length k."""

    centroids: np.ndarray  # shape (4, k), rows sorted ascending
    k: int

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float64)
        if c.shape != (4, self.k):
            raise SchemaError(f"centroids must have shape (4, {self.k}), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise SchemaError("centroids must be finite")
        for row in c:
            if np.any(np.diff(row) <= _DEDUP_TOL) and self.k > 1:
                raise SchemaError("centroid rows must be strictly ascending")
        object.__setattr__(self, "centroids", c)

    def checksum(self) -> str:
        """Hex digest over k and the centroid bytes; identifies the codebook."""
        digest = hashlib.sha256()
        digest.update(str(self.k).encode())
        digest.update(np.ascontiguousarray(self.centroids).tobytes())
        return digest.hexdigest()


def _weighted_sse_prefix(values: np.ndarray, weights: np.ndarray):
    """Prefix sums enabling O(1) weighted SSE of any contiguous value range."""
    w = np.concatenate([[0.0], np.cumsum(weights)])
    wx = np.concatenate([[0.0], np.cumsum(weights * values)])
    wxx = np.concatenate([[0.0], np.cumsum(weights * values * values)])

    def sse(i: int, j: int) -> float:
        # inclusive range values[i..j]
        sw = w[j + 1] - w[i]
        sx = wx[j + 1] - wx[i]
        sxx = wxx[j + 1] - wxx[i]
        return sxx - sx * sx / sw

    return sse


def _fit_exact(values: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Optimal 1-D k-means on weighted distinct values via dynamic programming.

    In one dimension every optimal clustering is a contiguous partition of the
    sorted values, so a Bellman recursion over split points finds the global
    SSE minimum. Only used for small inputs; cost is O(k * n^2).
    """
    n = len(values)
    sse = _weighted_sse_prefix(values, weights)
    cost = np.full((k + 1, n), np.inf)
    split = np.zeros((k + 1, n), dtype=np.int64)
    for j in range(n):
        cost[1, j] = sse(0, j)
    for m in range(2, k + 1):
        for j in range(m - 1, n):
            for i in range(m - 1, j + 1):
                c = cost[m - 1, i - 1] + sse(i, j)
                if c < cost[m, j]:
                    cost[m, j] = c
                    split[m, j] = i
    bounds = [n - 1]
    for m in range(k, 1, -1):
        bounds.append(split[m, bounds[-1]] - 1)
    bounds = bounds[::-1]
    centroids = []
    start = 0
    for end in bounds:
        seg_w = weights[start : end + 1]
        seg_v = values[start : end + 1]
        centroids.append(float(np.sum(seg_w * seg_v) / np.sum(seg_w)))
        start = end + 1
    return np.array(centroids)


def _kmeans_pp_seeds(values: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding over weighted distinct values."""
    n = len(values)
    seeds = np.empty(k)
    idx = rng.choice(n, p=weights / weights.sum())
    seeds[0] = values[idx]
    d2 = (values - seeds[0]) ** 2
    for m in range(1, k):
        p = weights * d2
        idx = rng.choice(n, p=p / p.sum())
        seeds[m] = values[idx]
        d2 = np.minimum(d2, (values - seeds[m]) ** 2)
    return np.sort(seeds)


def _fit_lloyd(values: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ plus Lloyd iterations on weighted distinct values.

    In 1-D the assignment step reduces to bucketing values by the midpoints
    between sorted centroids, so each iteration is a searchsorted plus a
    segmented weighted mean. Stops when no centroid moves more than 1e-9.
    """
    centroids = _kmeans_pp_seeds(values, weights, k, rng)
    w_cum = np.concatenate([[0.0], np.cumsum(weights)])
    wx_cum = np.concatenate([[0.0], np.cumsum(weights * values)])
    for _ in range(_MAX_LLOYD_ITERS):
        mids = 0.5 * (centroids[:-1] + centroids[1:])
        # boundary index of the first value belonging to each cluster
        starts = np.concatenate([[0], np.searchsorted(values, mids, side="left"), [len(values)]])
        new = centroids.copy()
        for m in range(k):
            lo, hi = starts[m], starts[m + 1]
            if hi > lo:
                new[m] = (wx_cum[hi] - wx_cum[lo]) / (w_cum[hi] - w_cum[lo])
            else:
                # empty cluster: reseed at the value farthest from its centroid
                assigned = np.searchsorted(mids, values, side="left")
                dist = np.abs(values - centroids[assigned])
                new[m] = values[int(np.argmax(dist * weights))]
        new = np.sort(new)
        moved = np.max(np.abs(new - centroids))
        centroids = new
        if moved < 1e-9:
            break
    return centroids


def _merge_near_duplicates(values: np.ndarray, counts: np.ndarray):
    """Collapse runs of values spaced under the dedup tolerance into one.

    Bit-level float noise (e.g. repeated subtraction of nearly equal
    coordinates) otherwise inflates the distinct-value count and lets a
    partition split numerically identical values, yielding equal centroids.
    """
    if len(values) <= 1:
        return values, counts
    starts = np.concatenate([[0], np.flatnonzero(np.diff(values) > _DEDUP_TOL) + 1])
    merged_w = np.add.reduceat(counts, starts)
    merged_v = np.add.reduceat(counts * values, starts) / merged_w
    return merged_v, merged_w


def _spread_duplicates(centroids: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """Replace collapsed centroids with the distinct values they starve most.

    Lloyd can merge two centroids; validity requires exactly k strictly
    ascending ones, and k never exceeds the distinct value count.
    """
    cents = np.unique(centroids)
    while len(cents) < k:
        pos = np.clip(np.searchsorted(cents, values), 1, len(cents) - 1)
        gap = np.minimum(
            np.abs(values - cents[pos - 1]), np.abs(values - cents[np.minimum(pos, len(cents) - 1)])
        )
        gap[np.isin(values, cents)] = -1.0
        cents = np.sort(np.append(cents, values[int(np.argmax(gap))]))
    return cents


def _fit_component(values: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    if len(values) <= _EXACT_FIT_LIMIT:
        return _fit_exact(values, weights, k)
    return _spread_duplicates(_fit_lloyd(values, weights, k, rng), values, k)


def fit(samples, k: int, seed: int) -> Codebook:
    """Fit four independent 1-D codebooks of common size to velocity samples.

    ``samples`` is an (N, 4) array of velocities. Each component is
    clustered on its distinct values (weighted by multiplicity). If any
    component has fewer than ``k`` distinct values, the common size is
    reduced to the smallest distinct count so every component returns the
    same number of centroids. Deterministic given
    ``(samples, k, seed)``; each component draws from its own seeded stream so
    the result does not depend on evaluation order.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise EmptyInputError(f"expected velocity samples of shape (N, 4), got {arr.shape}")
    if arr.shape[0] == 0:
        raise EmptyInputError("cannot fit a codebook on zero velocity samples")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    per_component = []
    for c in range(4):
        values, counts = np.unique(arr[:, c], return_counts=True)
        values, counts = _merge_near_duplicates(values, counts.astype(np.float64))
        per_component.append((values, counts))

    k_eff = min(k, min(len(values) for values, _ in per_component))
    rows = []
    for c, (values, weights) in enumerate(per_component):
        rng = np.random.default_rng([seed, c])
        rows.append(_fit_component(values, weights, k_eff, rng))
    return Codebook(centroids=np.stack(rows), k=k_eff)


def quantize(deltas: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Nearest-centroid indices of (..., 4) velocities, as an int64 array of the same shape.

    Exact midpoint ties go to the lower index.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    out = np.empty(deltas.shape, dtype=np.int64)
    for c in range(4):
        row = codebook.centroids[c]
        mids = 0.5 * (row[:-1] + row[1:])
        out[..., c] = np.searchsorted(mids, deltas[..., c], side="left")
    return out


# The benchmark still calls the quantizer by this name.
quantize_array = quantize


def decode(cells: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Velocities made of the centroids that (..., 4) cluster-index quadruples select."""
    return codebook.centroids[np.arange(4), cells]


def save_codebook(path, codebook: Codebook) -> None:
    """Write the codebook as versioned JSON with per-component centroid arrays."""
    payload = {
        "magic": _FILE_MAGIC,
        "version": _FILE_VERSION,
        "k": codebook.k,
        "centroids": {name: codebook.centroids[i].tolist() for i, name in enumerate(COMPONENTS)},
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_codebook(path) -> Codebook:
    """Read a codebook written by :func:`save_codebook`; validates magic and version."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not a valid codebook file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != _FILE_MAGIC:
        raise SchemaError(f"{path}: missing codebook file magic")
    if payload.get("version") != _FILE_VERSION:
        raise SchemaError(f"{path}: unsupported codebook version {payload.get('version')!r}")
    try:
        k = int(payload["k"])
        rows = [payload["centroids"][name] for name in COMPONENTS]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{path}: malformed codebook payload: {exc}") from exc
    if any(len(r) != k for r in rows):
        raise SchemaError(f"{path}: centroid arrays disagree with k={k}")
    return Codebook(centroids=np.array(rows, dtype=np.float64), k=k)
