"""Exact minimum-cost bipartite assignment with forbidden pairs.

``solve`` returns a maximum-cardinality matching over the allowed (finite)
entries that minimizes total cost. Forbidden pairs are marked with
``FORBIDDEN`` (+inf). When several matchings are optimal, ``solve`` returns
the one its augmenting-path solve reaches; that choice is deterministic but
follows no stated order.

The allowed entries form a bipartite graph, which is split into connected
components. Components share no rows or columns, so each one's maximum
cardinality and minimum cost are its own, and the answer is their union. A
component with one row or one column takes its cheapest entry. When no row
and no column has two allowed entries, every component is a single pair,
and the answer is every allowed pair, found without labelling components.

Larger components are solved by a rectangular shortest-augmenting-path
method (Jonker-Volgenant style, Crouse 2016) over the shorter side, which is
transposed to the rows when needed. Each of those rows gets one private
"stay unmatched" column priced high enough that cardinality dominates cost;
nothing else is padded. The arithmetic is additions and subtractions only,
so integer cost matrices are solved exactly.
"""

from __future__ import annotations

import numpy as np

FORBIDDEN = float("inf")


def _components(finite: np.ndarray):
    """Label each row and column with the smallest row index of its component.

    Rows and columns with no allowed entry get the label ``n_rows``.
    """
    n_rows = finite.shape[0]
    row_label = np.where(finite.any(axis=1), np.arange(n_rows), n_rows)
    while True:
        col_label = np.where(finite, row_label[:, None], n_rows).min(axis=0)
        spread = np.minimum(row_label, np.where(finite, col_label, n_rows).min(axis=1))
        if np.array_equal(spread, row_label):
            return row_label, col_label
        row_label = spread


def _unmatched_price(costs: np.ndarray) -> float:
    """Price of leaving a row unmatched: more than any matching one pair smaller can save."""
    finite = costs[np.isfinite(costs)]
    return 1.0 + 2.0 * min(costs.shape) * float(np.abs(finite).max())


def _augment(costs: np.ndarray, price: float):
    """Min-cost matching of every row of an (n, m) matrix, n <= m, to a column or to "unmatched".

    Row i may stay unmatched at ``price`` through its private column m + i.
    Returns row_to_col, with -1 marking an unmatched row.
    """
    n, m = costs.shape
    width = m + n
    ext = np.full((n, width), np.inf)
    ext[:, :m] = costs
    ext[np.arange(n), m + np.arange(n)] = price
    v = np.zeros(width)
    row_to_col = np.full(n, -1, dtype=np.int64)
    col_to_row = np.full(width, -1, dtype=np.int64)
    cols = np.arange(width)
    # Each row's cheapest column goes to the first row that wants it: with
    # u at the row minima and v at zero the duals are feasible and tight there.
    u = ext.min(axis=1)
    wanted, first = np.unique(ext.argmin(axis=1), return_index=True)
    row_to_col[first] = wanted
    col_to_row[wanted] = first

    for i in np.flatnonzero(row_to_col < 0):
        # Dijkstra over reduced costs from row i; columns tied at the current
        # distance are settled together, and a free one among them ends the search.
        dist = ext[i] - v
        pred = np.full(width, i, dtype=np.int64)
        done = np.zeros(width, dtype=bool)
        settled = []
        while True:
            open_dist = np.where(done, np.inf, dist)
            mu = open_dist.min()
            ties = np.flatnonzero(open_dist == mu)
            free = ties[col_to_row[ties] < 0]
            if free.size:
                sink = int(free[0])
                break
            done[ties] = True
            settled.append(ties)
            owners = col_to_row[ties]
            via = mu + ext[owners] - u[owners, None] - v
            best = via.argmin(axis=0)
            via = via[best, cols]
            better = ~done & (via < dist)
            dist[better] = via[better]
            pred[better] = owners[best[better]]
        if settled:
            reached = np.concatenate(settled)
            shift = mu - dist[reached]
            u[col_to_row[reached]] += shift
            v[reached] -= shift
        u[i] = mu
        j = sink
        while True:
            row = int(pred[j])
            previous = int(row_to_col[row])
            row_to_col[row] = j
            col_to_row[j] = row
            if row == i:
                break
            j = previous

    return np.where(row_to_col < m, row_to_col, -1)


def _solve_component(costs: np.ndarray) -> np.ndarray:
    """Row-to-column matching (-1 unmatched) of one connected component."""
    n, m = costs.shape
    price = _unmatched_price(costs)
    if n <= m:
        return _augment(costs, price)
    col_to_row = _augment(costs.T, price)
    row_to_col = np.full(n, -1, dtype=np.int64)
    matched = np.flatnonzero(col_to_row >= 0)
    row_to_col[col_to_row[matched]] = matched
    return row_to_col


def solve(costs: np.ndarray) -> list[tuple[int, int]]:
    """Optimal assignment for an (N, M) cost matrix; see the module docstring.

    Returns (row, column) pairs sorted by row. Entries must be finite or
    ``FORBIDDEN``; rows and columns without any allowed partner stay
    unmatched, as do pairs whose exclusion permits a larger matching.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ValueError(f"expected a 2-D cost matrix, got shape {costs.shape}")
    n_rows, n_cols = costs.shape
    if n_rows == 0 or n_cols == 0:
        return []
    if np.any(np.isnan(costs)) or np.any(np.isneginf(costs)):
        raise ValueError("cost entries must be finite or FORBIDDEN (+inf)")
    finite = np.isfinite(costs)
    if not finite.any():
        return []
    if finite.sum(axis=1).max() == 1 and finite.sum(axis=0).max() == 1:
        rows, cols = np.nonzero(finite)
        return list(zip(rows.tolist(), cols.tolist()))

    row_label, col_label = _components(finite)
    rows_in = np.bincount(row_label, minlength=n_rows + 1)
    cols_in = np.bincount(col_label, minlength=n_rows + 1)
    rows_in[n_rows] = cols_in[n_rows] = 0

    lone_rows = np.flatnonzero(rows_in[row_label] == 1)
    lone_cols = np.flatnonzero((cols_in[col_label] == 1) & (rows_in[col_label] > 1))
    # A lone row or column takes its cheapest entry; forbidden ones cost +inf.
    got_rows = [lone_rows, costs[:, lone_cols].argmin(axis=0)]
    got_cols = [costs[lone_rows].argmin(axis=1), lone_cols]
    for label in np.flatnonzero((rows_in > 1) & (cols_in > 1)):
        rows = np.flatnonzero(row_label == label)
        cols = np.flatnonzero(col_label == label)
        row_to_col = _solve_component(costs[np.ix_(rows, cols)])
        matched = row_to_col >= 0
        got_rows.append(rows[matched])
        got_cols.append(cols[row_to_col[matched]])

    all_rows = np.concatenate(got_rows)
    all_cols = np.concatenate(got_cols)
    order = np.argsort(all_rows, kind="stable")
    return list(zip(all_rows[order].tolist(), all_cols[order].tolist()))
