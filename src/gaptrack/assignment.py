"""Exact minimum-cost bipartite assignment with forbidden pairs.

``solve`` returns a maximum-cardinality matching over the allowed (finite)
entries that minimizes total cost, breaking ties by the lexicographically
smallest assignment when matchings are compared as row-sorted (row, column)
pair lists. Forbidden pairs are marked with ``FORBIDDEN`` (+inf).

The allowed entries form a bipartite graph, which is split into connected
components. Components share no rows or columns, so each one's maximum
cardinality, minimum cost and smallest row-sorted pair list are its own, and
the answer is their union. A component with one row or one column takes its
cheapest entry, the lowest index on a tie. When no row and no column has two
allowed entries, every component is a single pair, and the answer is every
allowed pair, found without labelling components.

Larger components are solved by a rectangular shortest-augmenting-path
method (Jonker-Volgenant style, Crouse 2016) over the shorter side, which is
transposed to the rows when needed. Each of those rows gets one private
"stay unmatched" column priced high enough that cardinality dominates cost;
nothing else is padded. The solve leaves optimal dual potentials, and every
optimal matching uses only tight (zero reduced cost) pairs under them, so
ties are settled without solving again: walking the rows in order, each row
is moved to its smallest tight column that some alternating cycle or pair of
alternating paths over the rows not yet settled can make room for, and the
matching is rotated along it. The arithmetic is additions and subtractions
only, so integer cost matrices are solved exactly; in an N x M component,
float costs count as tied within 64 * (N + M) units in the last place of
the unmatched price.
"""

from __future__ import annotations

import numpy as np

FORBIDDEN = float("inf")

_EPS = np.finfo(np.float64).eps
_TIE_ULPS = 64.0


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


def _tie_tolerance(price, n_rows, n_cols):
    """How far apart two costs may be and still count as tied (numbers or arrays)."""
    return _TIE_ULPS * _EPS * price * (n_rows + n_cols)


def _augment(costs: np.ndarray, price: float):
    """Min-cost matching of every row of an (n, m) matrix, n <= m, to a column or to "unmatched".

    Row i may stay unmatched at ``price`` through its private column m + i.
    Returns (row_to_col, row_dual, col_dual): -1 marks an unmatched row; the
    duals are feasible (cost[i, j] - row_dual[i] - col_dual[j] >= 0), tight on
    matched pairs, ``row_dual <= price`` with equality on unmatched rows, and
    ``col_dual <= 0`` with equality on unmatched columns.
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

    row_dual = u + v[m:]
    return np.where(row_to_col < m, row_to_col, -1), row_dual, v[:m]


def _reach_back(tight, targets, row_to_col, movable):
    """Columns that can hand their row on along tight pairs until one of ``targets`` absorbs the move.

    Returns ``onward``: -2 for columns not reached, -1 for targets, and for
    every other reached column j the column its row moves to.
    """
    onward = np.full(tight.shape[1], -2, dtype=np.int64)
    onward[targets] = -1
    frontier = targets
    while frontier.size:
        hits = tight[:, frontier]
        rows = np.flatnonzero(movable & hits.any(axis=1))
        rows = rows[onward[row_to_col[rows]] == -2]
        if not rows.size:
            break
        cols = row_to_col[rows]
        onward[cols] = frontier[hits[rows].argmax(axis=1)]
        frontier = cols
    return onward


def _refill(tight, start, free_col, row_to_col, open_row):
    """Find a way to refill column ``start`` after its row leaves.

    Either the column (or one further along) may stay empty, or an unmatched
    row takes it. Returns (end_col, taker, came_from) or None: ``taker`` is
    the unmatched row that takes ``end_col`` (-1 when it stays empty), and
    ``came_from[j]`` is the column that the row of j moves to.
    """
    came_from = np.full(tight.shape[1], -2, dtype=np.int64)
    came_from[start] = -1
    seen = ~open_row
    frontier = np.array([start])
    while frontier.size:
        empty = frontier[free_col[frontier]]
        if empty.size:
            return int(empty[0]), -1, came_from
        hits = tight[:, frontier]
        rows = np.flatnonzero(~seen & hits.any(axis=1))
        if not rows.size:
            return None
        seen[rows] = True
        to = frontier[hits[rows].argmax(axis=1)]
        loose = np.flatnonzero(row_to_col[rows] < 0)
        if loose.size:
            return int(to[loose[0]]), int(rows[loose[0]]), came_from
        cols = row_to_col[rows]
        came_from[cols] = to
        frontier = cols
    return None


def _break_ties(costs, row_to_col, row_dual, col_dual, row_price, col_price, tol):
    """Rotate an optimal matching in place to the lexicographically smallest optimal one."""
    n, m = costs.shape
    tight = costs - row_dual[:, None] - col_dual[None, :] <= tol
    tight_count = tight.sum(axis=1)
    row_may_empty = row_dual >= row_price - tol
    col_may_empty = col_dual >= col_price - tol
    col_to_row = np.full(m, -1, dtype=np.int64)
    matched = np.flatnonzero(row_to_col >= 0)
    col_to_row[row_to_col[matched]] = matched
    open_row = np.ones(n, dtype=bool)
    open_col = np.ones(m, dtype=bool)

    for r in range(n):
        open_row[r] = False
        c_r = int(row_to_col[r])
        if tight_count[r] > (c_r >= 0):
            limit = c_r if c_r >= 0 else m
            candidates = np.flatnonzero(tight[r, :limit] & open_col[:limit])
            if candidates.size:
                _move_to_smallest(r, c_r, candidates, tight, row_to_col, col_to_row,
                                  open_row, open_col, row_may_empty, col_may_empty)
        if row_to_col[r] >= 0:
            open_col[row_to_col[r]] = False


def _move_to_smallest(r, c_r, candidates, tight, row_to_col, col_to_row,
                      open_row, open_col, row_may_empty, col_may_empty):
    """Move row r to the smallest candidate column that an optimal matching allows."""
    movable = open_row & (row_to_col >= 0)
    no_way = np.full(tight.shape[1], -2, dtype=np.int64)
    # A cycle: c's row moves on along tight pairs until some row takes c_r.
    cycle = _reach_back(tight, np.array([c_r]), row_to_col, movable) if c_r >= 0 else no_way
    path, refill = no_way, None
    if cycle[candidates[0]] == -2:
        # Two paths: c's row moves on until a row may go unmatched or an empty
        # column takes the move, and c_r is refilled or may stay empty (an
        # unmatched r leaves no column to refill).
        refill = _refill(tight, c_r, col_may_empty & open_col, row_to_col, open_row) if c_r >= 0 else ()
        if refill is not None:
            ends = np.concatenate([np.flatnonzero(open_col & (col_to_row < 0)),
                                   row_to_col[movable & row_may_empty]])
            path = _reach_back(tight, ends, row_to_col, movable)
    chosen = candidates[(cycle[candidates] != -2) | (path[candidates] != -2)]
    if not chosen.size:
        return
    c = int(chosen[0])
    onward = cycle if cycle[c] != -2 else path
    if onward is path and refill:
        _apply_refill(c_r, refill, row_to_col, col_to_row)

    # r takes c; each displaced row moves to its onward column.
    taker, j = r, c
    while True:
        owner = int(col_to_row[j])
        row_to_col[taker] = j
        col_to_row[j] = taker
        if owner < 0 or owner == r:
            break
        if onward[j] == -1:
            row_to_col[owner] = -1
            break
        taker, j = owner, int(onward[j])


def _apply_refill(c_r, refill, row_to_col, col_to_row):
    """Shift rows along the path ``_refill`` found, from its end back to ``c_r``."""
    end, taker, came_from = refill
    j = end
    while True:
        owner = int(col_to_row[j])
        col_to_row[j] = taker
        if taker >= 0:
            row_to_col[taker] = j
        if j == c_r:
            break
        taker, j = owner, int(came_from[j])


def _solve_component(costs: np.ndarray) -> np.ndarray:
    """Row-to-column matching (-1 unmatched) of one connected component."""
    n, m = costs.shape
    price = _unmatched_price(costs)
    if n <= m:
        row_to_col, row_dual, col_dual = _augment(costs, price)
        row_price, col_price = price, 0.0
    else:
        col_to_row, col_dual, row_dual = _augment(costs.T, price)
        row_to_col = np.full(n, -1, dtype=np.int64)
        matched = np.flatnonzero(col_to_row >= 0)
        row_to_col[col_to_row[matched]] = matched
        row_price, col_price = 0.0, price
    _break_ties(costs, row_to_col, row_dual, col_dual, row_price, col_price,
                _tie_tolerance(price, n, m))
    return row_to_col


def _cheapest(costs: np.ndarray) -> np.ndarray:
    """Per row, the lowest column whose cost ties the row's minimum."""
    if not costs.size:
        return np.zeros(len(costs), dtype=np.int64)
    lowest = costs.min(axis=1)
    allowed = np.isfinite(costs)
    price = 1.0 + 2.0 * np.where(allowed, np.abs(costs), 0.0).max(axis=1)
    tol = _tie_tolerance(price, 1, allowed.sum(axis=1))
    return np.argmax(costs <= (lowest + tol)[:, None], axis=1)


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
    got_rows = [lone_rows, _cheapest(costs[:, lone_cols].T)]
    got_cols = [_cheapest(costs[lone_rows]), lone_cols]
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
