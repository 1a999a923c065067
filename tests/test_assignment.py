"""Minimum-cost assignment: cardinality and cost against brute-force enumeration and scipy."""

import itertools

import numpy as np
import pytest

from gaptrack import FORBIDDEN, solve


def brute_force(costs):
    """(cardinality, cost) of the best matching by enumeration: max cardinality, then min cost."""
    costs = np.asarray(costs, dtype=np.float64)
    n, m = costs.shape
    best = None
    rows = list(range(n))
    for size in range(min(n, m), -1, -1):
        for row_subset in itertools.combinations(rows, size):
            for col_perm in itertools.permutations(range(m), size):
                if any(np.isinf(costs[r, c]) for r, c in zip(row_subset, col_perm)):
                    continue
                total = sum(costs[r, c] for r, c in zip(row_subset, col_perm))
                if best is None or total < best:
                    best = total
        if best is not None:
            return size, best
    return 0, 0.0


def summary(costs, pairs):
    """(cardinality, cost) of ``pairs``, after checking they form a valid matching."""
    costs = np.asarray(costs, dtype=np.float64)
    rows = [r for r, _ in pairs]
    cols = [c for _, c in pairs]
    assert rows == sorted(set(rows)) and len(set(cols)) == len(cols)
    assert all(np.isfinite(costs[r, c]) for r, c in pairs)
    return len(pairs), float(sum(costs[r, c] for r, c in pairs))


def assert_optimal(costs, message=""):
    """``solve``'s (cardinality, cost) equals brute force's, in both orientations."""
    for oriented in (costs, np.asarray(costs).T):
        size, total = summary(oriented, solve(oriented))
        want_size, want_total = brute_force(oriented)
        assert size == want_size, f"{message}: cardinality"
        # one-decimal costs: summation order moves ties in the last bits
        assert total == pytest.approx(want_total, rel=1e-12, abs=1e-9), f"{message}: cost"


def test_two_by_two_hand_example():
    assert solve(np.array([[1.0, 2.0], [3.0, 1.0]])) == [(0, 0), (1, 1)]


def test_competition_for_one_cheap_column():
    # Rows 0 and 1 both want column 0; row 1 loses and stays on its own column.
    costs = np.array([[1.0, 9.0], [2.0, 9.0], [9.0, 1.0]])
    assert solve(costs) == [(0, 0), (2, 1)]


def test_rectangular_both_orientations():
    costs = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0]])
    assert_optimal(costs)


def test_empty_and_degenerate_shapes():
    assert solve(np.zeros((0, 3))) == []
    assert solve(np.zeros((3, 0))) == []
    full = np.full((2, 2), FORBIDDEN)
    assert solve(full) == []


def test_forbidden_blocks_pairs_not_rows():
    costs = np.array([[FORBIDDEN, 5.0], [1.0, FORBIDDEN]])
    assert solve(costs) == [(0, 1), (1, 0)]


def test_cardinality_dominates_cost():
    # Matching both rows costs 100, far worse than the single cheap pair,
    # but a larger matching always wins.
    costs = np.array([[0.1, FORBIDDEN], [50.0, 50.0]])
    assert solve(costs) == [(0, 0), (1, 1)]


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(10)
    for trial in range(400):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        costs = np.round(rng.uniform(0.0, 10.0, size=(n, m)), 1)
        # forbid a random subset of pairs
        costs[rng.random(size=(n, m)) < 0.3] = FORBIDDEN
        assert_optimal(costs, f"trial {trial}")


def one_to_one(rng, n, m):
    """Costs where no row and no column has more than one allowed entry."""
    costs = np.full((n, m), FORBIDDEN)
    k = int(rng.integers(0, min(n, m) + 1))
    costs[rng.choice(n, k, replace=False), rng.choice(m, k, replace=False)] = np.round(rng.uniform(-5.0, 5.0, k), 1)
    return costs


def test_one_to_one_costs_match_brute_force():
    # Includes empty rows and columns, and matrices with no allowed entry.
    rng = np.random.default_rng(12)
    for trial in range(300):
        costs = one_to_one(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        assert_optimal(costs, f"trial {trial}")


def test_one_to_one_near_miss_takes_the_general_path():
    # Rows 0 and 1 both may take column 0; only the cheaper one gets it.
    costs = np.array([[1.0, FORBIDDEN, FORBIDDEN],
                      [0.5, FORBIDDEN, FORBIDDEN],
                      [FORBIDDEN, FORBIDDEN, 2.0]])
    assert solve(costs) == [(1, 0), (2, 2)]
    assert solve(costs.T) == [(0, 1), (2, 2)]
    rng = np.random.default_rng(13)
    for trial in range(300):
        costs = one_to_one(rng, int(rng.integers(2, 6)), int(rng.integers(1, 6)))
        # A second allowed entry in some column that already has one.
        cols = np.flatnonzero(np.isfinite(costs).any(axis=0))
        if not cols.size:
            continue
        col = int(rng.choice(cols))
        row = int(rng.choice(np.flatnonzero(~np.isfinite(costs[:, col]))))
        costs[row, col] = np.round(rng.uniform(-5.0, 5.0), 1)
        assert_optimal(costs, f"trial {trial}")


def test_integer_costs_solved_exactly():
    rng = np.random.default_rng(11)
    for _ in range(100):
        costs = rng.integers(0, 100, size=(4, 4)).astype(np.float64)
        for oriented in (costs, costs.T):
            assert summary(oriented, solve(oriented)) == brute_force(oriented)


def test_shift_invariance():
    rng = np.random.default_rng(12)
    costs = rng.uniform(0.0, 5.0, size=(4, 4))
    base = solve(costs)
    assert solve(costs + 17.5) == base


def test_input_validation():
    with pytest.raises(ValueError):
        solve(np.array([[1.0, np.nan], [2.0, 3.0]]))
    with pytest.raises(ValueError):
        solve(np.array([[1.0, -np.inf], [2.0, 3.0]]))
    with pytest.raises(ValueError):
        solve(np.zeros(3))


# ---------------------------------------------------------------------------
# scipy as an oracle on sizes enumeration cannot reach

def _oracle(costs):
    """(cardinality, cost) of the best matching, from scipy.

    Forbidden cells get a finite price larger than any matching one pair
    smaller can save, so scipy's full-size assignment maximizes the number
    of allowed pairs first.
    """
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    costs = np.asarray(costs, dtype=np.float64)
    allowed = np.isfinite(costs)
    if not allowed.any():
        return 0, 0.0
    price = 1.0 + 2.0 * min(costs.shape) * np.abs(costs[allowed]).max()
    rows, cols = linear_sum_assignment(np.where(allowed, costs, price))
    kept = allowed[rows, cols]
    return int(kept.sum()), float(costs[rows[kept], cols[kept]].sum())


def _tie_heavy(rng, n, m):
    costs = rng.integers(0, 3, size=(n, m)).astype(np.float64)
    costs[rng.random(size=(n, m)) < 0.3] = FORBIDDEN
    return costs


@pytest.mark.parametrize("shape", [(50, 70), (70, 50), (200, 200)])
def test_random_float_costs_match_scipy(shape):
    rng = np.random.default_rng(sum(shape))
    costs = rng.uniform(-3.0, 10.0, size=shape)
    costs[rng.random(size=shape) < 0.5] = FORBIDDEN
    for oriented in (costs, costs.T):
        size, total = summary(oriented, solve(oriented))
        want_size, want_total = _oracle(oriented)
        assert size == want_size
        assert total == pytest.approx(want_total, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("shape", [(40, 40), (80, 80), (60, 90), (90, 60), (200, 200)])
def test_tie_heavy_integer_costs_match_scipy(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for _ in range(3):
        costs = _tie_heavy(rng, *shape)
        for oriented in (costs, costs.T):
            assert summary(oriented, solve(oriented)) == _oracle(oriented)


def test_block_diagonal_is_the_union_of_its_blocks():
    rng = np.random.default_rng(14)
    shapes = [(5, 7), (1, 4), (6, 3), (4, 4), (3, 1)]
    n = sum(s[0] for s in shapes)
    m = sum(s[1] for s in shapes)
    # interleave the blocks while keeping each block's own row and column order
    row_owner = rng.permutation(np.repeat(np.arange(len(shapes)), [s[0] for s in shapes]))
    col_owner = rng.permutation(np.repeat(np.arange(len(shapes)), [s[1] for s in shapes]))
    costs = np.full((n, m), FORBIDDEN)
    want = []
    for b, shape in enumerate(shapes):
        block = _tie_heavy(rng, *shape)
        block[0, 0] = 1.0  # keep every block non-empty
        rows, cols = np.flatnonzero(row_owner == b), np.flatnonzero(col_owner == b)
        costs[np.ix_(rows, cols)] = block
        want += [(int(rows[r]), int(cols[c])) for r, c in solve(block)]
    assert solve(costs) == sorted(want)
