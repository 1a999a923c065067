"""Velocity quantization: k-means fitting, nearest-centroid lookup, file format."""

import itertools
import json

import numpy as np
import pytest

from gaptrack import (
    Codebook,
    EmptyInputError,
    SchemaError,
    decode,
    fit,
    load_codebook,
    quantize,
    quantize_array,
    save_codebook,
)


def book_from_row(row):
    """Codebook using the same centroids for all four components."""
    row = np.asarray(row, dtype=np.float64)
    return Codebook(centroids=np.tile(row, (4, 1)), k=len(row))


def quantize_component(value, component, codebook):
    """Reference: one component's nearest centroid, midpoint ties to the lower index."""
    row = codebook.centroids[component]
    mids = 0.5 * (row[:-1] + row[1:])
    return int(np.searchsorted(mids, value, side="left"))


def exhaustive_sse(values, counts, k):
    """Optimal weighted SSE over all contiguous partitions of sorted values."""
    n = len(values)
    best = np.inf
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = [0, *cuts, n]
        total = 0.0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            v, w = values[lo:hi], counts[lo:hi]
            mean = np.sum(v * w) / np.sum(w)
            total += np.sum(w * (v - mean) ** 2)
        best = min(best, total)
    return best


def fitted_sse(values, counts, centroids):
    idx = np.argmin(np.abs(values[:, None] - centroids[None, :]), axis=1)
    return float(np.sum(counts * (values - centroids[idx]) ** 2))


def test_two_well_separated_groups():
    base = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
    samples = np.tile(base[:, None], (1, 4))
    book = fit(samples, k=2, seed=0)
    assert book.k == 2
    np.testing.assert_allclose(book.centroids, np.tile([2.0, 11.0], (4, 1)))


def test_quantize_hand_example():
    book = book_from_row([-0.3, 0.0, 0.3])
    quad = quantize([0.26, -0.26, 0.0, 0.0], book)
    assert tuple(quad) == (2, 0, 1, 1)


def test_midpoint_tie_goes_to_lower_index():
    book = book_from_row([0.0, 0.1])
    assert tuple(quantize([0.05, 0.05 + 1e-9, 0.0, 0.1], book)) == (0, 1, 0, 1)


def test_quantize_array_matches_scalar():
    rng = np.random.default_rng(4)
    samples = rng.normal(0.0, 0.05, size=(200, 4))
    book = fit(samples, k=7, seed=1)
    deltas = rng.normal(0.0, 0.08, size=(50, 4))
    batch = quantize(deltas, book)
    assert batch.dtype == np.int64
    for i in range(50):
        assert tuple(batch[i]) == tuple(quantize_component(deltas[i, c], c, book) for c in range(4))
    # the benchmark's name for the quantizer
    assert quantize_array is quantize


def test_k_reduced_to_distinct_count():
    # dy has two distinct values, so every component shrinks to k=2.
    samples = np.zeros((6, 4))
    samples[:, 0] = [1, 2, 3, 4, 5, 6]
    samples[:, 1] = [0, 0, 0, 1, 1, 1]
    samples[:, 2] = [1, 2, 3, 4, 5, 6]
    samples[:, 3] = [1, 2, 3, 4, 5, 6]
    book = fit(samples, k=5, seed=0)
    assert book.k == 2
    assert book.centroids.shape == (4, 2)


def test_near_duplicate_values_collapse():
    # Two values separated by float noise count as one distinct value.
    samples = np.zeros((4, 4))
    samples[:, 0] = [0.1, 0.1 + 1e-15, 0.5, 0.9]
    samples[:, 1] = samples[:, 2] = samples[:, 3] = [1, 2, 3, 4]
    book = fit(samples, k=3, seed=0)
    assert book.k == 3
    assert np.all(np.diff(book.centroids, axis=1) > 0)


def test_fit_matches_exhaustive_partition_optimum():
    rng = np.random.default_rng(5)
    for trial in range(40):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(2, min(n, 4) + 1))
        values = np.sort(rng.normal(0.0, 1.0, size=n))
        counts = rng.integers(1, 5, size=n).astype(np.float64)
        samples = np.repeat(values, counts.astype(int))[:, None] * np.ones((1, 4))
        book = fit(samples, k=k, seed=trial)
        got = fitted_sse(values, counts, book.centroids[0])
        want = exhaustive_sse(values, counts, k)
        assert got == pytest.approx(want, abs=1e-9), f"trial {trial}: {got} vs {want}"


def test_determinism_and_checksum():
    rng = np.random.default_rng(6)
    samples = rng.normal(0.0, 0.1, size=(500, 4))
    a = fit(samples, k=12, seed=9)
    b = fit(samples, k=12, seed=9)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert a.checksum() == b.checksum()
    c = fit(samples, k=12, seed=10)
    assert a.checksum() != c.checksum()


def test_decode_returns_centroids():
    book = book_from_row([-0.2, 0.0, 0.4])
    delta = decode((0, 2, 1, 1), book)
    np.testing.assert_allclose(delta, [-0.2, 0.4, 0.0, 0.0])
    np.testing.assert_array_equal(decode(np.array([[0, 2, 1, 1], [2, 2, 2, 0]]), book),
                                  [[-0.2, 0.4, 0.0, 0.0], [0.4, 0.4, 0.4, -0.2]])
    with pytest.raises(IndexError):
        decode((3, 0, 0, 0), book)


def test_quantize_decode_round_trip_on_centroids():
    rng = np.random.default_rng(7)
    book = fit(rng.normal(0.0, 0.05, size=(300, 4)), k=9, seed=2)
    quads = np.repeat(np.arange(book.k)[:, None], 4, axis=1)
    np.testing.assert_array_equal(quantize(decode(quads, book), book), quads)


def test_codebook_validation():
    with pytest.raises(SchemaError):
        Codebook(centroids=np.zeros((4, 3)), k=3)  # not strictly ascending
    with pytest.raises(SchemaError):
        Codebook(centroids=np.array([[0.0, 1.0]] * 3), k=2)  # wrong row count
    with pytest.raises(EmptyInputError):
        fit(np.zeros((0, 4)), k=2, seed=0)
    with pytest.raises(EmptyInputError):
        fit(np.zeros((5, 3)), k=2, seed=0)
    with pytest.raises(ValueError):
        fit(np.ones((5, 4)), k=0, seed=0)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    book = fit(rng.normal(0.0, 0.1, size=(400, 4)), k=11, seed=3)
    path = tmp_path / "book.json"
    save_codebook(path, book)
    back = load_codebook(path)
    np.testing.assert_array_equal(back.centroids, book.centroids)
    assert back.k == book.k
    assert back.checksum() == book.checksum()


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"magic\": \"something-else\", \"version\": 1}")
    with pytest.raises(SchemaError):
        load_codebook(path)
    path.write_text("not json at all")
    with pytest.raises(SchemaError):
        load_codebook(path)
    # k must be a JSON integer, not a number or string that rounds to one
    save_codebook(path, book_from_row([-0.1, 0.1]))
    payload = json.loads(path.read_text())
    for k in (2.5, 2.0, "2", True):
        path.write_text(json.dumps({**payload, "k": k}))
        with pytest.raises(SchemaError, match="k must be an integer") as caught:
            load_codebook(path)
        assert str(path) in str(caught.value)
