"""Recurrent velocity model: forward arithmetic, likelihoods, sampling, files."""

import json
import math

import numpy as np
import pytest

from gaptrack import (
    CodebookMismatchError,
    ModelConfig,
    ModelWeights,
    NumericOverflowError,
    SchemaError,
    fit,
    init_state,
    init_weights,
    load_weights,
    log_likelihood,
    save_weights,
    step,
)
from gaptrack.motion_model import (
    PROB_FLOOR,
    _sigmoid,
    cell_forward,
    head_outputs,
    inverse_cdf,
    sample_batch,
    target_head_outputs,
)


def step_one(weights, hidden, cell, delta):
    """One step of a single (H,) state on a (4,) velocity, through the batched step."""
    h, c, probs = step(weights, hidden[None], cell[None], np.asarray(delta, dtype=float)[None])
    return h[0], c[0], probs[0]


def scalar_model():
    """One hidden unit, two clusters, weights chosen for hand arithmetic.

    The embedding reads only dx; the LSTM candidate gate reads the embedding
    with weight 1 and the previous hidden state with weight 0.5; every other
    gate sits at its sigmoid midpoint. Heads produce logits (h, -h).
    """
    config = ModelConfig(num_clusters=2, hidden_dim=1)
    return ModelWeights(
        config=config,
        embed_w=np.array([[1.0], [0.0], [0.0], [0.0]]),
        embed_b=np.zeros(1),
        lstm_w=np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.5]]),
        lstm_b=np.zeros(4),
        head_w=np.tile(np.array([[[1.0, -1.0]]]), (4, 1, 1)),
        head_b=np.zeros((4, 2)),
        res_w=np.full((1, 4), 0.25),
        res_b=np.full(4, 0.01),
        input_shift=np.zeros(4),
        input_scale=np.ones(4),
    )


def test_forward_pass_by_hand():
    weights = scalar_model()
    state = init_state(weights)

    # Step 1: e = relu(0.3) = 0.3, all sigmoid gates 0.5, g = tanh(0.3).
    hidden, cell, dist = step_one(weights, state.hidden, state.cell, [0.3, 0.0, 0.0, 0.0])
    c1 = 0.5 * math.tanh(0.3)
    h1 = 0.5 * math.tanh(c1)
    assert cell[0] == pytest.approx(c1, abs=1e-12)
    assert hidden[0] == pytest.approx(h1, abs=1e-12)

    # logits (h1, -h1) per component: p0 = sigmoid(2 h1).
    p0 = 1.0 / (1.0 + math.exp(-2.0 * h1))
    assert dist.shape == (4, 2)
    np.testing.assert_allclose(dist[:, 0], p0, atol=1e-12)
    np.testing.assert_allclose(dist.sum(axis=1), 1.0, atol=1e-12)

    # Step 2: negative dx is cut by the relu, so only the recurrent term
    # feeds the candidate gate.
    hidden, cell, dist = step_one(weights, hidden, cell, [-0.2, 0.0, 0.0, 0.0])
    g2 = math.tanh(0.5 * h1)
    c2 = 0.5 * c1 + 0.5 * g2
    h2 = 0.5 * math.tanh(c2)
    assert cell[0] == pytest.approx(c2, abs=1e-12)
    assert hidden[0] == pytest.approx(h2, abs=1e-12)
    p0 = 1.0 / (1.0 + math.exp(-2.0 * h2))
    np.testing.assert_allclose(dist[:, 0], p0, atol=1e-12)


def test_input_standardization_applied_before_embedding():
    weights = scalar_model()
    weights.input_shift = np.array([0.1, 0.0, 0.0, 0.0])
    weights.input_scale = np.array([0.05, 1.0, 1.0, 1.0])
    zero = init_state(weights)
    _, cell, _ = step_one(weights, zero.hidden, zero.cell, [0.2, 0.0, 0.0, 0.0])
    # standardized dx = (0.2 - 0.1) / 0.05 = 2.0
    c1 = 0.5 * math.tanh(2.0)
    assert cell[0] == pytest.approx(c1, abs=1e-12)


def two_branch_sigmoid(x):
    """The masked two-branch form: ``exp`` of -x where x >= 0, of x elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_the_two_branch_form_bit_for_bit():
    rng = np.random.default_rng(3)
    edges = [0.0, -0.0, 1e3, -1e3, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300, 36.7, -36.7, 745.2]
    grid = np.concatenate([edges, rng.normal(0.0, 4.0, 500), rng.normal(0.0, 60.0, 500)])
    block = np.stack([grid, grid[::-1], grid], axis=1)[:, :2]  # strided, as the gate block is
    for x in (grid, block):
        with np.errstate(divide="raise", over="raise", invalid="raise"):  # underflow to 0 is meant
            got = _sigmoid(x)
        want = two_branch_sigmoid(x)
        assert got.shape == x.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_init_weights_shapes_and_forget_bias():
    config = ModelConfig(num_clusters=5, hidden_dim=8)
    weights = init_weights(config, np.random.default_rng(0))
    assert weights.embed_w.shape == (4, 8)
    assert weights.lstm_w.shape == (16, 32)
    assert weights.head_w.shape == (4, 8, 5)
    assert weights.res_w.shape == (8, 4)
    # forget-gate bias starts at 1 so early training does not erase memory
    np.testing.assert_array_equal(weights.lstm_b[8:16], 1.0)
    bound = 1.0 / math.sqrt(8)
    assert np.max(np.abs(weights.embed_w)) <= bound
    assert np.max(np.abs(weights.lstm_b[8:16] - 1.0)) == 0.0


def test_uniform_log_likelihood():
    for k in (4, 256, 1024):
        dist = np.full((4, k), 1.0 / k)
        got = log_likelihood(dist, (0, k - 1, k // 2, 1))
        assert got == pytest.approx(4.0 * math.log(1.0 / k), abs=1e-9)


def test_log_likelihood_floors_zero_probability():
    dist = np.full((4, 3), 1.0 / 3.0)
    dist[2, :] = [1.0, 0.0, 0.0]
    got = log_likelihood(dist, (0, 0, 1, 0))
    want = 3.0 * math.log(1.0 / 3.0) + math.log(PROB_FLOOR)
    assert got == pytest.approx(want, abs=1e-9)


def sample(dist, rng):
    """Reference: one inverse-CDF draw per component, one component at a time."""
    dist = np.asarray(dist)
    k = dist.shape[1]
    draws = rng.random(dist.shape[0])
    idx = []
    for c in range(dist.shape[0]):
        cdf = np.cumsum(dist[c])
        idx.append(int(min(np.searchsorted(cdf, draws[c], side="right"), k - 1)))
    return tuple(idx)


def test_sampling_deterministic_given_seed():
    rng = np.random.default_rng(20)
    dist = rng.dirichlet(np.ones(6), size=4)
    a = [tuple(sample_batch(dist[None], np.random.default_rng(99))[0]) for _ in range(5)]
    b = [tuple(sample_batch(dist[None], np.random.default_rng(99))[0]) for _ in range(5)]
    assert a[0] == b[0]
    # a fresh generator restarts the stream, successive draws move it
    assert len(set(a)) == 1 or a == b


def test_sample_batch_matches_scalar_sampler():
    rng = np.random.default_rng(21)
    dist = rng.dirichlet(np.ones(5), size=4)
    for seed in range(20):
        single = sample(dist, np.random.default_rng(seed))
        batch = sample_batch(dist[None, :, :], np.random.default_rng(seed))
        assert tuple(batch[0]) == tuple(single)


def test_sample_batch_inverts_the_cdf_of_its_uniforms():
    # sample_batch is inverse_cdf on one (B, C) block drawn from the generator
    rng = np.random.default_rng(24)
    probs = rng.dirichlet(np.ones(7), size=(9, 4))
    want = inverse_cdf(probs, np.random.default_rng(25).random((9, 4)))
    assert np.array_equal(sample_batch(probs, np.random.default_rng(25)), want)


def test_uniform_sampling_frequencies():
    k = 4
    dist = np.full((4, k), 1.0 / k)
    draws = sample_batch(np.tile(dist, (100_000, 1, 1)), np.random.default_rng(22))
    for c in range(4):
        freq = np.bincount(draws[:, c], minlength=k) / draws.shape[0]
        np.testing.assert_allclose(freq, 0.25, atol=0.01)


def test_skewed_sampling_frequencies():
    dist = np.array([[0.7, 0.2, 0.1]] * 4)
    draws = sample_batch(np.tile(dist, (50_000, 1, 1)), np.random.default_rng(23))
    freq = np.bincount(draws[:, 0], minlength=3) / draws.shape[0]
    np.testing.assert_allclose(freq, [0.7, 0.2, 0.1], atol=0.01)


def full_cdf_inverse(probs, uniforms):
    """Reference: ``min(#{cdf < u}, k - 1)`` on each row's full cumulative sum, row by row."""
    k = probs.shape[2]
    out = np.empty(uniforms.shape, dtype=int)
    for r in np.ndindex(*uniforms.shape):
        cdf = np.cumsum(probs[r])
        out[r] = min(int(np.count_nonzero(cdf < uniforms[r])), k - 1)
    return out


def rows_with_zeros(rng, rows, k):
    """(rows, 4, k) distributions with zero cells, the rest at least 1e-6 of mass.

    Every row gets a run of zeros across the boundary of the first two
    blocks; other cells are zeroed at random. The floor keeps the nonzero
    steps of every cdf far wider than its rounding error.
    """
    w = math.isqrt(k)
    probs = rng.dirichlet(np.full(k, 0.5), size=(rows, 4)) + 1e-6
    probs[rng.random(probs.shape) < 0.25] = 0.0
    probs[:, :, max(w - 2, 0) : w + 2] = 0.0
    probs[:, :, rng.integers(k)] = 1.0  # no row is all zeros
    return probs / probs.sum(axis=2, keepdims=True)


@pytest.mark.parametrize("k", [1, 7, 8, 100, 256])
def test_inverse_cdf_matches_the_full_cumsum(k):
    rng = np.random.default_rng(40 + k)
    for rows in (1, 2, 17, 60, 180):
        probs = rows_with_zeros(rng, rows, k)
        uniforms = rng.random((rows, 4))
        uniforms[0, 0] = 0.0
        np.testing.assert_array_equal(inverse_cdf(probs, uniforms), full_cdf_inverse(probs, uniforms))


@pytest.mark.parametrize("k", [1, 7, 8, 100, 256])
def test_inverse_cdf_at_block_boundaries(k):
    # u just below and just above the mass of every block prefix, and u = 0
    rng = np.random.default_rng(50 + k)
    w = math.isqrt(k)
    probs = rows_with_zeros(rng, 3, k)
    ends = np.cumsum(probs, axis=2)[:, :, w - 1 :: w]  # (3, 4, blocks)
    edges = np.concatenate([ends * (1.0 - 1e-9), ends * (1.0 + 1e-9), np.zeros((3, 4, 1))], axis=2)
    for j in range(edges.shape[2]):
        uniforms = edges[:, :, j]
        np.testing.assert_array_equal(inverse_cdf(probs, uniforms), full_cdf_inverse(probs, uniforms))


@pytest.mark.parametrize("k", [1, 7, 8, 100, 256])
def test_inverse_cdf_past_a_short_total_gives_the_last_cell(k):
    rng = np.random.default_rng(60 + k)
    probs = rows_with_zeros(rng, 5, k) * (1.0 - 1e-6)
    total = probs.sum(axis=2)
    for uniforms in (total * (1.0 + 1e-9), (total + 1.0) / 2.0, np.nextafter(np.ones((5, 4)), 0.0)):
        assert np.all(inverse_cdf(probs, uniforms) == k - 1)
        np.testing.assert_array_equal(inverse_cdf(probs, uniforms), full_cdf_inverse(probs, uniforms))


def test_inverse_cdf_skips_zero_cells():
    # u = 0 is the first cell even when it is empty; any positive u is never an empty cell
    probs = np.zeros((1, 4, 9))
    probs[0, :, 4] = 0.5
    probs[0, :, 7] = 0.5
    np.testing.assert_array_equal(inverse_cdf(probs, np.array([[0.0, 1e-12, 0.5, 0.5 + 1e-12]])),
                                  [[0, 4, 4, 7]])


def test_cell_forward_heads_equal_the_training_heads_bit_for_bit():
    weights = init_weights(ModelConfig(num_clusters=256, hidden_dim=48), np.random.default_rng(70))
    weights.head_w = weights.head_w * 8.0  # confident rows exercise the max-shift
    rng = np.random.default_rng(71)
    for rows in (1, 13, 60):
        h, c = np.tanh(rng.normal(0.0, 1.0, (2, rows, 48)))
        out = cell_forward(weights, rng.normal(0.0, 0.5, (rows, 4)), h, c)
        log_probs, probs, res = head_outputs(weights, out["h"])
        assert "res" not in out
        assert res.shape == (rows, 4)
        np.testing.assert_array_equal(out["probs"].view(np.uint64), probs.view(np.uint64))
        np.testing.assert_array_equal(out["log_probs"].view(np.uint64), log_probs.view(np.uint64))
        np.testing.assert_allclose(out["probs"].sum(axis=2), 1.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(np.exp(out["log_probs"]), out["probs"], rtol=0.0, atol=1e-12)
        # the loss's heads pick the same log-probabilities from the same softmax
        targets = rng.integers(0, 256, (rows, 4))
        picked, loss_probs, loss_res = target_head_outputs(weights, out["h"], targets)
        want = np.take_along_axis(log_probs, targets[..., None], axis=2)
        np.testing.assert_array_equal(picked.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(loss_probs.view(np.uint64), probs.view(np.uint64))
        np.testing.assert_array_equal(loss_res.view(np.uint64), res.view(np.uint64))


def test_step_rejects_overflow():
    weights = scalar_model()
    weights.embed_w = weights.embed_w * 1e300
    weights.input_scale = np.full(4, 1e-300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflowError):
            step(weights, np.zeros((2, 1)), np.zeros((2, 1)), np.full((2, 4), 0.5))


def test_step_rejects_non_finite_heads():
    weights = scalar_model()
    weights.head_w = weights.head_w * np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflowError):
            step(weights, np.zeros((2, 1)), np.zeros((2, 1)), np.full((2, 4), 0.5))


def test_save_load_round_trip(tmp_path):
    config = ModelConfig(num_clusters=6, hidden_dim=5)
    weights = init_weights(config, np.random.default_rng(30))
    weights.input_shift = np.linspace(-0.1, 0.1, 4)
    weights.input_scale = np.linspace(0.5, 2.0, 4)
    book = fit(np.random.default_rng(31).normal(0.0, 0.1, size=(100, 4)), k=6, seed=0)

    path = tmp_path / "model.npz"
    save_weights(path, weights, book.checksum())
    back = load_weights(path, codebook=book)
    assert back.config == config
    for name in ModelWeights.PARAM_NAMES:
        np.testing.assert_array_equal(getattr(back, name), getattr(weights, name))
    np.testing.assert_array_equal(back.input_shift, weights.input_shift)
    np.testing.assert_array_equal(back.input_scale, weights.input_scale)

    # same input, same distribution, loaded or not
    zero = init_state(weights)
    hidden0, _, dist0 = step_one(weights, zero.hidden, zero.cell, [0.01, 0.0, 0.0, 0.0])
    hidden1, _, dist1 = step_one(back, zero.hidden, zero.cell, [0.01, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(dist0, dist1)
    np.testing.assert_array_equal(hidden0, hidden1)


def test_load_refuses_wrong_codebook(tmp_path):
    config = ModelConfig(num_clusters=6, hidden_dim=5)
    weights = init_weights(config, np.random.default_rng(32))
    rng = np.random.default_rng(33)
    book_a = fit(rng.normal(0.0, 0.1, size=(100, 4)), k=6, seed=0)
    book_b = fit(rng.normal(0.0, 0.2, size=(100, 4)), k=6, seed=1)

    path = tmp_path / "model.npz"
    save_weights(path, weights, book_a.checksum())
    load_weights(path, codebook=book_a)
    load_weights(path)  # no codebook given: checksum not enforced
    with pytest.raises(CodebookMismatchError):
        load_weights(path, codebook=book_b)


def test_load_rejects_foreign_npz(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, data=np.zeros(3))
    with pytest.raises(SchemaError):
        load_weights(path)


def rewrite_config(path, **changes):
    """Edit the architecture recorded in a saved model file."""
    with np.load(path) as npz:
        arrays = dict(npz)
    meta = json.loads(str(arrays["meta"][()]))
    meta["config"].update(changes)
    arrays["meta"] = np.asarray(json.dumps(meta))
    np.savez(path, **arrays)


def test_load_reads_files_that_record_input_dim_four(tmp_path):
    weights = init_weights(ModelConfig(num_clusters=3, hidden_dim=2), np.random.default_rng(34))
    path = tmp_path / "model.npz"
    save_weights(path, weights, "checksum")
    rewrite_config(path, input_dim=4)
    assert load_weights(path).config == weights.config
    rewrite_config(path, input_dim=3)
    with pytest.raises(SchemaError, match="input_dim"):
        load_weights(path)


def test_load_rejects_unknown_config_keys(tmp_path):
    weights = init_weights(ModelConfig(num_clusters=3, hidden_dim=2), np.random.default_rng(35))
    path = tmp_path / "model.npz"
    save_weights(path, weights, "checksum")
    rewrite_config(path, layers=2)
    with pytest.raises(SchemaError, match="layers"):
        load_weights(path)
