"""Training loop: analytic gradients, convergence, divergence detection."""

import math
import tracemalloc

import numpy as np
import pytest

from gaptrack import (
    FrameGeometry,
    ModelConfig,
    TrainSchedule,
    TrainingDivergedError,
    TrainingTrack,
    fit,
    init_weights,
    next_step_accuracy,
    next_step_log_likelihood,
    train,
)
from gaptrack import training
from gaptrack.codebook import decode, quantize
from gaptrack.errors import EmptyInputError
from gaptrack.geometry import velocities_from_boxes
from gaptrack.motion_model import cell_forward, head_outputs, lstm_core, sample_batch
from gaptrack.training import fit_codebook, loss_and_gradients, window_tracks

FRAME = FrameGeometry(640.0, 480.0)


def random_groups(rng, hidden, k, batch, steps):
    """One rectangular batch of random inputs, targets, and aux velocities."""
    inputs = rng.normal(0.0, 0.02, size=(batch, steps, 4))
    targets = rng.integers(0, k, size=(batch, steps, 4))
    aux = rng.normal(0.0, 0.02, size=(batch, steps, 4))
    return [(inputs, targets, aux)]


def relative_gradient_error(weights, groups, eps=1e-6):
    """Largest per-tensor norm error between analytic and central differences.

    Comparison is by norm ratio, not elementwise: finite differences of a
    loss around 1 leave absolute noise near 1e-10 per probe, which swamps
    the relative error of individual near-zero gradient entries while the
    tensor as a whole is still measured to many digits.
    """
    _, grads = loss_and_gradients(weights, groups)
    worst = 0.0
    for name in weights.PARAM_NAMES:
        tensor = getattr(weights, name)
        analytic = grads[name]
        numeric = np.zeros_like(analytic)
        it = np.nditer(tensor, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + eps
            up, _ = loss_and_gradients(weights, groups)
            tensor[idx] = orig - eps
            down, _ = loss_and_gradients(weights, groups)
            tensor[idx] = orig
            numeric[idx] = (up - down) / (2.0 * eps)
            it.iternext()
        denom = max(np.linalg.norm(numeric), np.linalg.norm(analytic), 1e-12)
        worst = max(worst, np.linalg.norm(numeric - analytic) / denom)
    return worst


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(40)
    for trial in range(3):
        hidden = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        config = ModelConfig(num_clusters=k, hidden_dim=hidden)
        weights = init_weights(config, rng)
        groups = random_groups(rng, hidden, k, batch=2, steps=3)
        err = relative_gradient_error(weights, groups)
        assert err < 1e-4, f"trial {trial}: gradient error {err:.2e}"


def test_loss_is_deterministic():
    rng = np.random.default_rng(41)
    config = ModelConfig(num_clusters=3, hidden_dim=4)
    weights = init_weights(config, rng)
    groups = random_groups(rng, 4, 3, batch=3, steps=4)
    a, grads_a = loss_and_gradients(weights, groups)
    b, grads_b = loss_and_gradients(weights, groups)
    assert a == b
    for name in weights.PARAM_NAMES:
        np.testing.assert_array_equal(grads_a[name], grads_b[name])


def two_pass_forcing(weights, inputs, codebook, schedule, rng):
    """Reference teacher forcing: its own recurrence, ahead of the loss's.

    Returns a copy of ``inputs`` in which, past the onset, each row took a
    decoded sample of the previous step's prediction with probability
    ``teacher_forcing_prob``; the loss then runs on the result.
    """
    p_tf = schedule.teacher_forcing_prob
    b, t_len, _ = inputs.shape
    onset = max(1, int(np.ceil(schedule.teacher_forcing_onset * t_len)))
    if p_tf <= 0.0 or onset >= t_len:
        return inputs
    x = inputs.copy()
    hdim = weights.config.hidden_dim
    h = np.zeros((b, hdim))
    c = np.zeros((b, hdim))
    prev_probs = None
    for t in range(t_len):
        if t >= onset:
            mask = rng.random(b) < p_tf
            if mask.any():
                idx = sample_batch(prev_probs[mask], rng)
                x[mask, t] = decode(idx, codebook)
        core = lstm_core(weights, x[:, t], h, c)
        h, c = core["h"], core["c"]
        if t >= onset - 1:
            prev_probs = head_outputs(weights, h)[1]
    return x


@pytest.mark.parametrize("prob", [1.0, 0.2])
def test_forcing_in_the_forward_pass_matches_two_pass_forcing(prob):
    rng = np.random.default_rng(46)
    config = ModelConfig(num_clusters=5, hidden_dim=6)
    weights = init_weights(config, rng)
    book = fit(rng.normal(0.0, 0.02, size=(200, 4)), k=5, seed=0)
    groups = [g for steps in (4, 9) for g in random_groups(rng, 6, 5, batch=7, steps=steps)]
    originals = [inputs.copy() for inputs, _, _ in groups]
    schedule = TrainSchedule(teacher_forcing_prob=prob, teacher_forcing_onset=0.3)

    ref_rng = np.random.default_rng(5)
    forced = [(two_pass_forcing(weights, inputs, book, schedule, ref_rng), targets, aux)
              for inputs, targets, aux in groups]
    assert any(not np.array_equal(f[0], g[0]) for f, g in zip(forced, groups))
    want_loss, want_grads = loss_and_gradients(weights, forced)

    rng = np.random.default_rng(5)
    loss, grads = loss_and_gradients(weights, groups, forcing=(book, schedule, rng))
    assert loss == want_loss
    for name in weights.PARAM_NAMES:
        np.testing.assert_array_equal(grads[name], want_grads[name])
    assert rng.random() == ref_rng.random()
    for (inputs, _, _), original in zip(groups, originals):
        np.testing.assert_array_equal(inputs, original)  # the forced copy is private


# A reference of training as written before the loss stopped building the
# full log-probability tensor: each picked track is jittered by its own draw
# and made into a sequence on its own, the loss's heads are the full
# log-probabilities of head_outputs indexed at the targets, and Adam's update
# is written out of place. Only those parts are restated; the recurrence and
# the backward pass are the library's. Training must match it bit for bit.

def ref_jitter_boxes(boxes, fraction, rng):
    eps = rng.uniform(-fraction, fraction, size=boxes.shape)
    out = boxes.copy()
    out[:, 0] += eps[:, 0] * boxes[:, 2]
    out[:, 1] += eps[:, 1] * boxes[:, 3]
    out[:, 2] *= 1.0 + eps[:, 2]
    out[:, 3] *= 1.0 + eps[:, 3]
    return out


def ref_jittered_velocities(tracks, fraction, rng):
    return np.concatenate([
        velocities_from_boxes(ref_jitter_boxes(t.boxes, fraction, rng) if fraction > 0 else t.boxes, t.frame)
        for t in tracks
    ])


def ref_groups(tracks, codebook):
    """(inputs, targets, aux) per (boxes, frame) track, stacked by length, shortest first."""
    buckets = {}
    for boxes, frame in tracks:
        vel = velocities_from_boxes(boxes, frame)
        inputs = np.vstack([np.zeros((1, 4)), vel[:-1]])
        buckets.setdefault(len(vel), []).append((inputs, quantize(vel, codebook), vel.copy()))
    return [tuple(np.stack(parts) for parts in zip(*buckets[n])) for n in sorted(buckets)]


def full_tensor_heads(weights, h, targets):
    log_probs, probs, res = head_outputs(weights, h)
    return np.take_along_axis(log_probs, targets[..., None], axis=3), probs, res


def ref_loss_and_gradients(monkeypatch, weights, groups, forcing=None):
    with monkeypatch.context() as patch:
        patch.setattr(training, "target_head_outputs", full_tensor_heads)
        return loss_and_gradients(weights, groups, forcing=forcing)


def ref_train(monkeypatch, dataset, codebook, config, schedule):
    rng = np.random.default_rng(schedule.seed)
    weights = init_weights(config, rng)
    stat_vel = ref_jittered_velocities(dataset, schedule.jitter_fraction, rng)
    weights.input_shift = stat_vel.mean(axis=0)
    weights.input_scale = np.maximum(stat_vel.std(axis=0), 1e-8)
    adam_m = {name: np.zeros_like(arr) for name, arr in weights.params().items()}
    adam_v = {name: np.zeros_like(arr) for name, arr in weights.params().items()}
    b1, b2, eps = training._ADAM_BETA1, training._ADAM_BETA2, training._ADAM_EPS
    trace = []
    for it in range(schedule.iterations):
        picks = rng.integers(0, len(dataset), size=schedule.batch_size)
        picked = []
        for pick in picks:
            track = dataset[int(pick)]
            boxes = track.boxes
            if schedule.jitter_fraction > 0.0:
                boxes = ref_jitter_boxes(boxes, schedule.jitter_fraction, rng)
            picked.append((boxes, track.frame))
        loss, grads = ref_loss_and_gradients(monkeypatch, weights, ref_groups(picked, codebook),
                                             forcing=(codebook, schedule, rng))
        training._clip_gradients(grads, schedule.clip_norm)
        step_idx = it + 1
        for name, param in weights.params().items():
            g = grads[name]
            adam_m[name] = b1 * adam_m[name] + (1.0 - b1) * g
            adam_v[name] = b2 * adam_v[name] + (1.0 - b2) * g * g
            m_hat = adam_m[name] / (1.0 - b1**step_idx)
            v_hat = adam_v[name] / (1.0 - b2**step_idx)
            param -= schedule.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        trace.append(float(loss))
    return weights, trace


def ref_next_step_accuracy(weights, tracks, codebook):
    hdim = weights.config.hidden_dim
    correct = total = 0
    for track in tracks:
        [(inputs, targets, _)] = ref_groups([(track.boxes, track.frame)], codebook)
        h = c = np.zeros((1, hdim))
        hs = []
        for t in range(inputs.shape[1]):
            out = lstm_core(weights, inputs[:, t], h, c)
            h, c = out["h"], out["c"]
            hs.append(h[0])
        correct += int(np.sum(np.argmax(head_outputs(weights, np.stack(hs))[0], axis=2) == targets[0]))
        total += targets.size
    return correct / total


def random_walk_tracks(rng, lengths):
    """Random-walk box tracks of the given lengths, alternating between two frame sizes."""
    frames = (FRAME, FrameGeometry(1920.0, 1080.0))
    tracks = []
    for i, n in enumerate(lengths):
        start = rng.uniform([0.0, 0.0, 30.0, 40.0], [300.0, 200.0, 90.0, 120.0])
        moves = rng.normal(0.0, [3.0, 3.0, 0.5, 0.5], size=(n - 1, 4))
        tracks.append(TrainingTrack(np.vstack([start, start + np.cumsum(moves, axis=0)]), frames[i % 2]))
    return tracks


def assert_same_bits(a, b):
    np.testing.assert_array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


@pytest.mark.parametrize("k", [5, 256])
@pytest.mark.parametrize("prob", [0.0, 0.5])
def test_loss_matches_the_full_tensor_reference(monkeypatch, k, prob):
    rng = np.random.default_rng(49)
    weights = init_weights(ModelConfig(num_clusters=k, hidden_dim=16), rng)
    book = fit(rng.normal(0.0, 0.01, size=(400, 4)), k=k, seed=0)
    tracks = random_walk_tracks(rng, [7] + [12] * 2 + [25] * 7)  # groups of 1, 2 and 7 tracks
    groups = ref_groups([(t.boxes, t.frame) for t in tracks], book)
    assert [len(g[0]) for g in groups] == [1, 2, 7]
    schedule = TrainSchedule(teacher_forcing_prob=prob, teacher_forcing_onset=0.3)

    def forcing():
        return (book, schedule, np.random.default_rng(6)) if prob else None

    loss, grads = loss_and_gradients(weights, groups, forcing=forcing())
    want_loss, want_grads = ref_loss_and_gradients(monkeypatch, weights, groups, forcing=forcing())
    assert_same_bits(loss, want_loss)
    for name in weights.PARAM_NAMES:
        assert_same_bits(grads[name], want_grads[name])


@pytest.mark.parametrize("k", [5, 256])
@pytest.mark.parametrize("prob", [0.0, 0.5])
def test_training_matches_the_per_track_reference(monkeypatch, k, prob):
    rng = np.random.default_rng(50)
    tracks = random_walk_tracks(rng, [5, 9, 9, 14, 14, 14, 20] + [25] * 14)
    book = fit_codebook(tracks, k=k, seed=2, jitter_fraction=0.02)
    reference_book = fit(ref_jittered_velocities(tracks, 0.02, np.random.default_rng(2)), k, 2)
    assert book.k == k and book.checksum() == reference_book.checksum()
    config = ModelConfig(num_clusters=k, hidden_dim=16)
    schedule = TrainSchedule(iterations=3, batch_size=10, teacher_forcing_prob=prob,
                             teacher_forcing_onset=0.3, seed=4)
    weights, trace = train(tracks, book, config, schedule)
    want_weights, want_trace = ref_train(monkeypatch, tracks, book, config, schedule)
    assert_same_bits(trace, want_trace)
    for name in weights.PARAM_NAMES + ("input_shift", "input_scale"):
        assert_same_bits(getattr(weights, name), getattr(want_weights, name))
    assert next_step_accuracy(weights, tracks, book) == ref_next_step_accuracy(weights, tracks, book)


def ref_next_step_log_likelihood(weights, tracks, codebook):
    """Per-track, per-step reference: one single-row cell_forward per step."""
    total, terms = 0.0, 0
    for track in tracks:
        [(inputs, targets, _)] = ref_groups([(track.boxes, track.frame)], codebook)
        h = c = np.zeros((1, weights.config.hidden_dim))
        for t in range(inputs.shape[1]):
            out = cell_forward(weights, inputs[:, t], h, c)
            h, c = out["h"], out["c"]
            total += float(out["log_probs"][0, np.arange(4), targets[0, t]].sum())
            terms += 4
    return total / terms


def test_next_step_log_likelihood_matches_the_per_step_reference():
    rng = np.random.default_rng(52)
    tracks = random_walk_tracks(rng, [5, 9, 9, 14, 14, 14, 20] + [25] * 6)
    book = fit_codebook(tracks, k=16, seed=2, jitter_fraction=0.02)
    schedule = TrainSchedule(iterations=20, batch_size=8, learning_rate=5e-3, seed=4)
    weights, _ = train(tracks, book, ModelConfig(num_clusters=book.k, hidden_dim=12), schedule)
    got = next_step_log_likelihood(weights, tracks, book)
    assert abs(got - ref_next_step_log_likelihood(weights, tracks, book)) < 1e-12
    assert got > -math.log(book.k)  # twenty iterations already beat the uniform model
    with pytest.raises(EmptyInputError):
        next_step_log_likelihood(weights, [], book)


@pytest.mark.parametrize("k", [4, 256, 1024])
def test_zero_heads_give_the_uniform_log_likelihood(k):
    rng = np.random.default_rng(53)
    weights = init_weights(ModelConfig(num_clusters=k, hidden_dim=6), rng)
    weights.head_w[:] = 0.0  # the recurrence stays random; the logits are zero
    weights.head_b[:] = 0.0
    tracks = random_walk_tracks(rng, [4, 7, 7, 12])
    book = fit(rng.normal(0.0, 0.01, size=(4 * k, 4)), k=k, seed=0)
    assert abs(next_step_log_likelihood(weights, tracks, book) + math.log(k)) < 1e-12


def test_next_step_accuracy_runs_each_length_group_at_once(monkeypatch):
    rng = np.random.default_rng(54)
    tracks = random_walk_tracks(rng, [5, 9, 9, 14, 14, 14])  # groups of 4, 8 and 13 steps
    book = fit(rng.normal(0.0, 0.01, size=(200, 4)), k=5, seed=0)
    weights = init_weights(ModelConfig(num_clusters=5, hidden_dim=6), rng)
    rows = []
    real_core = training.lstm_core

    def counted_core(weights, x, h, c):
        rows.append(len(x))
        return real_core(weights, x, h, c)

    monkeypatch.setattr(training, "lstm_core", counted_core)
    accuracy = next_step_accuracy(weights, tracks, book)
    assert rows == [1] * 4 + [2] * 8 + [3] * 13  # one call per step per group, not per track
    monkeypatch.undo()
    assert accuracy == ref_next_step_accuracy(weights, tracks, book)


def test_loss_holds_one_head_tensor_per_group():
    # the loss keeps the (B, T, C, K) probabilities for the backward pass and
    # builds no log-probability tensor beside them; the LSTM caches and the
    # backward's scratch take about one more tensor's worth at this size
    rng = np.random.default_rng(51)
    batch, steps, k = 24, 24, 256
    weights = init_weights(ModelConfig(num_clusters=k, hidden_dim=48), rng)
    groups = random_groups(rng, 48, k, batch=batch, steps=steps)
    loss_and_gradients(weights, groups)
    tracemalloc.start()
    try:
        loss_and_gradients(weights, groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tensor = batch * steps * 4 * k * 8
    assert peak < 2.5 * tensor, f"peak {peak / tensor:.2f} head tensors"


def straight_tracks(n, length, speed, rng, growth=0.0):
    """Constant-velocity tracks with slightly varied speeds.

    With ``growth`` the boxes also widen by a slightly varied ``g`` px per
    frame and heighten by ``2 g``; without it their size is constant.
    """
    tracks = []
    for i in range(n):
        v = speed * (1.0 + 0.1 * rng.standard_normal())
        g = growth * (1.0 + 0.1 * rng.standard_normal()) if growth else 0.0
        x0 = rng.uniform(0.0, 100.0)
        y0 = rng.uniform(0.0, 100.0)
        boxes = np.stack([
            np.array([x0 + v * t, y0 + 0.5 * v * t, 30.0 + g * t, 60.0 + 2.0 * g * t])
            for t in range(length)
        ])
        tracks.append(TrainingTrack(boxes, FRAME))
    return tracks


def test_training_reduces_loss_and_predicts_constant_velocity():
    rng = np.random.default_rng(42)
    # varied size growth gives dw and dh several values, so every component
    # gets k cells and the cluster log-likelihood has something to learn
    tracks = straight_tracks(12, 20, speed=3.0, rng=rng, growth=0.2)
    velocities = np.concatenate(
        [np.diff(t.boxes, axis=0) / [FRAME.width, FRAME.height, FRAME.width, FRAME.height]
         for t in tracks]
    )
    book = fit(velocities, k=8, seed=0)
    assert book.k == 8
    schedule = TrainSchedule(
        iterations=250, batch_size=8, learning_rate=5e-3, jitter_fraction=0.0, seed=0
    )
    weights, trace = train(tracks, book, ModelConfig(num_clusters=book.k, hidden_dim=16), schedule)

    assert len(trace) == 250
    assert trace[-1] < 0.5 * trace[0]
    # after the first observed velocity the next cluster is predictable
    acc = next_step_accuracy(weights, tracks, book)
    assert acc > 0.8


def test_training_is_deterministic():
    rng = np.random.default_rng(43)
    tracks = straight_tracks(6, 12, speed=2.0, rng=rng)
    velocities = np.concatenate(
        [np.diff(t.boxes, axis=0) / [FRAME.width, FRAME.height, FRAME.width, FRAME.height]
         for t in tracks]
    )
    book = fit(velocities, k=5, seed=1)
    schedule = TrainSchedule(iterations=30, batch_size=4, seed=7)
    config = ModelConfig(num_clusters=book.k, hidden_dim=8)
    weights_a, trace_a = train(tracks, book, config, schedule)
    weights_b, trace_b = train(tracks, book, config, schedule)
    assert trace_a == trace_b
    for name in weights_a.PARAM_NAMES:
        np.testing.assert_array_equal(getattr(weights_a, name), getattr(weights_b, name))


def test_teacher_forcing_path_runs():
    rng = np.random.default_rng(44)
    tracks = straight_tracks(6, 15, speed=2.5, rng=rng)
    velocities = np.concatenate(
        [np.diff(t.boxes, axis=0) / [FRAME.width, FRAME.height, FRAME.width, FRAME.height]
         for t in tracks]
    )
    book = fit(velocities, k=5, seed=2)
    schedule = TrainSchedule(
        iterations=40, batch_size=4, teacher_forcing_prob=1.0, teacher_forcing_onset=0.3, seed=3
    )
    weights, trace = train(tracks, book, ModelConfig(num_clusters=book.k, hidden_dim=8), schedule)
    assert np.isfinite(trace).all()


def test_each_iteration_runs_the_recurrence_once(monkeypatch):
    rng = np.random.default_rng(47)
    tracks = straight_tracks(3, 8, speed=2.5, rng=rng) + straight_tracks(3, 11, speed=2.5, rng=rng)
    velocities = np.concatenate([np.diff(t.boxes, axis=0) / 640.0 for t in tracks])
    book = fit(velocities, k=5, seed=2)
    steps, cores = [], []
    real_loss, real_core = training.loss_and_gradients, training.lstm_core

    def counted_loss(weights, groups, *args, **kwargs):
        steps.append(sum(inputs.shape[1] for inputs, _, _ in groups))
        return real_loss(weights, groups, *args, **kwargs)

    def counted_core(*args):
        cores.append(1)
        return real_core(*args)

    monkeypatch.setattr(training, "loss_and_gradients", counted_loss)
    monkeypatch.setattr(training, "lstm_core", counted_core)
    schedule = TrainSchedule(
        iterations=3, batch_size=6, teacher_forcing_prob=1.0, teacher_forcing_onset=0.3, seed=3
    )
    train(tracks, book, ModelConfig(num_clusters=book.k, hidden_dim=8), schedule)
    assert len(steps) == 3
    # one core call per group per step per iteration, forcing included
    assert len(cores) == sum(steps)


def test_divergence_is_reported_with_iteration():
    rng = np.random.default_rng(45)
    tracks = straight_tracks(6, 12, speed=2.0, rng=rng)
    velocities = np.concatenate(
        [np.diff(t.boxes, axis=0) / [FRAME.width, FRAME.height, FRAME.width, FRAME.height]
         for t in tracks]
    )
    book = fit(velocities, k=5, seed=4)
    # Activations are tanh-bounded, so a merely huge learning rate cannot
    # push the loss non-finite; it takes a step large enough that the
    # residual term squares past float range.
    schedule = TrainSchedule(iterations=500, batch_size=4, learning_rate=1e200, clip_norm=None, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError) as info:
            train(tracks, book, ModelConfig(num_clusters=book.k, hidden_dim=8), schedule)
    assert info.value.iteration >= 0


def test_track_validation():
    with pytest.raises(EmptyInputError):
        TrainingTrack(np.zeros((2, 4)) + 1.0, FRAME)  # too short
    with pytest.raises(EmptyInputError):
        TrainingTrack(np.ones((5, 3)), FRAME)  # wrong width
    bad = np.ones((5, 4))
    bad[2, 1] = np.nan
    with pytest.raises(EmptyInputError):
        TrainingTrack(bad, FRAME)
    with pytest.raises(EmptyInputError):
        train([], fit(np.ones((4, 4)), k=1, seed=0), ModelConfig(num_clusters=1), TrainSchedule(iterations=1))


def test_window_tracks_cuts_runs_and_drops_short_chunks(clean_scene):
    long_run = np.arange(28, dtype=np.float64).reshape(7, 4) + 1.0
    short_run = long_run[:2]
    lengths = lambda tracks: [len(t.boxes) for t in tracks]  # noqa: E731
    assert lengths(window_tracks([long_run, short_run], FRAME, window=3)) == [3, 3]
    assert lengths(window_tracks([long_run, short_run], FRAME, window=None)) == [7]
    # a window below 3 cuts nothing to learn from, as TrainSchedule says
    for window in (0, 1, 2, -5):
        with pytest.raises(ValueError, match="window must be >= 3"):
            window_tracks([long_run, short_run], FRAME, window=window)
        with pytest.raises(ValueError, match="window must be >= 3"):
            clean_scene.training_tracks(window=window)
