"""Training loop: analytic gradients, convergence, divergence detection."""

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
    train,
)
from gaptrack import training
from gaptrack.codebook import decode
from gaptrack.errors import EmptyInputError
from gaptrack.motion_model import head_outputs, lstm_core, sample_batch
from gaptrack.training import loss_and_gradients, window_tracks

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


def test_window_tracks_cuts_runs_and_drops_short_chunks():
    long_run = np.arange(28, dtype=np.float64).reshape(7, 4) + 1.0
    short_run = long_run[:2]
    lengths = lambda tracks: [len(t.boxes) for t in tracks]  # noqa: E731
    assert lengths(window_tracks([long_run, short_run], FRAME, window=3)) == [3, 3]
    assert lengths(window_tracks([long_run, short_run], FRAME, window=None)) == [7]
    assert lengths(window_tracks([long_run], FRAME, window=4, stride=2)) == [4, 4, 3]
    assert lengths(window_tracks([long_run], FRAME, window=None, stride=2)) == [7]
