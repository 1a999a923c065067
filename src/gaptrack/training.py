"""Training loop for the motion model: manual backpropagation through time.

The loss is the mean negative log-likelihood of the next-step cluster index,
averaged over the four velocity components, plus a small squared-error term
on the residual read-out (the continuous prediction ``delta_t + r_t`` of the
next velocity). Gradients for every parameter are derived by hand and checked
against finite differences in the test suite.

Sequences are consumed as box tracks; each iteration jitters the boxes of
all the tracks it picked with one draw, extracts their velocities in one
pass and quantizes the targets against the codebook in one call, then
groups sequences of equal length into rectangular mini-batches whose inputs
are the velocities behind a zero seed velocity (the same token the tracker
feeds a fresh single-box tracklet). Scheduled teacher forcing happens inside
the loss's forward pass: late steps may take a sample of the model's own
previous prediction as input, drawn just before the recurrence consumes it,
so each iteration runs the recurrence once. The clean-track measures
(next-step accuracy and log-likelihood) run the same forward, unforced.
The loss builds one (B, T, C, K) array per group, the probabilities, and
picks its targets before the in-place ``exp`` that makes them; Adam
updates its moments and the weights in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, decode, fit, quantize
from .errors import EmptyInputError, TrainingDivergedError, check_integer_fields
from .geometry import FrameGeometry
from .motion_model import (
    ModelConfig,
    ModelWeights,
    head_outputs,
    init_weights,
    lstm_core,
    sample_batch,
    target_head_outputs,
)

# Weight of the auxiliary residual regression term. The categorical heads
# remain the sole source of likelihoods; this only shapes the hidden state.
AUX_LOSS_WEIGHT = 0.1

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainSchedule:
    """Training hyperparameters; the defaults are the packaged run's.

    ``window`` is not used by :func:`train` itself: it is the length the
    training tracks are cut to before training (:func:`window_tracks`).
    ``clip_norm=None`` switches gradient clipping off.
    """

    iterations: int = 5000
    batch_size: int = 24
    learning_rate: float = 1e-3
    clip_norm: float | None = 1.0
    teacher_forcing_prob: float = 0.2
    teacher_forcing_onset: float = 0.7  # fraction of the sequence after which forcing may fire
    jitter_fraction: float = 0.02       # box jitter amplitude relative to box size
    window: int | None = 25
    seed: int = 0

    def __post_init__(self):
        check_integer_fields(self)
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.clip_norm is not None and not self.clip_norm > 0.0:
            raise ValueError(f"clip_norm must be > 0 or null, got {self.clip_norm}")
        for name in ("teacher_forcing_prob", "teacher_forcing_onset"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if not 0.0 <= self.jitter_fraction < float("inf"):
            raise ValueError(f"jitter_fraction must be finite and >= 0, got {self.jitter_fraction}")
        if self.window is not None and self.window < 3:
            raise ValueError(f"window must be >= 3 or null, got {self.window}")
        if self.seed < 0:  # numpy seeds must be non-negative
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TrainingTrack:
    """One ground-truth box sequence with the frame it lives in."""

    boxes: np.ndarray  # (L, 4) float, L >= 3 so at least two velocities exist
    frame: FrameGeometry

    def __post_init__(self):
        boxes = np.asarray(self.boxes, dtype=np.float64)
        if boxes.ndim != 2 or boxes.shape[1] != 4 or boxes.shape[0] < 3:
            raise EmptyInputError(
                f"a training track needs at least 3 boxes of shape (L, 4), got {boxes.shape}"
            )
        if not np.all(np.isfinite(boxes)):
            raise EmptyInputError("training track contains non-finite boxes")
        object.__setattr__(self, "boxes", boxes)


def window_tracks(runs, frame: FrameGeometry, window: int | None) -> list[TrainingTrack]:
    """Cut runs of consecutive boxes into non-overlapping training tracks of ``window`` boxes.

    ``window=None`` keeps each run whole; any other window must be at least
    3, as in :class:`TrainSchedule`. Chunks shorter than 3 boxes are
    dropped since they carry no velocity transition to learn.
    """
    if window is not None and window < 3:
        raise ValueError(f"window must be >= 3 or None, got {window}")
    tracks = []
    for boxes in runs:
        size = window or len(boxes)
        for start in range(0, len(boxes), size):
            chunk = boxes[start:start + size]
            if len(chunk) >= 3:
                tracks.append(TrainingTrack(chunk, frame))
    return tracks


def _jittered_velocities(tracks, fraction: float, rng: np.random.Generator | None) -> np.ndarray:
    """Velocities of every track in order, each track's boxes jittered first.

    The coupling between the codebook fit, training's standardization and
    every training batch: all see the velocities the jittered training
    inputs have. One draw of uniform noise of +-``fraction`` jitters the
    concatenated boxes (positions scaled by box size, sizes multiplicative),
    the same numbers per-track draws in order would give, and one pass takes
    the differences within each track. A ``fraction`` of 0 takes the clean
    velocities and draws nothing.
    """
    tracks = list(tracks)
    lengths = np.array([len(t.boxes) for t in tracks])
    boxes = np.concatenate([t.boxes for t in tracks])
    first = np.zeros(len(boxes), dtype=bool)
    first[np.cumsum(lengths) - lengths] = True
    last = np.roll(first, -1)  # the box before a track's first is the previous track's last
    if fraction > 0:
        eps = rng.uniform(-fraction, fraction, size=boxes.shape)
        jittered = boxes.copy()
        jittered[:, 0] += eps[:, 0] * boxes[:, 2]
        jittered[:, 1] += eps[:, 1] * boxes[:, 3]
        jittered[:, 2:] *= 1.0 + eps[:, 2:]
        boxes = jittered
    scale = np.repeat([t.frame.scale for t in tracks], lengths - 1, axis=0)
    return (boxes[~first] - boxes[~last]) / scale


def fit_codebook(tracks, k: int, seed: int, jitter_fraction: float) -> Codebook:
    """Fit a ``k``-cell codebook on the velocities training consumes.

    Training jitters boxes before extracting velocities, which spreads them
    several times wider than clean ones; a codebook fit on clean tracks
    spans a fraction of that, and most training targets clip onto the edge
    cells. So each track is jittered in order, by ``jitter_fraction`` from a
    generator seeded with ``seed``, as :func:`train` does; 0 fits the clean
    velocities. Deterministic given the tracks and the arguments.
    """
    samples = _jittered_velocities(tracks, jitter_fraction, np.random.default_rng(seed))
    return fit(samples, k, seed)


def _group_by_length(vel: np.ndarray, cells: np.ndarray, steps: np.ndarray):
    """Rectangular (inputs, targets, aux) groups of equal-length sequences, shortest first.

    Sequence ``i`` owns the next ``steps[i]`` rows of the velocities ``vel``
    and their cells ``cells``. A group stacks the sequences of one length in
    their order: its targets are their cells, its aux targets their
    velocities, and its inputs those velocities delayed by one step behind
    a zero seed velocity.
    """
    starts = np.cumsum(steps) - steps
    groups = []
    for t_len in np.unique(steps):
        rows = starts[steps == t_len][:, None] + np.arange(t_len)
        aux = vel[rows]
        inputs = np.zeros_like(aux)
        inputs[:, 1:] = aux[:, :-1]
        groups.append((inputs, cells[rows], aux))
    return groups


def _teacher_force_inputs(
    x_t: np.ndarray,
    prev_probs: np.ndarray,
    codebook: Codebook,
    prob: float,
    rng: np.random.Generator,
) -> None:
    """Substitute decoded samples of the model's own output into one step's inputs.

    ``x_t`` is the (B, D) input of one step, written in place. Each row
    independently keeps its ground-truth velocity with probability
    ``1 - prob`` and otherwise takes the centroid decoding of one sample
    from its row of ``prev_probs``, the previous step's (B, C, K)
    prediction. Draws B uniforms for the mask, then one block of samples
    for the rows it picks.
    """
    mask = rng.random(len(x_t)) < prob
    if mask.any():
        x_t[mask] = decode(sample_batch(prev_probs[mask], rng), codebook)


def _forward(weights: ModelWeights, inputs: np.ndarray, targets: np.ndarray, forcing=None):
    """One group's forward pass, with ``forcing`` as in :func:`loss_and_gradients`.

    Returns the per-step caches, the (B, T, H) hidden states, the (B, T, D)
    standardized inputs and :func:`target_head_outputs` of every step.
    """
    b, t_len, _ = inputs.shape
    hdim = weights.config.hidden_dim
    onset = t_len  # the first step forcing may replace
    if forcing is not None:
        book, schedule, rng = forcing
        if schedule.teacher_forcing_prob > 0.0:
            onset = max(1, int(np.ceil(schedule.teacher_forcing_onset * t_len)))
    x = inputs.copy() if onset < t_len else inputs
    h = c = np.zeros((b, hdim))
    caches = []
    for t in range(t_len):
        if t >= onset:
            _teacher_force_inputs(x[:, t], prev_probs, book, schedule.teacher_forcing_prob, rng)
        out = lstm_core(weights, x[:, t], h, c)
        h, c = out["h"], out["c"]
        caches.append(out)
        if onset - 1 <= t < t_len - 1:  # the next step may sample from this one
            prev_probs = head_outputs(weights, h)[1]
    # Only the recurrence is sequential; heads apply to every step at once.
    hs = np.stack([k["h"] for k in caches], axis=1)     # (B, T, H)
    xss = np.stack([k["xs"] for k in caches], axis=1)   # (B, T, D)
    return (caches, hs, xss, *target_head_outputs(weights, hs, targets))


def loss_and_gradients(weights: ModelWeights, groups, forcing=None):
    """Loss and analytic parameter gradients over rectangular sequence groups.

    ``groups`` is a list of (inputs (B, T, D), targets (B, T, C) int,
    aux_targets (B, T, D)) batches. The negative log-likelihood is averaged
    over every (sequence, step, component) term across all groups; the
    residual term is ``AUX_LOSS_WEIGHT`` times the mean squared error of
    ``standardized input + residual`` against the standardized next velocity.

    ``forcing``, when given, is ``(codebook, schedule, rng)``: scheduled
    teacher forcing runs inside the forward pass. Group by group and step
    by step, each step past the schedule's onset draws from ``rng`` and
    substitutes samples of the previous step's prediction into a copy of
    the inputs (:func:`_teacher_force_inputs`) before the recurrence
    consumes it; targets are untouched, and the gradients treat the forced
    inputs as constants. Without it the result is deterministic, so finite
    differences can validate the gradients exactly.
    """
    hdim = weights.config.hidden_dim
    forward = []
    nll_sum = 0.0
    sq_sum = 0.0
    n_nll = 0
    n_aux = 0
    for inputs, targets, aux in groups:
        caches, hs, xss, picked, probs, res = _forward(weights, inputs, targets, forcing)
        nll_sum -= float(picked.sum())
        diff = xss + res - (aux - weights.input_shift) / weights.input_scale
        sq_sum += float(np.sum(diff * diff))
        n_nll += targets.size
        n_aux += inputs.size
        forward.append((caches, hs, xss, probs, diff))

    loss = nll_sum / n_nll + AUX_LOSS_WEIGHT * sq_sum / n_aux
    grads = {name: np.zeros_like(arr) for name, arr in weights.params().items()}

    n_comp, _, n_cells = weights.head_w.shape
    for (inputs, targets, _), (caches, hs, xss, probs, diff) in zip(groups, forward):
        b, t_len, _ = inputs.shape
        n_flat = b * t_len

        dlogits = probs  # the forward's probabilities are not needed again
        dlogits /= n_nll
        sub = np.take_along_axis(dlogits, targets[..., None], axis=3) - 1.0 / n_nll
        np.put_along_axis(dlogits, targets[..., None], sub, axis=3)
        dres = (2.0 * AUX_LOSS_WEIGHT / n_aux) * diff

        hs_flat = hs.reshape(n_flat, hdim)
        dl_flat = dlogits.reshape(n_flat, n_comp * n_cells)
        grads["head_w"] += (hs_flat.T @ dl_flat).reshape(hdim, n_comp, n_cells).transpose(1, 0, 2)
        grads["head_b"] += dlogits.reshape(n_flat, n_comp, n_cells).sum(axis=0)
        grads["res_w"] += hs_flat.T @ dres.reshape(n_flat, -1)
        grads["res_b"] += dres.sum(axis=(0, 1))

        dh_head = np.tensordot(dlogits, weights.head_w, axes=([2, 3], [0, 2]))
        dh_head += dres @ weights.res_w.T  # (B, T, H)

        dh_next = np.zeros((b, hdim))
        dc_next = np.zeros((b, hdim))
        dpre_all = np.empty((t_len, b, 4 * hdim))
        da_all = np.empty((t_len, b, hdim))
        for t in reversed(range(t_len)):
            cache = caches[t]
            dh = dh_head[:, t] + dh_next
            do = dh * cache["tc"]
            dc = dc_next + dh * cache["o"] * (1.0 - cache["tc"] ** 2)
            di = dc * cache["g"]
            dg = dc * cache["i"]
            df = dc * cache["c_prev"]
            dc_next = dc * cache["f"]

            dpre = dpre_all[t]
            dpre[:, :hdim] = di * cache["i"] * (1.0 - cache["i"])
            dpre[:, hdim : 2 * hdim] = df * cache["f"] * (1.0 - cache["f"])
            dpre[:, 2 * hdim : 3 * hdim] = do * cache["o"] * (1.0 - cache["o"])
            dpre[:, 3 * hdim :] = dg * (1.0 - cache["g"] ** 2)
            dzcat = dpre @ weights.lstm_w.T
            dh_next = dzcat[:, hdim:]
            da_all[t] = dzcat[:, :hdim] * (cache["a"] > 0.0)

        zcat_all = np.concatenate(
            [
                np.stack([k["e"] for k in caches], axis=0),
                np.stack([k["h_prev"] for k in caches], axis=0),
            ],
            axis=2,
        )  # (T, B, 2H)
        dpre_flat = dpre_all.reshape(n_flat, 4 * hdim)
        da_flat = da_all.reshape(n_flat, hdim)
        grads["lstm_w"] += zcat_all.reshape(n_flat, 2 * hdim).T @ dpre_flat
        grads["lstm_b"] += dpre_flat.sum(axis=0)
        grads["embed_w"] += xss.transpose(1, 0, 2).reshape(n_flat, -1).T @ da_flat
        grads["embed_b"] += da_flat.sum(axis=0)
    return loss, grads


def _clip_gradients(grads: dict[str, np.ndarray], clip_norm: float | None) -> None:
    if clip_norm is None:
        return
    for g in grads.values():
        norm = float(np.sqrt(np.sum(g * g)))
        if norm > clip_norm:
            g *= clip_norm / norm


def train(
    dataset,
    codebook: Codebook,
    config: ModelConfig,
    schedule: TrainSchedule,
):
    """Train a fresh model on box tracks; returns (weights, per-iteration loss trace).

    Each iteration samples ``batch_size`` tracks with replacement, jitters
    their boxes and extracts their velocities (:func:`_jittered_velocities`),
    quantizes them, and takes one Adam step on the hand-derived gradients
    with per-parameter norm clipping. Teacher forcing happens inside the
    forward pass of :func:`loss_and_gradients`, which draws from the run's
    one generator, seeded by ``schedule.seed``, after the iteration's jitter
    draw.
    Raises :class:`TrainingDivergedError` with the iteration index if the
    loss leaves the finite range. Deterministic given the dataset and
    ``schedule.seed``.
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyInputError("training dataset is empty")
    if config.num_clusters != codebook.k:
        raise ValueError(
            f"model expects {config.num_clusters} clusters but codebook has k={codebook.k}"
        )
    rng = np.random.default_rng(schedule.seed)

    weights = init_weights(config, rng)
    # Standardization constants must reflect what the model actually consumes:
    # with augmentation on, jittered velocities spread several times wider than
    # clean ones, and stats taken from clean tracks let the residual term blow
    # up and drown the likelihood gradients. They ride along with the weights
    # so scoring applies the identical transform.
    stat_vel = _jittered_velocities(dataset, schedule.jitter_fraction, rng)
    weights.input_shift = stat_vel.mean(axis=0)
    weights.input_scale = np.maximum(stat_vel.std(axis=0), 1e-8)

    # Adam's first and second moments and one scratch array per parameter
    adam = {name: (np.zeros_like(arr), np.zeros_like(arr), np.empty_like(arr))
            for name, arr in weights.params().items()}
    steps = np.array([len(t.boxes) - 1 for t in dataset])
    trace: list[float] = []

    for it in range(schedule.iterations):
        picks = rng.integers(0, len(dataset), size=schedule.batch_size)
        vel = _jittered_velocities([dataset[i] for i in picks], schedule.jitter_fraction, rng)
        groups = _group_by_length(vel, quantize(vel, codebook), steps[picks])
        loss, grads = loss_and_gradients(weights, groups, forcing=(codebook, schedule, rng))
        if not np.isfinite(loss):
            raise TrainingDivergedError(iteration=it)
        _clip_gradients(grads, schedule.clip_norm)
        _adam_step(weights, grads, adam, schedule.learning_rate, it + 1)
        trace.append(float(loss))
    return weights, trace


def _adam_step(weights: ModelWeights, grads, adam, lr: float, step_idx: int) -> None:
    """One Adam update of every parameter, in place; ``grads`` is overwritten.

    Each operation is the one the textbook form ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g g``, ``p -= lr m_hat / (sqrt(v_hat) + eps)``
    performs, in the same order, so the weights keep their bits.
    """
    m_scale = 1.0 - _ADAM_BETA1**step_idx
    v_scale = 1.0 - _ADAM_BETA2**step_idx
    for name, param in weights.params().items():
        g = grads[name]
        m, v, buf = adam[name]
        m *= _ADAM_BETA1
        m += np.multiply(g, 1.0 - _ADAM_BETA1, out=buf)
        v *= _ADAM_BETA2
        np.multiply(g, 1.0 - _ADAM_BETA2, out=buf)
        buf *= g
        v += buf
        np.divide(v, v_scale, out=g)  # g becomes sqrt(v_hat) + eps
        np.sqrt(g, out=g)
        g += _ADAM_EPS
        np.divide(m, m_scale, out=buf)
        buf *= lr
        buf /= g
        param -= buf


def _clean_heads(weights: ModelWeights, tracks, codebook: Codebook):
    """(targets, target log-probabilities, probabilities) of each equal-length group of clean tracks."""
    tracks = list(tracks)
    if not tracks:
        return
    vel = _jittered_velocities(tracks, 0.0, None)
    steps = np.array([len(t.boxes) - 1 for t in tracks])
    for inputs, targets, _ in _group_by_length(vel, quantize(vel, codebook), steps):
        _, _, _, picked, probs, _ = _forward(weights, inputs, targets)
        yield targets, picked, probs


def next_step_accuracy(weights: ModelWeights, tracks, codebook: Codebook) -> float:
    """Fraction of (step, component) argmax predictions matching the true cluster.

    Tracks are consumed without jitter or teacher forcing; useful as a
    held-out sanity gate for a trained model.
    """
    correct = total = 0
    for targets, _, probs in _clean_heads(weights, tracks, codebook):
        correct += int(np.sum(np.argmax(probs, axis=-1) == targets))
        total += targets.size
    return correct / total if total else 0.0


def next_step_log_likelihood(weights: ModelWeights, tracks, codebook: Codebook) -> float:
    """Mean per-component log-probability of the clean next steps of ``tracks``.

    Tracks are consumed as by :func:`next_step_accuracy`; a uniform model reads ``-ln k``.
    Raises :class:`EmptyInputError` when there is no step to score.
    """
    total, terms = 0.0, 0
    for _, picked, _ in _clean_heads(weights, tracks, codebook):
        total += float(picked.sum())
        terms += picked.size
    if not terms:
        raise EmptyInputError("no tracks to score")
    return total / terms
