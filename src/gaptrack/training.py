"""Training loop for the motion model: manual backpropagation through time.

The loss is the mean negative log-likelihood of the next-step cluster index,
averaged over the four velocity components, plus a small squared-error term
on the residual read-out (the continuous prediction ``delta_t + r_t`` of the
next velocity). Gradients for every parameter are derived by hand and checked
against finite differences in the test suite.

Sequences are consumed as box tracks; each iteration re-extracts velocities
after box jitter augmentation, prepends a zero seed velocity (the same token
the tracker feeds a fresh single-box tracklet), quantizes targets against the
codebook, and groups sequences of equal length into rectangular mini-batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, fit, quantize_array
from .errors import EmptyInputError, TrainingDivergedError
from .geometry import FrameGeometry, velocities_from_boxes
from .motion_model import (
    ModelConfig,
    ModelWeights,
    head_outputs,
    init_weights,
    lstm_core,
    sample_batch,
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


def window_tracks(runs, frame: FrameGeometry, window: int | None,
                  stride: int | None = None) -> list[TrainingTrack]:
    """Cut runs of consecutive boxes into training tracks of ``window`` boxes.

    ``window=None`` keeps each run whole. The stride defaults to the window
    length (non-overlapping); chunks shorter than 3 boxes are dropped since
    they carry no velocity transition to learn.
    """
    tracks = []
    for boxes in runs:
        size = window or len(boxes)
        step = (stride or size) if window else size
        for start in range(0, len(boxes), step):
            chunk = boxes[start:start + size]
            if len(chunk) >= 3:
                tracks.append(TrainingTrack(chunk, frame))
    return tracks


def _jitter_boxes(boxes: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform +-fraction noise, positions scaled by box size, sizes multiplicative."""
    eps = rng.uniform(-fraction, fraction, size=boxes.shape)
    out = boxes.copy()
    out[:, 0] += eps[:, 0] * boxes[:, 2]
    out[:, 1] += eps[:, 1] * boxes[:, 3]
    out[:, 2] *= 1.0 + eps[:, 2]
    out[:, 3] *= 1.0 + eps[:, 3]
    return out


def fit_codebook(tracks, k: int, seed: int, jitter_fraction: float) -> Codebook:
    """Fit a ``k``-cell codebook on the velocities training consumes.

    Training jitters boxes before extracting velocities, which spreads them
    several times wider than clean ones; a codebook fit on clean tracks
    spans a fraction of that, and most training targets clip onto the edge
    cells. So each track is jittered in order, by ``jitter_fraction`` from a
    generator seeded with ``seed``, as :func:`train` does; 0 fits the clean
    velocities. Deterministic given the tracks and the arguments.
    """
    rng = np.random.default_rng(seed)
    samples = np.concatenate([
        velocities_from_boxes(
            _jitter_boxes(t.boxes, jitter_fraction, rng) if jitter_fraction > 0 else t.boxes,
            t.frame,
        )
        for t in tracks
    ])
    return fit(samples, k, seed)


def _track_to_sequence(boxes: np.ndarray, frame: FrameGeometry, codebook: Codebook):
    """(inputs, targets, aux) for one track: seed-prefixed velocities and next-step labels."""
    vel = velocities_from_boxes(boxes, frame)
    inputs = np.vstack([np.zeros((1, 4)), vel[:-1]])
    targets = quantize_array(vel, codebook)
    return inputs, targets, vel.copy()


def _group_by_length(triples):
    """Stack equal-length sequences into rectangular (B, T, .) groups, shortest first."""
    buckets: dict[int, list] = {}
    for trip in triples:
        buckets.setdefault(trip[0].shape[0], []).append(trip)
    groups = []
    for t_len in sorted(buckets):
        items = buckets[t_len]
        groups.append(
            (
                np.stack([it[0] for it in items]),
                np.stack([it[1] for it in items]),
                np.stack([it[2] for it in items]),
            )
        )
    return groups


def _teacher_force_inputs(
    weights: ModelWeights,
    inputs: np.ndarray,
    codebook: Codebook,
    schedule: TrainSchedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """Replace late-sequence inputs with decoded samples of the model's own output.

    At every step past the onset fraction, each sequence independently keeps
    the ground-truth velocity with probability 1 - p and otherwise substitutes
    the centroid decoding of one sample from the previous step's predicted
    distribution. Targets are untouched.
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
                x[mask, t] = codebook.centroids[np.arange(4)[None, :], idx]
        core = lstm_core(weights, x[:, t], h, c)
        h, c = core["h"], core["c"]
        if t >= onset - 1:  # heads are only needed once sampling can fire
            prev_probs = head_outputs(weights, h)[1]
    return x


def loss_and_gradients(weights: ModelWeights, groups, aux_weight: float = AUX_LOSS_WEIGHT):
    """Loss and analytic parameter gradients over rectangular sequence groups.

    ``groups`` is a list of (inputs (B, T, D), targets (B, T, C) int,
    aux_targets (B, T, D)) batches. The negative log-likelihood is averaged
    over every (sequence, step, component) term across all groups; the
    residual term is ``aux_weight`` times the mean squared error of
    ``standardized input + residual`` against the standardized next velocity.
    Deterministic, so finite differences can validate the gradients exactly.
    """
    hdim = weights.config.hidden_dim
    forward = []
    nll_sum = 0.0
    sq_sum = 0.0
    n_nll = 0
    n_aux = 0
    for inputs, targets, aux in groups:
        b, t_len, _ = inputs.shape
        aux_s = (aux - weights.input_shift) / weights.input_scale
        h = np.zeros((b, hdim))
        c = np.zeros((b, hdim))
        caches = []
        for t in range(t_len):
            out = lstm_core(weights, inputs[:, t], h, c)
            h, c = out["h"], out["c"]
            caches.append(out)
        # Only the recurrence is sequential; heads apply to every step at once.
        hs = np.stack([k["h"] for k in caches], axis=1)     # (B, T, H)
        xss = np.stack([k["xs"] for k in caches], axis=1)   # (B, T, D)
        log_probs, probs, res = head_outputs(weights, hs)   # (B, T, C, K)
        picked = np.take_along_axis(log_probs, targets[..., None], axis=3)
        nll_sum -= float(picked.sum())
        diff = xss + res - aux_s
        sq_sum += float(np.sum(diff * diff))
        n_nll += b * t_len * targets.shape[2]
        n_aux += b * t_len * inputs.shape[2]
        forward.append((caches, hs, xss, probs, diff))

    loss = nll_sum / n_nll + aux_weight * sq_sum / n_aux
    grads = {name: np.zeros_like(arr) for name, arr in weights.params().items()}

    for (inputs, targets, _), (caches, hs, xss, probs, diff) in zip(groups, forward):
        b, t_len, _ = inputs.shape
        n_flat = b * t_len

        dlogits = probs / n_nll
        sub = np.take_along_axis(dlogits, targets[..., None], axis=3) - 1.0 / n_nll
        np.put_along_axis(dlogits, targets[..., None], sub, axis=3)
        dres = (2.0 * aux_weight / n_aux) * diff

        hs_flat = hs.reshape(n_flat, hdim)
        dl_flat = dlogits.reshape(n_flat, *dlogits.shape[2:])
        grads["head_w"] += np.tensordot(dl_flat, hs_flat, axes=([0], [0])).transpose(0, 2, 1)
        grads["head_b"] += dl_flat.sum(axis=0)
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
    if clip_norm is None or clip_norm <= 0:
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
    rng: np.random.Generator | None = None,
):
    """Train a fresh model on box tracks; returns (weights, per-iteration loss trace).

    Each iteration samples ``batch_size`` tracks with replacement, jitters
    their boxes, extracts and quantizes velocities, applies scheduled teacher
    forcing, and takes one Adam step on the hand-derived gradients with
    per-parameter norm clipping. Raises :class:`TrainingDivergedError` with
    the iteration index if the loss leaves the finite range. Deterministic
    given the dataset and ``schedule.seed``.
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyInputError("training dataset is empty")
    if config.num_clusters != codebook.k:
        raise ValueError(
            f"model expects {config.num_clusters} clusters but codebook has k={codebook.k}"
        )
    if rng is None:
        rng = np.random.default_rng(schedule.seed)

    weights = init_weights(config, rng)
    # Standardization constants must reflect what the model actually consumes:
    # with augmentation on, jittered velocities spread several times wider than
    # clean ones, and stats taken from clean tracks let the residual term blow
    # up and drown the likelihood gradients. They ride along with the weights
    # so scoring applies the identical transform.
    stat_vel = np.concatenate(
        [
            velocities_from_boxes(
                _jitter_boxes(t.boxes, schedule.jitter_fraction, rng)
                if schedule.jitter_fraction > 0.0
                else t.boxes,
                t.frame,
            )
            for t in dataset
        ],
        axis=0,
    )
    weights.input_shift = stat_vel.mean(axis=0)
    weights.input_scale = np.maximum(stat_vel.std(axis=0), 1e-8)

    adam_m = {name: np.zeros_like(arr) for name, arr in weights.params().items()}
    adam_v = {name: np.zeros_like(arr) for name, arr in weights.params().items()}
    trace: list[float] = []

    for it in range(schedule.iterations):
        picks = rng.integers(0, len(dataset), size=schedule.batch_size)
        triples = []
        for pick in picks:
            track = dataset[int(pick)]
            boxes = track.boxes
            if schedule.jitter_fraction > 0.0:
                boxes = _jitter_boxes(boxes, schedule.jitter_fraction, rng)
            triples.append(_track_to_sequence(boxes, track.frame, codebook))
        groups = _group_by_length(triples)
        groups = [
            (_teacher_force_inputs(weights, inputs, codebook, schedule, rng), targets, aux)
            for inputs, targets, aux in groups
        ]
        loss, grads = loss_and_gradients(weights, groups)
        if not np.isfinite(loss):
            raise TrainingDivergedError(iteration=it)
        _clip_gradients(grads, schedule.clip_norm)

        step_idx = it + 1
        lr = schedule.learning_rate
        for name, param in weights.params().items():
            g = grads[name]
            adam_m[name] = _ADAM_BETA1 * adam_m[name] + (1.0 - _ADAM_BETA1) * g
            adam_v[name] = _ADAM_BETA2 * adam_v[name] + (1.0 - _ADAM_BETA2) * g * g
            m_hat = adam_m[name] / (1.0 - _ADAM_BETA1**step_idx)
            v_hat = adam_v[name] / (1.0 - _ADAM_BETA2**step_idx)
            param -= lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        trace.append(float(loss))
    return weights, trace


def next_step_accuracy(weights: ModelWeights, tracks, codebook: Codebook) -> float:
    """Fraction of (step, component) argmax predictions matching the true cluster.

    Tracks are consumed without jitter or teacher forcing; useful as a
    held-out sanity gate for a trained model.
    """
    hdim = weights.config.hidden_dim
    correct = 0
    total = 0
    for track in tracks:
        inputs, targets, _ = _track_to_sequence(track.boxes, track.frame, codebook)
        h = np.zeros((1, hdim))
        c = np.zeros((1, hdim))
        hs = []
        for t in range(inputs.shape[0]):
            out = lstm_core(weights, inputs[None, t], h, c)
            h, c = out["h"], out["c"]
            hs.append(h[0])
        log_probs = head_outputs(weights, np.stack(hs))[0]
        correct += int(np.sum(np.argmax(log_probs, axis=2) == targets))
        total += targets.size
    return correct / total if total else 0.0
