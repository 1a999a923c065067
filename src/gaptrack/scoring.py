"""Tracklet state, detection scoring, and gap inpainting.

A tracklet carries, besides its committed boxes, the recurrent state of the
motion model after consuming its velocity history and the model's predictive
distribution for the next step. Scoring is then a pure lookup, done for a
whole assignment pass at once: ``score_detection`` takes every bidder's
origin box and distribution plus every detection, builds one velocity tensor,
quantizes it in one call and sums the gathered component log-probabilities
into an (N, M) matrix.

When a tracklet has unobserved frames, ``inpaint`` bridges the gap by
sampling many candidate continuations, rejecting those whose box at the
current frame fails to overlap any detection, and ranking survivors by the
summed best IOU against detections over the current frame plus a short
lookahead window. The winner supplies the missing boxes and the state from
which the current detections are scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codebook import Codebook, decode, quantize
from .errors import NumericOverflowError, SequencingError
from .geometry import BoundingBox, FrameGeometry, apply_velocity, iou_matrix, velocity
from .motion_model import (
    ModelWeights,
    RecurrentState,
    cell_forward,
    init_state,
    log_likelihood,
    sample_batch,
    step,
)

SOURCE_DETECTED = "detected"
SOURCE_INPAINTED = "inpainted"

STATUS_TENTATIVE = "tentative"
STATUS_ACTIVE = "active"
STATUS_GAPPED = "gapped"
STATUS_TERMINATED = "terminated"

SAMPLING_MULTINOMIAL = "multinomial"
SAMPLING_TOP1 = "top1"

# Frame rate at which the lookahead window grows from 2 to 3 frames.
T_TRS_FPS_CUTOFF = 25.0


def t_trs_for_frame_rate(frame_rate: float) -> int:
    """Lookahead length: 2 frames below 25 fps, 3 at or above."""
    return 2 if frame_rate < T_TRS_FPS_CUTOFF else 3


class TrackletBox(NamedTuple):
    frame: int
    box: BoundingBox
    source: str


@dataclass(frozen=True)
class InpaintParams:
    """Knobs of the gap-bridging sampler."""

    num_samples: int = 30
    t_trs: int | None = None  # None: derive from the sequence frame rate
    iou_threshold: float = 0.5
    sampling: str = SAMPLING_MULTINOMIAL
    seed: int = 0


@dataclass
class Tracklet:
    """One tracked object: committed boxes plus cached model state.

    ``state`` has consumed the zero seed velocity plus one velocity per
    committed transition; ``dist`` is the model's (4, K) predictive
    distribution for the velocity leading to the next frame.
    """

    tracklet_id: int
    boxes: list[TrackletBox]
    state: RecurrentState
    dist: np.ndarray
    status: str = STATUS_TENTATIVE
    gap_length: int = 0
    hits: int = 1

    @property
    def last_box(self) -> TrackletBox:
        return self.boxes[-1]

    @property
    def last_frame(self) -> int:
        return self.boxes[-1].frame

    @property
    def confirmed(self) -> bool:
        return self.status in (STATUS_ACTIVE, STATUS_GAPPED)


def new_tracklet(tracklet_id: int, frame_index: int, box: BoundingBox, weights: ModelWeights) -> Tracklet:
    """Start a tracklet from a single detection.

    A single box has no velocity yet, so the predictive distribution is
    obtained by feeding a zero velocity as a seed token; training prepends
    the same token, keeping cold-start scores calibrated.
    """
    state, dist = step(weights, init_state(weights), np.zeros(4))
    return Tracklet(
        tracklet_id=tracklet_id,
        boxes=[TrackletBox(frame_index, box, SOURCE_DETECTED)],
        state=state,
        dist=dist,
    )


def score_detection(
    origins: np.ndarray,
    dists: np.ndarray,
    detections: np.ndarray,
    frame: FrameGeometry,
    codebook: Codebook,
) -> np.ndarray:
    """Log-likelihood of every detection continuing every bidder; pure, no mutation.

    ``origins`` is (N, 4): the box each bidder continues from. ``dists`` is
    (N, 4, K): each bidder's predictive distribution. ``detections`` is
    (M, 4). Returns (N, M): the :func:`~gaptrack.motion_model.log_likelihood`
    of each pair's quantized velocity.
    """
    deltas = velocity(origins[:, None, :], detections[None, :, :], frame)
    cells = quantize(deltas, codebook)  # (N, M, 4)
    return log_likelihood(dists[:, None], cells)


def advance(
    tracklet: Tracklet,
    box: BoundingBox,
    frame_index: int,
    frame: FrameGeometry,
    source: str,
    weights: ModelWeights,
) -> Tracklet:
    """Append the next-frame box and feed its velocity through the model."""
    if frame_index != tracklet.last_frame + 1:
        raise SequencingError(
            f"advance expects frame {tracklet.last_frame + 1}, got {frame_index}"
        )
    delta = velocity(tracklet.last_box.box.as_array(), box.as_array(), frame)
    tracklet.state, tracklet.dist = step(weights, tracklet.state, delta)
    tracklet.boxes.append(TrackletBox(frame_index, box, source))
    return tracklet


@dataclass
class InpaintCandidate:
    """One sampled continuation of a gapped tracklet.

    ``path`` holds, one (x, y, w, h) row per frame, ``gap`` boxes bridging up
    to the current frame followed by the sampled lookahead (fewer rows if the
    branch degenerated). ``state_at_scoring``/``dist_at_scoring`` are the
    model state after the boxes strictly before the current frame, and
    ``origin`` is the box there: that is where an assigned detection gets
    scored and committed.
    """

    branch_index: int
    gap: int
    path: np.ndarray
    state_at_scoring: RecurrentState
    dist_at_scoring: np.ndarray
    origin: np.ndarray
    sample_log_likelihood: float = 0.0
    iou_score: float = 0.0
    rejected: bool = False
    rejection_reason: str = ""

    @property
    def boxes(self) -> list[BoundingBox]:
        """The path rows as boxes."""
        return [BoundingBox(*map(float, row)) for row in self.path]

    @property
    def box_at_scoring(self) -> BoundingBox:
        """The origin row as a box."""
        return BoundingBox(*map(float, self.origin))


def _as_box_array(boxes) -> np.ndarray:
    if isinstance(boxes, np.ndarray):
        return np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    if len(boxes) == 0:
        return np.zeros((0, 4))
    return np.stack([b.as_array() if isinstance(b, BoundingBox) else np.asarray(b, dtype=np.float64) for b in boxes])


def sample_candidates(
    tracklet: Tracklet,
    gap: int,
    lookahead,
    params: InpaintParams,
    weights: ModelWeights,
    codebook: Codebook,
    frame: FrameGeometry,
    rng: np.random.Generator,
) -> list[InpaintCandidate]:
    """Sample every branch of the gap-bridging search, including rejected ones.

    ``lookahead`` is a list of per-frame detection collections (boxes or
    (M, 4) arrays) for the current frame and up to ``t_trs`` frames beyond
    it (shorter near the sequence end). Each branch autoregressively samples
    ``gap + len(lookahead) - 1`` velocities, decoding each sampled cluster
    quadruple to its centroids. A branch is rejected if its box at the
    current frame overlaps no detection there at ``iou_threshold``, or if a
    sampled step degenerates the box.
    """
    if gap < 1:
        raise SequencingError(f"inpaint needs a gap of at least 1 frame, got {gap}")
    if len(lookahead) < 1:
        raise ValueError("lookahead must include the current frame's detections")
    det_arrays = [_as_box_array(dets) for dets in lookahead]
    extra = len(det_arrays) - 1
    total_steps = gap + extra
    greedy = params.sampling == SAMPLING_TOP1
    branches = 1 if greedy else params.num_samples
    if branches == 0:
        return []

    # All branches march in lockstep as one model batch. A branch whose box
    # degenerates is frozen in place but keeps its slot, so branch indices and
    # the draw order stay stable.
    hid = np.tile(tracklet.state.hidden, (branches, 1))
    cell = np.tile(tracklet.state.cell, (branches, 1))
    dist = np.tile(tracklet.dist, (branches, 1, 1))
    last = np.tile(tracklet.last_box.box.as_array(), (branches, 1))
    path = np.zeros((branches, total_steps, 4))
    alive = np.ones(branches, dtype=bool)
    steps_done = np.zeros(branches, dtype=int)
    log_lik = np.zeros(branches)
    snap = (hid, cell, dist, last)

    for step_idx in range(total_steps):
        if step_idx == gap - 1:
            snap = (hid.copy(), cell.copy(), dist.copy(), last.copy())
        quads = np.argmax(dist, axis=2) if greedy else sample_batch(dist, rng)
        log_lik[alive] += log_likelihood(dist, quads)[alive]
        vel = decode(quads, codebook)  # (B, 4) normalized velocities
        nxt = apply_velocity(last, vel, frame)
        alive &= (nxt[:, 2] > 0.0) & (nxt[:, 3] > 0.0)
        path[alive, step_idx] = nxt[alive]
        last = np.where(alive[:, None], nxt, last)
        steps_done[alive] += 1
        if not alive.any():
            break
        out = cell_forward(weights, vel, hid, cell)
        if not np.all(np.isfinite(out["h"][alive])):
            raise NumericOverflowError("motion model produced non-finite activations")
        hid, cell, dist = out["h"], out["c"], out["probs"]

    # Best overlap per lookahead frame, over branches that bridged the gap.
    # The current frame's term (f = 0) also decides the overlap rejection.
    iou_scores = np.zeros(branches)
    at_current = np.zeros(branches)
    full = steps_done == total_steps
    if full.any():
        for f, dets in enumerate(det_arrays):
            if dets.shape[0] == 0:
                continue
            overlap = iou_matrix(path[full, gap - 1 + f], dets).max(axis=1)
            iou_scores[full] += overlap
            if f == 0:
                at_current[full] = overlap
    no_overlap = full & (at_current < params.iou_threshold)

    steps_before_scoring = tracklet.state.steps_consumed + gap - 1
    candidates = []
    for s in range(branches):
        if not full[s]:
            reason = "degenerate box"
        elif no_overlap[s]:
            reason = "no overlap at current frame"
        else:
            reason = ""
        candidates.append(InpaintCandidate(
            branch_index=s,
            gap=gap,
            path=path[s, : steps_done[s]],
            state_at_scoring=RecurrentState(
                hidden=snap[0][s], cell=snap[1][s], steps_consumed=steps_before_scoring
            ),
            dist_at_scoring=snap[2][s],
            origin=snap[3][s],
            sample_log_likelihood=float(log_lik[s]),
            iou_score=float(iou_scores[s]),
            rejected=bool(reason),
            rejection_reason=reason,
        ))
    return candidates


def inpaint(
    tracklet: Tracklet,
    gap: int,
    lookahead,
    params: InpaintParams,
    weights: ModelWeights,
    codebook: Codebook,
    frame: FrameGeometry,
    rng: np.random.Generator,
) -> InpaintCandidate | None:
    """Best surviving continuation of a gapped tracklet, or None if all reject.

    Survivors are ranked by summed best-IOU over the lookahead window; ties go
    to the higher accumulated sample log-likelihood, then the lower branch
    index. The tracklet itself is never modified; committing the winner is the
    caller's decision.
    """
    candidates = sample_candidates(tracklet, gap, lookahead, params, weights, codebook, frame, rng)
    survivors = [c for c in candidates if not c.rejected]
    if not survivors:
        return None
    return max(survivors, key=lambda c: (c.iou_score, c.sample_log_likelihood, -c.branch_index))


def reattach(
    tracklet: Tracklet,
    candidate: InpaintCandidate,
    detection: BoundingBox,
    frame_index: int,
    frame: FrameGeometry,
    weights: ModelWeights,
) -> Tracklet:
    """Commit a winning branch: inpainted gap boxes, then the matched detection.

    The candidate's own box at the current frame is discarded in favor of the
    detection; the lookahead boxes were only used for selection and are never
    committed.
    """
    first_gap_frame = frame_index - candidate.gap + 1
    for offset in range(candidate.gap - 1):
        tracklet.boxes.append(
            TrackletBox(first_gap_frame + offset, candidate.boxes[offset], SOURCE_INPAINTED)
        )
    tracklet.state = candidate.state_at_scoring
    tracklet.dist = candidate.dist_at_scoring
    return advance(tracklet, detection, frame_index, frame, SOURCE_DETECTED, weights)
