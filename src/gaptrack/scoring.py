"""Tracklet state, detection scoring, and gap inpainting.

A tracklet carries, besides its committed boxes, the recurrent state of the
motion model after consuming its velocity history and the model's predictive
distribution for the next step. Every tracklet is born from one shared
:func:`cold_start`, and :func:`advance` moves any number of tracklets one
frame with a single model step. Scoring is then a pure lookup, done for a
whole assignment pass at once: ``score_detection`` takes every bidder's
origin box and distribution plus every detection, builds one velocity tensor,
quantizes it in one call and sums the gathered component log-probabilities
into an (N, M) matrix.

When tracklets have unobserved frames, ``inpaint`` bridges their gaps by
sampling many candidate continuations of every gapped tracklet as one
stacked model batch, rejecting those whose box at the current frame fails to
overlap any detection, and ranking each tracklet's survivors by the summed
best IOU against detections over the current frame plus a short lookahead
window. A winner supplies the missing boxes and the state from which the
current detections are scored.

Sampling is reproducible per tracklet: tracklet ``t`` on frame ``f`` draws
all its uniforms from its own stream, ``SeedSequence(seed, spawn_key=(t, f))``,
so its branches do not depend on which other tracklets are gapped or on
their order. That also makes an exact prune safe: a tracklet whose reachable
extent (its last box moved ``gap`` steps by the codebook's extreme centroids)
meets no current-frame detection would have every branch rejected, so it is
not sampled at all, and skipping it moves no other tracklet's stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codebook import Codebook, decode, quantize
from .errors import NumericOverflowError, SequencingError
from .geometry import BoundingBox, FrameGeometry, apply_velocity, boxes_to_array, iou_matrix, velocity
from .motion_model import (
    ModelWeights,
    RecurrentState,
    cell_forward,
    init_state,
    inverse_cdf,
    log_likelihood,
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
    """Knobs of the gap-bridging sampler.

    ``seed`` is the root of the sampling streams: tracklet ``t`` on frame
    ``f`` draws its uniforms from ``SeedSequence(seed, spawn_key=(t, f))``,
    whatever else is sampled on that frame.
    """

    num_samples: int = 30
    t_trs: int | None = None  # None: derive from the sequence frame rate
    iou_threshold: float = 0.5
    sampling: str = SAMPLING_MULTINOMIAL
    seed: int = 0

    def __post_init__(self):
        if self.sampling not in (SAMPLING_MULTINOMIAL, SAMPLING_TOP1):
            raise ValueError(
                f"sampling must be {SAMPLING_MULTINOMIAL!r} or {SAMPLING_TOP1!r}, got {self.sampling!r}"
            )
        if self.num_samples < 0:
            raise ValueError(f"num_samples must be >= 0, got {self.num_samples}")
        if self.t_trs is not None and self.t_trs < 0:
            raise ValueError(f"t_trs must be >= 0 or null, got {self.t_trs}")
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold must lie in [0, 1], got {self.iou_threshold}")

    def lookahead_frames(self, frame_rate: float) -> int:
        """``t_trs`` when set (0 means no lookahead), else the frame rate's default."""
        return t_trs_for_frame_rate(frame_rate) if self.t_trs is None else self.t_trs


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


def cold_start(weights: ModelWeights) -> tuple[RecurrentState, np.ndarray]:
    """State and distribution every new tracklet starts from.

    A single box has no velocity yet, so the predictive distribution is
    obtained by feeding a zero velocity to the zero state as a seed token;
    training prepends the same token, keeping cold-start scores calibrated.
    Every birth shares the returned arrays, so they are read-only: a later
    step replaces a tracklet's state and never writes into it.
    """
    zero = init_state(weights)
    hidden, cell, probs = step(weights, zero.hidden[None], zero.cell[None], np.zeros((1, 4)))
    for arr in (hidden, cell, probs):
        arr.flags.writeable = False
    return RecurrentState(hidden=hidden[0], cell=cell[0], steps_consumed=1), probs[0]


def new_tracklet(
    tracklet_id: int, frame_index: int, box: BoundingBox, start: tuple[RecurrentState, np.ndarray]
) -> Tracklet:
    """Start a tracklet from a single detection and the shared :func:`cold_start`."""
    state, dist = start
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
    tracklets: list[Tracklet],
    boxes: list[BoundingBox],
    frame_index: int,
    frame: FrameGeometry,
    weights: ModelWeights,
) -> None:
    """Append each tracklet's detection on ``frame_index``; one model step feeds every velocity."""
    if len(tracklets) != len(boxes):
        raise ValueError(f"advance got {len(tracklets)} tracklets but {len(boxes)} boxes")
    if not tracklets:
        return
    for tracklet in tracklets:
        if frame_index != tracklet.last_frame + 1:
            raise SequencingError(
                f"advance expects frame {tracklet.last_frame + 1}, got {frame_index}"
            )
    origins = np.stack([t.last_box.box.as_array() for t in tracklets])
    hidden, cell, probs = step(
        weights,
        np.stack([t.state.hidden for t in tracklets]),
        np.stack([t.state.cell for t in tracklets]),
        velocity(origins, boxes_to_array(boxes), frame),
    )
    for i, (tracklet, box) in enumerate(zip(tracklets, boxes)):
        tracklet.state = RecurrentState(
            hidden=hidden[i], cell=cell[i], steps_consumed=tracklet.state.steps_consumed + 1
        )
        tracklet.dist = probs[i]
        tracklet.boxes.append(TrackletBox(frame_index, box, SOURCE_DETECTED))


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

    tracklet_id: int
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


def _as_box_array(boxes) -> np.ndarray:
    if isinstance(boxes, np.ndarray):
        return np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    if len(boxes) == 0:
        return np.zeros((0, 4))
    return np.stack([b.as_array() if isinstance(b, BoundingBox) else np.asarray(b, dtype=np.float64) for b in boxes])


def branch_uniforms(seed: int, tracklet_id: int, frame_index: int, steps: int, branches: int) -> np.ndarray:
    """The (steps, branches, 4) uniforms a tracklet's branches draw on one frame.

    Each (tracklet, frame) pair has its own stream, spawned from ``seed``, so
    the draws do not depend on which other tracklets are sampled alongside.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(tracklet_id, frame_index))
    return np.random.default_rng(seq).random((steps, branches, 4))


def reachable_extent(last: np.ndarray, gaps: np.ndarray, codebook: Codebook, frame: FrameGeometry) -> np.ndarray:
    """(N, 4) rectangle (x1, y1, x2, y2) holding every box ``gaps`` sampled steps from ``last``.

    Each step adds one centroid per component, so after g steps a component
    lies within ``last + g * [c_min, c_max] * scale``; the rectangle spans the
    lowest left/top edges to the highest right/bottom edges that allows.
    Summing the steps rounds, so callers compare against it with a tolerance.
    """
    g = np.asarray(gaps, dtype=np.float64)[:, None]
    lo = last + g * codebook.centroids[:, 0] * frame.scale
    hi = last + g * codebook.centroids[:, -1] * frame.scale
    return np.column_stack([lo[:, 0], lo[:, 1], hi[:, 0] + hi[:, 2], hi[:, 1] + hi[:, 3]])


# Pixel slack around a reachable extent; summed steps round far below it.
REACH_TOLERANCE = 1e-6


def _reaches_any(extent: np.ndarray, dets: np.ndarray) -> np.ndarray:
    """Per extent row, whether it overlaps some detection with positive area (with slack)."""
    x1, y1 = extent[:, None, 0] - REACH_TOLERANCE, extent[:, None, 1] - REACH_TOLERANCE
    x2, y2 = extent[:, None, 2] + REACH_TOLERANCE, extent[:, None, 3] + REACH_TOLERANCE
    ix = np.minimum(x2, dets[:, 0] + dets[:, 2]) - np.maximum(x1, dets[:, 0])
    iy = np.minimum(y2, dets[:, 1] + dets[:, 3]) - np.maximum(y1, dets[:, 1])
    return np.any((ix > 0.0) & (iy > 0.0), axis=1)


def sample_candidates(
    tracklets: list[Tracklet],
    gaps,
    lookahead,
    params: InpaintParams,
    weights: ModelWeights,
    codebook: Codebook,
    frame: FrameGeometry,
    frame_index: int,
) -> list[InpaintCandidate]:
    """Sample every branch of every tracklet's gap-bridging search, rejected ones included.

    ``gaps[i]`` is how many frames tracklet ``i`` must move to reach the
    current frame ``frame_index``. ``lookahead`` is a list of per-frame
    detection collections (boxes or (M, 4) arrays) for the current frame and
    up to ``t_trs`` frames beyond it (shorter near the sequence end). Each
    branch autoregressively samples ``gap + len(lookahead) - 1`` velocities,
    decoding each sampled cluster quadruple to its centroids. A branch is
    rejected if its box at the current frame overlaps no detection there at
    ``iou_threshold``, or if a sampled step degenerates the box.

    With a positive ``iou_threshold``, a tracklet whose
    :func:`reachable_extent` meets no current-frame detection is skipped: all
    its branches would be rejected. The rest are laid out by step count
    descending, then tracklet ID, so each step runs one model call on a
    prefix of the stacked branches. Returns one flat list in that order,
    each tracklet's branches by index.
    """
    if len(gaps) != len(tracklets):
        raise ValueError(f"got {len(tracklets)} tracklets but {len(gaps)} gaps")
    if any(g < 1 for g in gaps):
        raise SequencingError(f"inpaint needs gaps of at least 1 frame, got {min(gaps)}")
    if len(lookahead) < 1:
        raise ValueError("lookahead must include the current frame's detections")
    ids = [t.tracklet_id for t in tracklets]
    if len(set(ids)) != len(ids):
        raise ValueError("inpaint needs distinct tracklet IDs")
    det_arrays = [_as_box_array(dets) for dets in lookahead]
    extra = len(det_arrays) - 1
    greedy = params.sampling == SAMPLING_TOP1
    branches = 1 if greedy else params.num_samples
    if branches == 0 or not tracklets:
        return []

    keep = range(len(tracklets))
    if params.iou_threshold > 0.0:
        last = np.stack([t.last_box.box.as_array() for t in tracklets])
        extent = reachable_extent(last, np.asarray(gaps), codebook, frame)
        keep = np.flatnonzero(_reaches_any(extent, det_arrays[0]))
    order = sorted(keep, key=lambda i: (-gaps[i], ids[i]))
    if not order:
        return []
    chosen = [tracklets[i] for i in order]
    gap = np.array([gaps[i] for i in order])
    steps = gap + extra

    # Rows of one tracklet are contiguous and the rows still running at step
    # s are a prefix [:running[s]]. A branch whose box degenerates is frozen
    # in place but keeps its row, so branch indices stay stable.
    rows = branches * len(chosen)
    row_gap = np.repeat(gap, branches)
    running = branches * np.count_nonzero(steps[None, :] > np.arange(steps[0] + 1)[:, None], axis=1)
    hid = np.repeat(np.stack([t.state.hidden for t in chosen]), branches, axis=0)
    cell = np.repeat(np.stack([t.state.cell for t in chosen]), branches, axis=0)
    dist = np.repeat(np.stack([t.dist for t in chosen]), branches, axis=0)
    last = np.repeat(np.stack([t.last_box.box.as_array() for t in chosen]), branches, axis=0)
    # Scoring snapshots start as the initial rows (right for gap 1). Only
    # ``last`` is updated in place; the other initial arrays are read at step
    # 0 alone, so later snapshots may overwrite them.
    snap_hid, snap_cell, snap_dist, snap_last = hid, cell, dist, last.copy()
    if not greedy:
        uniforms = np.zeros((steps[0], rows, 4))
        for b, tracklet in enumerate(chosen):
            uniforms[: steps[b], b * branches : (b + 1) * branches] = branch_uniforms(
                params.seed, tracklet.tracklet_id, frame_index, int(steps[b]), branches
            )
    path = np.zeros((rows, steps[0], 4))
    alive = np.ones(rows, dtype=bool)
    steps_done = np.zeros(rows, dtype=int)
    log_lik = np.zeros(rows)

    for s in range(steps[0]):
        m = running[s]
        snap = np.flatnonzero(row_gap[:m] == s + 1)
        if s > 0 and snap.size:
            snap_hid[snap], snap_cell[snap] = hid[snap], cell[snap]
            snap_dist[snap], snap_last[snap] = dist[snap], last[snap]
        quads = np.argmax(dist, axis=2) if greedy else inverse_cdf(dist, uniforms[s, :m])
        live = alive[:m]
        log_lik[:m][live] += log_likelihood(dist, quads)[live]
        vel = decode(quads, codebook)  # (m, 4) normalized velocities
        nxt = apply_velocity(last[:m], vel, frame)
        live &= (nxt[:, 2] > 0.0) & (nxt[:, 3] > 0.0)
        path[:m, s][live] = nxt[live]
        last[:m][live] = nxt[live]
        steps_done[:m][live] += 1
        m = running[s + 1]
        if not alive[:m].any():
            break
        out = cell_forward(weights, vel[:m], hid[:m], cell[:m])
        if not np.all(np.isfinite(out["h"][alive[:m]])):
            raise NumericOverflowError("motion model produced non-finite activations")
        hid, cell, dist = out["h"], out["c"], out["probs"]

    # Best overlap per lookahead frame, over branches that bridged their gap.
    # The current frame's term (f = 0) also decides the overlap rejection.
    iou_scores = np.zeros(rows)
    at_current = np.zeros(rows)
    bridged = steps_done == row_gap + extra
    full = np.flatnonzero(bridged)
    for f, dets in enumerate(det_arrays):
        if full.size == 0 or dets.shape[0] == 0:
            continue
        overlap = iou_matrix(path[full, row_gap[full] - 1 + f], dets).max(axis=1)
        iou_scores[full] += overlap
        if f == 0:
            at_current[full] = overlap
    no_overlap = bridged & (at_current < params.iou_threshold)

    candidates = []
    for r in range(rows):
        tracklet = chosen[r // branches]
        if not bridged[r]:
            reason = "degenerate box"
        elif no_overlap[r]:
            reason = "no overlap at current frame"
        else:
            reason = ""
        candidates.append(InpaintCandidate(
            tracklet_id=tracklet.tracklet_id,
            branch_index=r % branches,
            gap=int(row_gap[r]),
            path=path[r, : steps_done[r]],
            state_at_scoring=RecurrentState(
                hidden=snap_hid[r], cell=snap_cell[r],
                steps_consumed=tracklet.state.steps_consumed + int(row_gap[r]) - 1,
            ),
            dist_at_scoring=snap_dist[r],
            origin=snap_last[r],
            sample_log_likelihood=float(log_lik[r]),
            iou_score=float(iou_scores[r]),
            rejected=bool(reason),
            rejection_reason=reason,
        ))
    return candidates


def inpaint(
    tracklets: list[Tracklet],
    gaps,
    lookahead,
    params: InpaintParams,
    weights: ModelWeights,
    codebook: Codebook,
    frame: FrameGeometry,
    frame_index: int,
) -> list[InpaintCandidate | None]:
    """Each tracklet's best surviving continuation, or None where every branch rejects.

    Branches come from :func:`sample_candidates`. Survivors are ranked by
    summed best-IOU over the lookahead window; ties go to the higher
    accumulated sample log-likelihood, then the lower branch index. The
    result is aligned with ``tracklets``. No tracklet is modified;
    committing a winner is the caller's decision.
    """
    best: dict[int, InpaintCandidate] = {}
    for cand in sample_candidates(tracklets, gaps, lookahead, params, weights, codebook, frame, frame_index):
        if cand.rejected:
            continue
        held = best.get(cand.tracklet_id)
        if held is None or (cand.iou_score, cand.sample_log_likelihood) > (held.iou_score, held.sample_log_likelihood):
            best[cand.tracklet_id] = cand
    return [best.get(t.tracklet_id) for t in tracklets]


def reattach(tracklet: Tracklet, candidate: InpaintCandidate) -> Tracklet:
    """Commit a winning branch's inpainted gap boxes and its scoring state.

    The tracklet then stands on the frame before the current one, and
    :func:`advance` consumes the matched detection. The candidate's own box
    at the current frame and its lookahead boxes were only used for
    selection and are never committed.
    """
    if candidate.tracklet_id != tracklet.tracklet_id:
        raise ValueError(
            f"candidate of tracklet {candidate.tracklet_id} cannot reattach tracklet {tracklet.tracklet_id}"
        )
    first_gap_frame = tracklet.last_frame + 1
    for offset, box in enumerate(candidate.boxes[: candidate.gap - 1]):
        tracklet.boxes.append(TrackletBox(first_gap_frame + offset, box, SOURCE_INPAINTED))
    tracklet.state = candidate.state_at_scoring
    tracklet.dist = candidate.dist_at_scoring
    return tracklet
