"""Online tracker: per-frame two-pass assignment with gap bridging.

Each frame, tracklets seen on the previous frame compete for detections
through the motion model's likelihood (pass 1). Tracklets that lost their
object earlier get a second chance: sampled continuations bridge the gap,
and the surviving branch competes for the still-unassigned detections
(pass 2). Each pass scores all of its tracklet-detection pairs in one
``score_detection`` call and gates the resulting cost matrix before the
assignment. Pass 2 samples the branches of every gapped tracklet as one
batch, each tracklet from its own stream keyed by its ID and the frame, and
skips tracklets that cannot reach any current detection (see
:mod:`gaptrack.scoring`). Every match of both passes then advances in one
model step. New detections open tentative tracklets from the shared cold
start, with no model call, and must be matched again before they count;
confirmed tracklets survive a configurable number of missed frames before
termination.

``process_frame`` is the online step and only reports commits on the current
frame. ``run_sequence`` replays a whole sequence and assembles the final
per-frame output retroactively, so confirmed tracklets contribute their
pre-confirmation boxes and bridged gap boxes, while tentative tracklets that
never confirmed leave no trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assignment import FORBIDDEN, solve
from .codebook import Codebook
from .errors import SequencingError
from .geometry import BoundingBox, FrameGeometry, boxes_to_array
from .motion_model import ModelWeights, RecurrentState
from .scoring import (
    SOURCE_DETECTED,
    STATUS_ACTIVE,
    STATUS_GAPPED,
    STATUS_TENTATIVE,
    STATUS_TERMINATED,
    InpaintParams,
    Tracklet,
    advance,
    cold_start,
    inpaint,
    new_tracklet,
    reattach,
    score_detection,
)


@dataclass(frozen=True)
class TrackerConfig:
    """Assignment and lifecycle knobs.

    The gate is the maximum negative log-likelihood an assignment may cost:
    ``gate_factor * 4 * ln(k)`` for a k-way codebook. A factor below 1 sits
    under the uniform-distribution cost, and a fresh tracklet's predictions
    start close to uniform, so a sub-uniform gate would starve every birth
    of its confirmation match; factors around 2 keep fresh tracklets alive.

    The termination patience is short: synthetic detection dropout is
    independent per frame, so a lost object is usually re-detected (and
    re-tracked under a new identity) within a frame or two. An old tracklet
    kept alive for tens of frames eventually steals one detection from its
    replacement and commits a long bridge of boxes duplicating coverage the
    replacement already provided. Real occlusions are contiguous; sequences
    with long ones call for a longer patience (60 frames is two seconds at
    30 fps).
    """

    gate_factor: float = 2.0
    birth_confirmation: int = 2
    termination_gap: int = 10
    min_detection_confidence: float = 0.0  # unbounded: detector scores need not lie in [0, 1]
    emit_inpainted: bool = True
    inpaint: InpaintParams = field(default_factory=InpaintParams)

    def __post_init__(self):
        if not self.gate_factor > 0.0:
            raise ValueError(f"gate_factor must be > 0, got {self.gate_factor}")
        if self.birth_confirmation < 1:
            raise ValueError(f"birth_confirmation must be >= 1, got {self.birth_confirmation}")
        if self.termination_gap < 1:
            raise ValueError(f"termination_gap must be >= 1, got {self.termination_gap}")


@dataclass(frozen=True)
class FrameResult:
    """Online outcome of one frame.

    ``committed`` holds ``(tracklet_id, box, source)`` for confirmed tracklets
    on this frame, id-ascending. ``born`` lists tracklets opened on this frame
    (still tentative; they may be discarded later). ``terminated`` lists
    confirmed tracklets dropped this frame for exceeding the allowed gap;
    discarded tentatives are not announced.
    """

    frame: int
    committed: tuple[tuple[int, BoundingBox, str], ...]
    born: tuple[int, ...] = ()
    terminated: tuple[int, ...] = ()


@dataclass
class TrackerState:
    weights: ModelWeights
    codebook: Codebook
    frame: FrameGeometry
    config: TrackerConfig
    gate: float
    t_trs: int
    cold_start: tuple[RecurrentState, np.ndarray]
    tracklets: list[Tracklet] = field(default_factory=list)
    finished: list[Tracklet] = field(default_factory=list)
    next_id: int = 1
    last_frame_index: int | None = None


def make_state(
    weights: ModelWeights,
    codebook: Codebook,
    frame: FrameGeometry,
    config: TrackerConfig | None = None,
    frame_rate: float = 30.0,
) -> TrackerState:
    config = config or TrackerConfig()
    gate = config.gate_factor * 4.0 * math.log(codebook.k)
    return TrackerState(
        weights=weights,
        codebook=codebook,
        frame=frame,
        config=config,
        gate=gate,
        t_trs=config.inpaint.lookahead_frames(frame_rate),
        cold_start=cold_start(weights),
    )


def _detection_boxes(detections, min_confidence: float) -> list[BoundingBox]:
    boxes = []
    for det in detections:
        if isinstance(det, BoundingBox):
            boxes.append(det)
        elif det.confidence >= min_confidence:
            boxes.append(det.box)
    return boxes


def _gated(log_lik: np.ndarray, gate: float) -> np.ndarray:
    """Costs (negative log-likelihoods) with every pair above the gate forbidden."""
    cost = -log_lik
    return np.where(cost <= gate, cost, FORBIDDEN)


def process_frame(
    state: TrackerState,
    frame_index: int,
    detections,
    future_detections=(),
) -> FrameResult:
    """Advance the tracker by one frame and return the online commits.

    ``detections`` may be bare boxes or objects carrying ``box`` and
    ``confidence`` (low-confidence ones are dropped). ``future_detections``
    is an optional list of detection collections for the frames immediately
    after this one; gap bridging uses them to rank sampled continuations and
    works with whatever prefix of the lookahead window is available.
    """
    if state.last_frame_index is not None and frame_index != state.last_frame_index + 1:
        raise SequencingError(
            f"process_frame expects frame {state.last_frame_index + 1}, got {frame_index}"
        )
    config = state.config
    boxes = _detection_boxes(detections, config.min_detection_confidence)
    det_array = boxes_to_array(boxes)

    committed: list[tuple[int, BoundingBox, str]] = []
    moves: list[tuple[Tracklet, BoundingBox]] = []
    matched_dets: set[int] = set()

    # Pass 1: tracklets that were present on the previous frame.
    live = [t for t in state.tracklets if t.status in (STATUS_TENTATIVE, STATUS_ACTIVE)]
    if live and boxes:
        log_lik = score_detection(
            np.stack([t.last_box.box.as_array() for t in live]),
            np.stack([t.dist for t in live]),
            det_array, state.frame, state.codebook,
        )
        for i, j in solve(_gated(log_lik, state.gate)):
            tracklet = live[i]
            moves.append((tracklet, boxes[j]))
            tracklet.hits += 1
            tracklet.gap_length = 0
            if tracklet.status == STATUS_TENTATIVE and tracklet.hits >= config.birth_confirmation:
                tracklet.status = STATUS_ACTIVE
            if tracklet.status == STATUS_ACTIVE:
                committed.append((tracklet.tracklet_id, boxes[j], SOURCE_DETECTED))
            matched_dets.add(j)

    # Pass 2: gapped tracklets bid for the leftovers through sampled bridges.
    gapped = [t for t in state.tracklets if t.status == STATUS_GAPPED]
    remaining = [j for j in range(len(boxes)) if j not in matched_dets]
    if gapped and remaining and config.inpaint.num_samples > 0:
        lookahead = [
            det_array,
            *(boxes_to_array(_detection_boxes(f, config.min_detection_confidence))
              for f in future_detections),
        ]
        winners = inpaint(
            gapped, [frame_index - t.last_frame for t in gapped], lookahead, config.inpaint,
            state.weights, state.codebook, state.frame, frame_index,
        )
        bidders = [(t, cand) for t, cand in zip(gapped, winners) if cand is not None]
        if bidders:
            log_lik = score_detection(
                np.stack([cand.origin for _, cand in bidders]),
                np.stack([cand.dist_at_scoring for _, cand in bidders]),
                det_array[remaining], state.frame, state.codebook,
            )
            for i, j in solve(_gated(log_lik, state.gate)):
                tracklet, candidate = bidders[i]
                det = boxes[remaining[j]]
                reattach(tracklet, candidate)
                moves.append((tracklet, det))
                tracklet.status = STATUS_ACTIVE
                tracklet.hits += 1
                tracklet.gap_length = 0
                committed.append((tracklet.tracklet_id, det, SOURCE_DETECTED))
                matched_dets.add(remaining[j])

    # Every match of both passes consumes its detection in one model step.
    # Rows go in tracklet-ID order, so the batch layout does not depend on
    # which pass matched whom.
    moves.sort(key=lambda move: move[0].tracklet_id)
    advance([t for t, _ in moves], [box for _, box in moves], frame_index, state.frame, state.weights)
    matched_tracklets = {id(t) for t, _ in moves}

    # Lifecycle for everyone who went unmatched.
    survivors = []
    terminated = []
    for tracklet in state.tracklets:
        if id(tracklet) in matched_tracklets:
            survivors.append(tracklet)
            continue
        if tracklet.status == STATUS_TENTATIVE:
            continue  # one missed frame kills an unconfirmed tracklet
        if tracklet.status == STATUS_ACTIVE:
            tracklet.status = STATUS_GAPPED
            tracklet.gap_length = 1
            survivors.append(tracklet)
            continue
        tracklet.gap_length += 1
        if tracklet.gap_length > config.termination_gap:
            tracklet.status = STATUS_TERMINATED
            state.finished.append(tracklet)
            terminated.append(tracklet.tracklet_id)
        else:
            survivors.append(tracklet)
    state.tracklets = survivors

    # Births: whatever no tracklet claimed opens a tentative tracklet.
    born = []
    for j in range(len(boxes)):
        if j in matched_dets:
            continue
        tracklet = new_tracklet(state.next_id, frame_index, boxes[j], state.cold_start)
        state.next_id += 1
        if config.birth_confirmation <= 1:
            tracklet.status = STATUS_ACTIVE
            committed.append((tracklet.tracklet_id, boxes[j], SOURCE_DETECTED))
        state.tracklets.append(tracklet)
        born.append(tracklet.tracklet_id)

    state.last_frame_index = frame_index
    return FrameResult(
        frame=frame_index,
        committed=tuple(sorted(committed, key=lambda row: row[0])),
        born=tuple(born),
        terminated=tuple(terminated),
    )


@dataclass
class SequenceResult:
    """Full-sequence output: retroactive per-frame results plus the tracklets.

    ``frame_results`` is the final emission (confirmed tracklets only, gap
    boxes included unless the config says otherwise); ``online_results`` is
    what ``process_frame`` reported as the frames streamed by.
    """

    frame_results: list[FrameResult]
    online_results: list[FrameResult]
    tracklets: list[Tracklet]


def run_sequence(detections, meta, weights, codebook, config: TrackerConfig | None = None) -> SequenceResult:
    """Track a whole detection set against its sequence metadata.

    Frames run from 1 to the sequence length (or the last detected frame if
    later); empty frames still advance tracklet lifecycles. The final
    emission is assembled from tracklet histories after the run, so early
    boxes of eventually-confirmed tracklets appear and unconfirmed ones
    vanish.
    """
    config = config or TrackerConfig()
    state = make_state(weights, codebook, meta.geometry, config, frame_rate=meta.frame_rate)

    by_frame: dict[int, list] = {}
    last_frame = meta.length
    for det in detections:
        by_frame.setdefault(det.frame, []).append(det)
        last_frame = max(last_frame, det.frame)

    online = []
    for frame_index in range(1, last_frame + 1):
        future = [
            by_frame.get(frame_index + offset, [])
            for offset in range(1, state.t_trs + 1)
            if frame_index + offset <= last_frame
        ]
        online.append(
            process_frame(state, frame_index, by_frame.get(frame_index, []), future)
        )

    tracklets = sorted(
        (t for t in state.tracklets + state.finished if t.status != STATUS_TENTATIVE),
        key=lambda t: t.tracklet_id,
    )
    per_frame: dict[int, list[tuple[int, BoundingBox, str]]] = {}
    first_frame: dict[int, int] = {}
    final_frame: dict[int, int] = {}
    for tracklet in tracklets:
        emitted = [
            tb for tb in tracklet.boxes
            if config.emit_inpainted or tb.source == SOURCE_DETECTED
        ]
        if not emitted:
            continue
        first_frame[tracklet.tracklet_id] = emitted[0].frame
        final_frame[tracklet.tracklet_id] = emitted[-1].frame
        for tb in emitted:
            per_frame.setdefault(tb.frame, []).append((tracklet.tracklet_id, tb.box, tb.source))

    frame_results = []
    for frame_index in range(1, last_frame + 1):
        rows = sorted(per_frame.get(frame_index, []), key=lambda row: row[0])
        born = tuple(tid for tid, start in first_frame.items() if start == frame_index)
        ended = tuple(tid for tid, stop in final_frame.items() if stop == frame_index - 1)
        frame_results.append(
            FrameResult(frame=frame_index, committed=tuple(rows), born=born, terminated=ended)
        )
    return SequenceResult(frame_results=frame_results, online_results=online, tracklets=tracklets)
