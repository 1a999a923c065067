"""Online tracker: per-frame two-pass assignment with gap bridging.

Each frame, tracklets seen on the previous frame compete for detections
through the motion model's likelihood (pass 1). Tracklets that lost their
object earlier get a second chance: sampled continuations bridge the gap,
and the surviving branch competes for the still-unassigned detections
(pass 2). Both passes bid through one routine, ``_assign``, which scores all
of a pass's tracklet-detection pairs in one ``score_detection`` call, gates
the resulting cost matrix and solves the assignment; its matches join one
list of (tracklet, detection) pairs. Pass 2 samples the branches of every
gapped tracklet as one batch, each tracklet from its own stream keyed by its
ID and the first frame of its gap, and skips tracklets that cannot reach any
current detection (see :mod:`gaptrack.scoring`). A gapped tracklet keeps its
branches from frame to frame of its gap, so each frame extends them by one
step; the store is dropped when the tracklet is reattached or terminated,
and at the end of :func:`run_sequence`. Every match of both passes then
advances in one model step. New detections open tentative tracklets from
the shared cold start, with no model call, and must be matched again before
they count: a tentative tracklet confirms once it holds
``birth_confirmation`` boxes and dies at its first missed frame. A confirmed
tracklet's gap on frame ``f`` is ``f`` minus its last frame, and it is
terminated once that exceeds ``termination_gap``. No status is kept beside
the boxes: a tracklet's pass, gap and confirmation are all read from them.

Boxes are (x, y, w, h) array rows: ``run_sequence`` groups the detection
records into one (M, 4) array per frame, and :class:`BoundingBox` records
appear again only where results leave, in :attr:`FrameResult.committed`.

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
from .geometry import BoundingBox, FrameGeometry
from .motion_model import ModelWeights, RecurrentState
from .scoring import (
    SOURCE_DETECTED,
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
        if math.isnan(self.min_detection_confidence):
            # no score compares >= NaN, so every detection would be dropped
            raise ValueError("min_detection_confidence must not be NaN")


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
    *,
    frame_rate: float,
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


def _assign(
    origins: np.ndarray, dists: np.ndarray, dets: np.ndarray, state: TrackerState
) -> list[tuple[int, int]]:
    """Score every bidder-detection pair, forbid those above the gate, and solve.

    Both passes bid through here: ``origins`` (N, 4) and ``dists`` (N, 4, K)
    describe the bidders, ``dets`` (M, 4) the detections they compete for.
    Returns the matched (bidder row, detection row) pairs.
    """
    cost = -score_detection(origins, dists, dets, state.frame, state.codebook)
    return solve(np.where(cost <= state.gate, cost, FORBIDDEN))


def process_frame(
    state: TrackerState,
    frame_index: int,
    detections: np.ndarray,
    future_detections=(),
) -> FrameResult:
    """Advance the tracker by one frame and return the online commits.

    ``detections`` is the frame's (M, 4) array of (x, y, w, h) rows, already
    filtered by confidence; the tracklets keep its rows as their boxes.
    ``future_detections`` is an optional list of such arrays for the frames
    immediately after this one; gap bridging uses them to rank sampled
    continuations and works with whatever prefix of the lookahead window is
    available.
    """
    if state.last_frame_index is not None and frame_index != state.last_frame_index + 1:
        raise SequencingError(
            f"process_frame expects frame {state.last_frame_index + 1}, got {frame_index}"
        )
    config = state.config
    matches: list[tuple[Tracklet, int]] = []  # (tracklet, detection index), both passes

    # Pass 1: tracklets that were present on the previous frame.
    live = [t for t in state.tracklets if t.last_frame == frame_index - 1]
    if live and len(detections):
        origins = np.stack([t.last_box.box for t in live])
        pairs = _assign(origins, np.stack([t.dist for t in live]), detections, state)
        matches = [(live[i], j) for i, j in pairs]

    # Pass 2: gapped tracklets bid for the leftovers through sampled bridges.
    gapped = [t for t in state.tracklets if t.last_frame != frame_index - 1]
    claimed = {j for _, j in matches}
    remaining = [j for j in range(len(detections)) if j not in claimed]
    if gapped and remaining and config.inpaint.num_samples > 0:
        winners = inpaint(
            gapped, [detections, *future_detections],
            config.inpaint, state.weights, state.codebook, state.frame, frame_index,
        )
        bidders = [(t, cand) for t, cand in zip(gapped, winners) if cand is not None]
        if bidders:
            origins = np.stack([cand.origin for _, cand in bidders])
            dists = np.stack([cand.dist_at_scoring for _, cand in bidders])
            for i, j in _assign(origins, dists, detections[remaining], state):
                tracklet, candidate = bidders[i]
                reattach(tracklet, candidate)
                matches.append((tracklet, remaining[j]))

    # Every match of both passes consumes its detection in one model step.
    # Rows go in tracklet-ID order, so the batch layout does not depend on
    # which pass matched whom.
    matches.sort(key=lambda match: match[0].tracklet_id)
    advance([t for t, _ in matches], detections[[j for _, j in matches]], state.frame, state.weights)

    # Births: whatever no tracklet claimed opens a tentative tracklet.
    claimed.update(j for _, j in matches)
    born = []
    for j in range(len(detections)):
        if j not in claimed:
            state.tracklets.append(new_tracklet(state.next_id, frame_index, detections[j], state.cold_start))
            born.append(state.next_id)
            state.next_id += 1

    # Lifecycle. Tracklets run in ID order, and those holding a box on this
    # frame are the matches of either pass and the births.
    committed: list[tuple[int, BoundingBox, str]] = []
    survivors = []
    terminated = []
    for tracklet in state.tracklets:
        confirmed = len(tracklet.boxes) >= config.birth_confirmation
        if tracklet.last_frame == frame_index:
            if confirmed:
                box = BoundingBox(*tracklet.last_box.box.tolist())
                committed.append((tracklet.tracklet_id, box, SOURCE_DETECTED))
            survivors.append(tracklet)
        elif not confirmed:
            continue  # one missed frame kills an unconfirmed tracklet
        elif frame_index - tracklet.last_frame > config.termination_gap:
            tracklet.branch_store = None
            state.finished.append(tracklet)
            terminated.append(tracklet.tracklet_id)
        else:
            survivors.append(tracklet)
    state.tracklets = survivors

    state.last_frame_index = frame_index
    return FrameResult(
        frame=frame_index, committed=tuple(committed), born=tuple(born), terminated=tuple(terminated)
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


def _frame_records(detections, min_confidence: float) -> dict[int, list[BoundingBox]]:
    """The boxes of ``detections`` with ``confidence >= min_confidence``, by frame, in input order."""
    records: dict[int, list[BoundingBox]] = {}
    for det in detections:
        if det.confidence >= min_confidence:
            records.setdefault(det.frame, []).append(det.box)
    return records


def _rows(boxes) -> np.ndarray:
    """The (M, 4) array of the boxes' (x, y, w, h) rows, (0, 4) for none."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def detection_arrays(detections, min_confidence: float) -> dict[int, np.ndarray]:
    """Each frame's detection boxes with ``confidence >= min_confidence``, as one (M, 4) array.

    Rows keep the order of ``detections``; frames left without a box are absent.
    """
    return {frame: _rows(boxes) for frame, boxes in _frame_records(detections, min_confidence).items()}


def run_sequence(detections, meta, weights, codebook, config: TrackerConfig | None = None) -> SequenceResult:
    """Track a whole detection set against its sequence metadata.

    ``detections`` are records carrying ``frame``, ``box`` and
    ``confidence``. This is where they become arrays: each frame's boxes
    that pass ``min_detection_confidence`` are grouped into one (M, 4) array
    (:func:`detection_arrays`), which that frame and the lookahead of the
    frames before it share. Frames run from 1 to the sequence length (or the
    last detected frame if later); empty frames still advance tracklet
    lifecycles. The final emission is assembled from tracklet histories
    after the run, so early boxes of eventually-confirmed tracklets appear
    and unconfirmed ones vanish; its detected boxes are the input's own
    ``box`` records, and only its inpainted boxes are new records.
    """
    config = config or TrackerConfig()
    state = make_state(weights, codebook, meta.geometry, config, frame_rate=meta.frame_rate)
    last_frame = max([meta.length, *(det.frame for det in detections)])
    records = _frame_records(detections, config.min_detection_confidence)
    frames = [_rows(records.get(f, ())) for f in range(1, last_frame + 1)]

    online = []
    for frame_index, current in enumerate(frames, start=1):
        online.append(
            process_frame(state, frame_index, current, frames[frame_index : frame_index + state.t_trs])
        )

    for tracklet in state.tracklets:
        tracklet.branch_store = None
    tracklets = sorted(
        (t for t in state.tracklets + state.finished if len(t.boxes) >= config.birth_confirmation),
        key=lambda t: t.tracklet_id,
    )
    # A detected box leaves as the input record its row was read from, found
    # by value, so the output shares the input's records (and memory).
    record_of = {f: {(b.x, b.y, b.w, b.h): b for b in boxes} for f, boxes in records.items()}
    # Tracklets run in ID order, so every list below is ID-ascending. Each
    # holds its detected birth box, so ``emitted`` is never empty.
    per_frame: dict[int, list[tuple[int, BoundingBox, str]]] = {}
    born: dict[int, list[int]] = {}
    ended: dict[int, list[int]] = {}
    for tracklet in tracklets:
        emitted = [
            tb for tb in tracklet.boxes
            if config.emit_inpainted or tb.source == SOURCE_DETECTED
        ]
        born.setdefault(emitted[0].frame, []).append(tracklet.tracklet_id)
        ended.setdefault(emitted[-1].frame + 1, []).append(tracklet.tracklet_id)
        for tb in emitted:
            row = tb.box.tolist()
            box = record_of[tb.frame][tuple(row)] if tb.source == SOURCE_DETECTED else BoundingBox(*row)
            per_frame.setdefault(tb.frame, []).append((tracklet.tracklet_id, box, tb.source))

    frame_results = [
        FrameResult(
            frame=frame_index,
            committed=tuple(per_frame.get(frame_index, ())),
            born=tuple(born.get(frame_index, ())),
            terminated=tuple(ended.get(frame_index, ())),
        )
        for frame_index in range(1, last_frame + 1)
    ]
    return SequenceResult(frame_results=frame_results, online_results=online, tracklets=tracklets)
