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

A tracklet keeps no lifecycle state besides its boxes: its gap on a frame
is that frame minus its last frame, and ``advance`` lands each box on the
frame after the tracklet's last one.

When tracklets have unobserved frames, ``inpaint`` bridges their gaps by
sampling many candidate continuations of every gapped tracklet as one
stacked model batch, rejecting those whose box at the current frame fails to
overlap any detection, and ranking each tracklet's survivors by the summed
best IOU against detections over the current frame plus a short lookahead
window. A winner supplies the missing boxes and the state from which the
current detections are scored. The branches of one call form a
:class:`BranchTable`, one row of arrays per branch (tracklet, branch index,
gap, steps taken, rejection code, IOU score, log-likelihood, origin and
scoring state); one ``lexsort`` over it picks every tracklet's winner, and
only the winners become :class:`InpaintCandidate` objects.

Each branch is one trajectory per gap, as a particle filter carries its
samples: tracklet ``t`` whose gap began on frame ``g0`` (its first
unobserved frame) draws all its uniforms from its own stream,
``SeedSequence(seed, spawn_key=(t, g0))``, step ``s`` reading row ``s``.
A frame ``gap`` frames into the gap reads the first ``gap + lookahead``
steps of each branch. So a tracklet's branches do not depend on which other
tracklets are gapped or on their order, and the tracklet keeps them in a
:class:`BranchStore`: each frame extends the stored branches by the steps
they lack, one per branch on consecutive frames, so a gap of g frames costs
O(g) steps rather than O(g^2). The store keeps the gap's generator too,
so an extension draws only the rows of its new steps. The store is an
exact cache, holding the recurrent states of the last few steps only, and
is dropped when the gap closes. The per-tracklet streams also make an
exact prune safe: a tracklet whose reachable extent (its last box moved
``gap`` steps by the codebook's extreme centroids) meets no current-frame
detection would have every branch rejected, so it is not sampled at all,
and skipping it moves no other tracklet's stream.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .codebook import Codebook, decode, quantize
from .errors import NumericOverflowError, SequencingError
from .geometry import FrameGeometry, apply_velocity, box_iou, velocity
from .motion_model import (
    ModelWeights,
    RecurrentState,
    cell_forward,
    head_outputs,
    init_state,
    inverse_cdf,
    log_likelihood,
    step,
)

SOURCE_DETECTED = "detected"
SOURCE_INPAINTED = "inpainted"

SAMPLING_MULTINOMIAL = "multinomial"
SAMPLING_TOP1 = "top1"

# Frame rate at which the lookahead window grows from 2 to 3 frames.
T_TRS_FPS_CUTOFF = 25.0


def t_trs_for_frame_rate(frame_rate: float) -> int:
    """Lookahead length: 2 frames below 25 fps, 3 at or above."""
    return 2 if frame_rate < T_TRS_FPS_CUTOFF else 3


class TrackletBox(NamedTuple):
    frame: int
    box: np.ndarray  # (4,) row: x, y, w, h
    source: str


@dataclass(frozen=True)
class InpaintParams:
    """Knobs of the gap-bridging sampler.

    ``seed`` is the root of the sampling streams: tracklet ``t`` draws the
    uniforms of a gap that began on frame ``g0`` from
    ``SeedSequence(seed, spawn_key=(t, g0))``, whatever else is sampled, and
    every frame of that gap reads the same stream (see
    :func:`branch_uniforms`). ``num_samples`` 0 turns inpainting off under
    either sampling mode; top-1 samples one branch otherwise.
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
        if self.seed < 0:  # numpy seeds must be non-negative
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def lookahead_frames(self, frame_rate: float) -> int:
        """``t_trs`` when set (0 means no lookahead), else the frame rate's default."""
        return t_trs_for_frame_rate(frame_rate) if self.t_trs is None else self.t_trs


@dataclass(eq=False)
class Tracklet:
    """One tracked object: committed boxes plus cached model state.

    Its boxes and state hold arrays, so tracklets compare by identity.

    ``state`` has consumed the zero seed velocity plus one velocity per
    committed transition; ``dist`` is the model's (4, K) predictive
    distribution for the velocity leading to the next frame.
    ``branch_store`` holds the sampled branches of the current gap while the
    tracklet is gapped (see :func:`sample_candidates`); committing a box
    through :func:`advance` or :func:`reattach` drops it.

    The boxes are the only counters; the tracker keeps no status. A
    tentative tracklet dies at its first missed frame, so its hit count is
    ``len(boxes)`` and it is confirmed once that reaches the tracker's
    ``birth_confirmation``. On frame ``f`` a tracklet bids in the first pass
    if ``last_frame == f - 1``, and otherwise has a gap of ``f - last_frame``.
    """

    tracklet_id: int
    boxes: list[TrackletBox]
    state: RecurrentState
    dist: np.ndarray
    branch_store: BranchStore | None = field(default=None, repr=False, compare=False)

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
    return RecurrentState(hidden=hidden[0], cell=cell[0]), probs[0]


def new_tracklet(
    tracklet_id: int, frame_index: int, box: np.ndarray, start: tuple[RecurrentState, np.ndarray]
) -> Tracklet:
    """Start a tracklet from one detection's (4,) box row and the shared :func:`cold_start`.

    The tracklet keeps ``box`` itself, not a copy.
    """
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


def advance(tracklets: list[Tracklet], boxes: np.ndarray, frame: FrameGeometry, weights: ModelWeights) -> None:
    """Append each tracklet's detection on the frame after its last box; one model step feeds every velocity.

    ``boxes`` is (N, 4), row ``i`` the detection of ``tracklets[i]``; each
    tracklet keeps its row as its new last box. The tracklets need not share
    a last frame.
    """
    if len(tracklets) != len(boxes):
        raise ValueError(f"advance got {len(tracklets)} tracklets but {len(boxes)} boxes")
    if not tracklets:
        return
    origins = np.stack([t.last_box.box for t in tracklets])
    hidden, cell, probs = step(
        weights,
        np.stack([t.state.hidden for t in tracklets]),
        np.stack([t.state.cell for t in tracklets]),
        velocity(origins, boxes, frame),
    )
    for i, (tracklet, box) in enumerate(zip(tracklets, boxes)):
        tracklet.state = RecurrentState(hidden=hidden[i], cell=cell[i])
        tracklet.dist = probs[i]
        tracklet.boxes.append(TrackletBox(tracklet.last_frame + 1, box, SOURCE_DETECTED))
        tracklet.branch_store = None


@dataclass
class InpaintCandidate:
    """One sampled continuation of a gapped tracklet.

    ``path`` holds, one (x, y, w, h) row per frame, ``gap`` boxes bridging up
    to the current frame followed by the sampled lookahead (fewer rows if the
    branch degenerated). ``state_at_scoring`` is the model state after the
    boxes strictly before the current frame, and ``origin`` is the box
    there: that is where an assigned detection gets scored and committed.
    ``dist_at_scoring``, the predictive distribution of that state, is set
    on :func:`inpaint`'s winners only and is None on other candidates.
    """

    tracklet_id: int
    branch_index: int
    gap: int
    path: np.ndarray
    state_at_scoring: RecurrentState
    dist_at_scoring: np.ndarray | None
    origin: np.ndarray
    sample_log_likelihood: float = 0.0
    iou_score: float = 0.0
    rejection_reason: str = ""  # empty for a surviving branch

    @property
    def rejected(self) -> bool:
        return bool(self.rejection_reason)


# Rejection codes of a branch table's rows, and the reason each stands for.
SURVIVED, DEGENERATE, NO_OVERLAP = 0, 1, 2
REJECTION_REASONS = ("", "degenerate box", "no overlap at current frame")


@dataclass(frozen=True, eq=False)
class BranchTable(Sequence):
    """Every branch one :func:`sample_candidates` call sampled, one row per branch.

    Rows run by gap descending, then tracklet ID, then branch index, in
    blocks of ``branches`` rows per tracklet. The columns hold each row's
    tracklet ID, branch index, gap, steps taken before its box degenerated,
    rejection code (an index into :data:`REJECTION_REASONS`), summed
    lookahead IOU and accumulated sample log-likelihood, and its scoring
    origin and state. ``paths`` holds each block's path buffer, of which a
    row reads its first ``steps_done`` boxes; a branch store only appends
    to its buffer, so those rows stay as sampled.

    The table reads as a sequence of :class:`InpaintCandidate`: indexing or
    iterating builds a row's candidate, with no ``dist_at_scoring``.
    """

    branches: int
    tracklet_id: np.ndarray  # (R,)
    branch_index: np.ndarray  # (R,)
    gap: np.ndarray  # (R,)
    steps_done: np.ndarray  # (R,)
    rejection: np.ndarray  # (R,) codes
    iou_score: np.ndarray  # (R,)
    log_likelihood: np.ndarray  # (R,)
    origin: np.ndarray  # (R, 4)
    hidden: np.ndarray  # (R, H): the scoring state
    cell: np.ndarray  # (R, H)
    paths: tuple  # per block, its (branches, capacity, 4) buffer

    def __len__(self) -> int:
        return len(self.tracklet_id)

    def __getitem__(self, index):
        rows = range(len(self))[index]
        return [self.candidate(r) for r in rows] if isinstance(index, slice) else self.candidate(rows)

    def __iter__(self):
        return map(self.candidate, range(len(self)))

    def candidate(self, row: int, dist_at_scoring: np.ndarray | None = None) -> InpaintCandidate:
        """Row ``row`` as a candidate, carrying ``dist_at_scoring`` when given."""
        block, branch = divmod(row, self.branches)
        return InpaintCandidate(
            tracklet_id=int(self.tracklet_id[row]),
            branch_index=branch,
            gap=int(self.gap[row]),
            path=self.paths[block][branch, : self.steps_done[row]],
            state_at_scoring=RecurrentState(hidden=self.hidden[row], cell=self.cell[row]),
            dist_at_scoring=dist_at_scoring,
            origin=self.origin[row],
            sample_log_likelihood=float(self.log_likelihood[row]),
            iou_score=float(self.iou_score[row]),
            rejection_reason=REJECTION_REASONS[self.rejection[row]],
        )

    def winners(self) -> np.ndarray:
        """The row of each tracklet's best surviving branch, in tracklet-ID order.

        Best is the highest ``iou_score``, then the highest
        ``log_likelihood``, then the lowest branch index. A tracklet whose
        every branch is rejected has no row.
        """
        alive = np.flatnonzero(self.rejection == SURVIVED)
        ranked = alive[np.lexsort((self.branch_index[alive], -self.log_likelihood[alive],
                                   -self.iou_score[alive], self.tracklet_id[alive]))]
        ids = self.tracklet_id[ranked]
        first = np.ones(len(ranked), dtype=bool)
        first[1:] = ids[1:] != ids[:-1]
        return ranked[first]


def _branch_stream(seed: int, tracklet_id: int, gap_start: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tracklet_id, gap_start)))


def branch_uniforms(seed: int, tracklet_id: int, gap_start: int, steps: int, branches: int) -> np.ndarray:
    """The first ``steps`` rows of the (step, branch, 4) uniforms a tracklet's branches draw over one gap.

    Each (tracklet, gap) pair has its own stream, spawned from ``seed`` and
    keyed by the first unobserved frame ``gap_start``, so the draws do not
    depend on which other tracklets are sampled alongside. Step ``s`` reads
    row ``s``, and the rows are prefix-stable: the first rows are the same
    for any ``steps``, so a branch extended one step per frame draws what a
    branch sampled at full length draws.
    """
    return _branch_stream(seed, tracklet_id, gap_start).random((steps, branches, 4))


@dataclass(eq=False)
class BranchStore:
    """A gapped tracklet's sampled branches, kept from frame to frame of its gap.

    Per branch it holds the boxes sampled so far, the box after the last
    step, the summed log-likelihood, the steps taken before the box
    degenerated (the branch is alive while that equals ``steps``) and the
    velocity sampled last, which the model has not consumed yet. Under
    multinomial sampling ``stream`` is the gap's generator, standing at row
    ``steps`` of :func:`branch_uniforms`. Hidden and
    cell states are kept for the last ``R`` steps only, as a ring: the state
    after ``k`` sampled velocities sits in slot ``k % R``. The store is an
    exact cache: :func:`sample_candidates` rebuilds it from the tracklet
    whenever it cannot serve a call, and the draws are the same either way.
    """

    key: tuple  # (seed, sampling, branches, tracklet ID, last frame, *last committed box)
    state: RecurrentState  # tracklet state, distribution, weights and codebook it was
    dist: np.ndarray  # built from, compared by identity
    weights: ModelWeights
    codebook: Codebook
    frame: FrameGeometry
    stream: np.random.Generator | None  # None under top-1 sampling
    hidden: np.ndarray  # (R, B, H)
    cell: np.ndarray  # (R, B, H)
    path: np.ndarray  # (B, capacity, 4): boxes of steps 0 .. steps - 1
    last: np.ndarray  # (B, 4)
    pending: np.ndarray  # (B, 4)
    log_lik: np.ndarray  # (B,)
    steps_done: np.ndarray  # (B,)
    steps: int = 0

    def serves(self, key: tuple, tracklet: Tracklet, weights, codebook, frame, need: int, extra: int) -> bool:
        """Whether ``need`` steps with a scoring state ``extra`` steps behind can come from this store."""
        return (
            self.key == key
            and self.state is tracklet.state
            and self.dist is tracklet.dist
            and self.weights is weights
            and self.codebook is codebook
            and self.frame == frame
            and self.steps <= need
            and extra < self.hidden.shape[0]
        )


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
    lookahead: list[np.ndarray],
    params: InpaintParams,
    weights: ModelWeights,
    codebook: Codebook,
    frame: FrameGeometry,
    frame_index: int,
) -> BranchTable:
    """Sample every branch of every tracklet's gap-bridging search, rejected ones included.

    A tracklet's gap is how many frames it must move to reach the current
    frame ``frame_index``: ``frame_index - last_frame``, at least 1.
    ``lookahead`` is a list of per-frame (M, 4) detection arrays for the
    current frame and up to ``t_trs`` frames beyond it (shorter near the
    sequence end). Each branch is one trajectory per gap that
    autoregressively samples velocities, decoding each sampled cluster
    quadruple to its centroids; this call reads its first
    ``gap + len(lookahead) - 1`` steps. A branch is rejected if its box at
    the current frame overlaps no detection there at ``iou_threshold``, or
    if a sampled step degenerates the box.

    The branches live in a :class:`BranchStore` on each tracklet
    (``branch_store``), so a call only samples the steps its store lacks:
    one step per branch when a gap grows by one frame. All tracklets extend
    together, one model call per step over the stacked rows that still
    need it. A store that cannot serve the call (another gap, seed,
    branch count, sampling mode, weights, codebook or frame, more steps
    than needed, or a scoring state older than its ring) is rebuilt; the
    draws are the same, so the branches are too.

    With a positive ``iou_threshold``, a tracklet whose
    :func:`reachable_extent` meets no current-frame detection is skipped: all
    its branches would be rejected. The rest come back as one
    :class:`BranchTable` with a row per branch, by gap descending, then
    tracklet ID, each tracklet's branches by index. Its rows read as
    candidates without a ``dist_at_scoring``; :func:`inpaint` computes that
    for the winners.
    """
    for t in tracklets:
        if t.last_frame >= frame_index:
            raise SequencingError(
                f"tracklet {t.tracklet_id} last seen on frame {t.last_frame} has no gap on frame {frame_index}"
            )
    if len(lookahead) < 1:
        raise ValueError("lookahead must include the current frame's detections")
    ids = [t.tracklet_id for t in tracklets]
    if len(set(ids)) != len(ids):
        raise ValueError("inpaint needs distinct tracklet IDs")
    gaps = [frame_index - t.last_frame for t in tracklets]
    extra = len(lookahead) - 1
    branches = min(1, params.num_samples) if params.sampling == SAMPLING_TOP1 else params.num_samples
    if branches == 0 or not tracklets:
        return _empty_table(weights.config.hidden_dim)

    keep = range(len(tracklets))
    if params.iou_threshold > 0.0:
        last = np.stack([t.last_box.box for t in tracklets])
        extent = reachable_extent(last, np.asarray(gaps), codebook, frame)
        keep = np.flatnonzero(_reaches_any(extent, lookahead[0]))
    order = sorted(keep, key=lambda i: (-gaps[i], ids[i]))
    if not order:
        return _empty_table(weights.config.hidden_dim)
    chosen = [tracklets[i] for i in order]
    gap = [gaps[i] for i in order]
    needs = [g + extra for g in gap]
    stores = [
        _branch_store(t, need, extra, branches, params, weights, codebook, frame)
        for t, need in zip(chosen, needs)
    ]
    _extend(chosen, stores, needs, params, weights, codebook, frame)

    # Per row: the boxes from the current frame on, the scoring state (after
    # the boxes strictly before the current frame) and the box there, which
    # for a branch that degenerated earlier is its last box.
    window, snap_hid, snap_cell, origin = [], [], [], []
    for tracklet, store, g in zip(chosen, stores, gap):
        slot = (g - 1) % len(store.hidden)
        before = np.minimum(g - 1, store.steps_done) - 1
        window.append(store.path[:, g - 1 : g + extra])
        snap_hid.append(store.hidden[slot])
        snap_cell.append(store.cell[slot])
        origin.append(np.where(
            (before >= 0)[:, None], store.path[np.arange(branches), before], tracklet.last_box.box
        ))
    window = np.concatenate(window)
    row_gap = np.repeat(gap, branches)
    steps_done = np.concatenate([s.steps_done for s in stores])
    bridged = steps_done == row_gap + extra
    iou_score, at_current = _lookahead_overlap(window, bridged, lookahead)
    return BranchTable(
        branches=branches,
        tracklet_id=np.repeat([t.tracklet_id for t in chosen], branches),
        branch_index=np.tile(np.arange(branches), len(chosen)),
        gap=row_gap,
        steps_done=steps_done,
        rejection=np.where(
            bridged, np.where(at_current < params.iou_threshold, NO_OVERLAP, SURVIVED), DEGENERATE
        ),
        iou_score=iou_score,
        log_likelihood=np.concatenate([s.log_lik for s in stores]),
        origin=np.concatenate(origin),
        hidden=np.concatenate(snap_hid),
        cell=np.concatenate(snap_cell),
        paths=tuple(s.path for s in stores),
    )


def _empty_table(hidden_dim: int) -> BranchTable:
    none = np.zeros(0, dtype=int)
    return BranchTable(
        branches=0, tracklet_id=none, branch_index=none, gap=none, steps_done=none, rejection=none,
        iou_score=np.zeros(0), log_likelihood=np.zeros(0), origin=np.zeros((0, 4)),
        hidden=np.zeros((0, hidden_dim)), cell=np.zeros((0, hidden_dim)), paths=(),
    )


def _lookahead_overlap(window: np.ndarray, bridged: np.ndarray, lookahead: list[np.ndarray]):
    """Each row's summed best IOU over the lookahead frames, and the current frame's term.

    ``window`` is (R, F, 4): each row's box on each lookahead frame. Only
    bridged rows are scored; the others read 0. A row's box on frame ``f``
    meets only that frame's detections: the boxes are gathered once per
    detection of every frame, one elementwise IOU covers all pairs, a max
    per frame's segment gives the best overlaps and they add in frame order.
    """
    score, current = np.zeros(len(window)), np.zeros(len(window))
    sizes = [len(dets) for dets in lookahead]
    present = [f for f, n in enumerate(sizes) if n]
    rows = slice(None) if bridged.all() else np.flatnonzero(bridged)
    if not present or not bridged.any():
        return score, current
    counts = [sizes[f] for f in present]
    starts = np.cumsum([0] + counts[:-1])
    boxes = window[rows][:, np.repeat(present, counts)]  # (rows, D, 4)
    best = np.maximum.reduceat(box_iou(boxes, np.concatenate([lookahead[f] for f in present])), starts, axis=1)
    score[rows] = best.sum(axis=1)
    if present[0] == 0:
        current[rows] = best[:, 0]
    return score, current


def _branch_store(
    tracklet: Tracklet,
    need: int,
    extra: int,
    branches: int,
    params: InpaintParams,
    weights: ModelWeights,
    codebook: Codebook,
    frame: FrameGeometry,
) -> BranchStore:
    """The tracklet's branch store if it serves this call, else a fresh one put in its place.

    A fresh store has taken no step: its ring holds the tracklet's own state
    in slot 0, repeated per branch, and keeps ``extra + 1`` states. Under
    multinomial sampling it opens the gap's stream at row 0.
    """
    key = (params.seed, params.sampling, branches, tracklet.tracklet_id, tracklet.last_frame,
           *tracklet.last_box.box.tolist())
    store = tracklet.branch_store
    if store is not None and store.serves(key, tracklet, weights, codebook, frame, need, extra):
        return store
    shape = (extra + 1, branches, weights.config.hidden_dim)
    hidden, cell = np.empty(shape), np.empty(shape)
    hidden[0], cell[0] = tracklet.state.hidden, tracklet.state.cell
    greedy = params.sampling == SAMPLING_TOP1
    store = BranchStore(
        key=key,
        state=tracklet.state,
        dist=tracklet.dist,
        weights=weights,
        codebook=codebook,
        frame=frame,
        stream=None if greedy else _branch_stream(params.seed, tracklet.tracklet_id, tracklet.last_frame + 1),
        hidden=hidden,
        cell=cell,
        path=np.zeros((branches, 2 * need, 4)),
        last=np.repeat(tracklet.last_box.box[None], branches, axis=0),
        pending=np.zeros((branches, 4)),
        log_lik=np.zeros(branches),
        steps_done=np.zeros(branches, dtype=int),
    )
    tracklet.branch_store = store
    return store


def _extend(
    tracklets: list[Tracklet],
    stores: list[BranchStore],
    needs: list[int],
    params: InpaintParams,
    weights: ModelWeights,
    codebook: Codebook,
    frame: FrameGeometry,
) -> None:
    """Sample every tracklet's store up to ``needs[i]`` steps, one model call per step for all.

    Step ``s`` of a branch first consumes the velocity of step ``s - 1``
    (step 0 samples from the tracklet's own distribution), then draws from
    the resulting distribution with row ``s`` of :func:`branch_uniforms`,
    read from the store's own stream: a call draws only the rows of the
    steps it adds. Rows of one store are contiguous and laid out by missing
    steps descending, so the rows still running at step ``j`` of this call
    are a prefix ``[:running[j]]``. While every running row is alive, a
    step writes its log-likelihoods, boxes and step counts as whole rows; a
    branch whose box degenerates is frozen in place but keeps its row, and
    from then on only live rows are written. The stores are detached from
    their tracklets until the call completes, so one that raises is rebuilt
    next time rather than read with a stream that has moved on.
    """
    grow = sorted(
        (i for i, store in enumerate(stores) if store.steps < needs[i]),
        key=lambda i: stores[i].steps - needs[i],
    )
    if not grow:
        return
    tracklets = [tracklets[i] for i in grow]
    part = [stores[i] for i in grow]
    needs = [needs[i] for i in grow]
    for tracklet in tracklets:
        tracklet.branch_store = None
    todo = np.array([need - store.steps for store, need in zip(part, needs)])
    branches = part[0].steps_done.shape[0]
    rows = branches * len(part)
    running = branches * np.count_nonzero(todo[None, :] > np.arange(todo[0])[:, None], axis=1)

    hid = np.concatenate([s.hidden[max(s.steps - 1, 0) % len(s.hidden)] for s in part])
    cell = np.concatenate([s.cell[max(s.steps - 1, 0) % len(s.cell)] for s in part])
    vel = np.concatenate([s.pending for s in part])
    last = np.concatenate([s.last for s in part])
    log_lik = np.concatenate([s.log_lik for s in part])
    steps_done = np.concatenate([s.steps_done for s in part])
    alive = steps_done == np.repeat([s.steps for s in part], branches)
    all_alive = bool(alive.all())
    fresh = np.repeat([s.steps == 0 for s in part], branches)
    path = np.zeros((rows, todo[0], 4))
    greedy = params.sampling == SAMPLING_TOP1
    if not greedy:
        uniforms = np.zeros((todo[0], rows, 4))
        for b, store in enumerate(part):
            uniforms[: todo[b], b * branches : (b + 1) * branches] = store.stream.random((todo[b], branches, 4))

    for j in range(todo[0]):
        m = running[j]
        if j == 0 and fresh.any():
            dist = np.empty((rows, *tracklets[0].dist.shape))
            for b, (tracklet, store) in enumerate(zip(tracklets, part)):
                if store.steps == 0:
                    dist[b * branches : (b + 1) * branches] = tracklet.dist
            model = np.flatnonzero(~fresh)
            if model.size:
                out = cell_forward(weights, vel[model], hid[model], cell[model])
                _check_finite(out["h"] if all_alive else out["h"][alive[model]])
                hid[model], cell[model], dist[model] = out["h"], out["c"], out["probs"]
        else:
            out = cell_forward(weights, vel[:m], hid[:m], cell[:m])
            _check_finite(out["h"] if all_alive else out["h"][alive[:m]])
            hid, cell, dist = out["h"], out["c"], out["probs"]
        # Keep the states each ring holds once this call is done.
        for b, store in enumerate(part[: m // branches]):
            k = store.steps + j
            if k >= needs[b] - len(store.hidden):
                store.hidden[k % len(store.hidden)] = hid[b * branches : (b + 1) * branches]
                store.cell[k % len(store.cell)] = cell[b * branches : (b + 1) * branches]

        quads = np.argmax(dist, axis=2) if greedy else inverse_cdf(dist, uniforms[j, :m])
        step_lik = log_likelihood(dist, quads)
        vel[:m] = decode(quads, codebook)  # (m, 4) normalized velocities
        nxt = apply_velocity(last[:m], vel[:m], frame)
        ok = (nxt[:, 2] > 0.0) & (nxt[:, 3] > 0.0)
        if all_alive and ok.all():
            log_lik[:m] += step_lik
            path[:m, j] = nxt
            last[:m] = nxt
            steps_done[:m] += 1
            continue
        all_alive = False
        live = alive[:m]
        log_lik[:m][live] += step_lik[live]
        live &= ok
        path[:m, j][live] = nxt[live]
        last[:m][live] = nxt[live]
        steps_done[:m][live] += 1

    for b, (tracklet, store, need) in enumerate(zip(tracklets, part, needs)):
        r = slice(b * branches, (b + 1) * branches)
        if store.path.shape[1] < need:
            grown = np.zeros((branches, 2 * need, 4))
            grown[:, : store.steps] = store.path[:, : store.steps]
            store.path = grown
        store.path[:, store.steps : need] = path[r, : todo[b]]
        store.last[:] = last[r]
        store.pending[:] = vel[r]
        store.log_lik[:] = log_lik[r]
        store.steps_done[:] = steps_done[r]
        store.steps = need
        tracklet.branch_store = store


def _check_finite(hidden: np.ndarray) -> None:
    if not np.all(np.isfinite(hidden)):
        raise NumericOverflowError("motion model produced non-finite activations")


def inpaint(
    tracklets: list[Tracklet],
    lookahead: list[np.ndarray],
    params: InpaintParams,
    weights: ModelWeights,
    codebook: Codebook,
    frame: FrameGeometry,
    frame_index: int,
) -> list[InpaintCandidate | None]:
    """Each tracklet's best surviving continuation, or None where every branch rejects.

    Each tracklet bridges its own gap, ``frame_index - last_frame``.
    ``lookahead`` is the list of (M, 4) detection arrays, current frame
    first, that :func:`sample_candidates` takes. The branches come from that
    call's :class:`BranchTable`, which extends each tracklet's branch store;
    no other part of a tracklet is modified, and committing a winner is the
    caller's decision. :meth:`BranchTable.winners` ranks each tracklet's
    survivors by summed best-IOU over the lookahead window, ties going to
    the higher accumulated sample log-likelihood, then the lower branch
    index, and only the winners become :class:`InpaintCandidate` objects.
    Each gets a ``dist_at_scoring``: the tracklet's own distribution for a
    1-frame gap, else the heads of the scoring state, for all winners in one
    :func:`~gaptrack.motion_model.head_outputs` call in tracklet-ID order.
    The result is aligned with ``tracklets``.
    """
    table = sample_candidates(tracklets, lookahead, params, weights, codebook, frame, frame_index)
    rows = table.winners()
    deep = rows[table.gap[rows] > 1]
    dists = dict(zip(deep.tolist(), head_outputs(weights, table.hidden[deep])[1])) if deep.size else {}
    own = {t.tracklet_id: t.dist for t in tracklets}
    won = {tid: table.candidate(r, dists.get(r, own[tid]))
           for r, tid in zip(rows.tolist(), table.tracklet_id[rows].tolist())}
    return [won.get(t.tracklet_id) for t in tracklets]


def reattach(tracklet: Tracklet, candidate: InpaintCandidate) -> Tracklet:
    """Commit a winning branch's inpainted gap boxes and its scoring state.

    ``candidate`` must be one of :func:`inpaint`'s winners, which carry a
    scoring distribution. The gap is closed, so the branch store is dropped.
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
    # a copy, so the committed rows do not keep the store's path buffer alive
    for offset, box in enumerate(candidate.path[: candidate.gap - 1].copy()):
        tracklet.boxes.append(TrackletBox(first_gap_frame + offset, box, SOURCE_INPAINTED))
    tracklet.state = candidate.state_at_scoring
    tracklet.dist = candidate.dist_at_scoring
    tracklet.branch_store = None
    return tracklet
