"""Tracking quality metrics: MOTA, MOTP, identity measures, and coverage.

The evaluation follows CLEAR MOT (Bernardin & Stiefelhagen 2008) and
identity F1 (Ristani et al. 2016). Per frame, ground-truth boxes are matched
to predicted boxes at an IOU threshold, preferring each object's most recent
partner before solving the leftovers optimally. An identity switch is
counted when an object matches a different tracker id than its last known
one, even if frames were missed in between. Identity F1 matches whole
trajectories globally by co-occurrence counts.

Rows become frame-sorted arrays once: frames, ids and boxes, in input order
within a frame. The IOU of each same-frame (ground truth, prediction) pair
is computed once, in blocks of consecutive frames holding at most
``PAIR_BLOCK`` pairs (a larger frame is a block of its own), so memory stays
bounded on long, crowded sequences. The pairs at or above the threshold,
the hits, are kept: they are the co-occurrences that identity F1 counts.

Matching then runs in bulk. A hit whose gt row and prediction row hold no
other hit in their frame is matched whatever came before, so all of those
are taken at once. The rest, the contested hits, go through
:func:`_match_frame` frame by frame in order, each object starting from its
latest earlier match, uncontested or contested. A match is "kept" exactly
when it continues the object's previous partner, so sorting the matches by
frame, then kept matches by object id and the others by gt row, rebuilds
the order in which frame-by-frame matching would produce them; the IOU sum
is added up in that order.

A :class:`MetricsReport` is its counts: the scores are fields derived from
them when the report is constructed, so a report built from summed counts
(:func:`aggregate`) or by ``dataclasses.replace`` carries its own scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .assignment import FORBIDDEN, solve
from .errors import MetricsInputError
from .geometry import box_iou

MOSTLY_TRACKED_COVERAGE = 0.8
MOSTLY_LOST_COVERAGE = 0.2
# Default IOU at which a prediction matches a ground-truth box.
IOU_THRESHOLD = 0.5
# Same-frame pairs whose IOUs are computed in one call.
PAIR_BLOCK = 1 << 12


@dataclass(frozen=True)
class MetricsReport:
    """Raw counts plus the scores derived from them.

    The constructor takes the counts only; ``__post_init__`` derives
    ``mota``, ``motp``, ``idf1``, ``mostly_tracked`` and ``mostly_lost``.
    ``mostly_tracked`` and ``mostly_lost`` are percentages of ground-truth
    trajectories covered for at least 80% and less than 20% of their frames.
    ``motp`` is the mean IOU over matched pairs. With no ground truth at all,
    MOTA is 1.0 for empty predictions and negative infinity otherwise.
    """

    num_frames: int
    num_gt_boxes: int
    num_pred_boxes: int
    num_trajectories: int
    true_positives: int
    false_positives: int
    false_negatives: int
    id_switches: int
    id_true_positives: int
    mostly_tracked_count: int
    mostly_lost_count: int
    iou_sum: float
    mota: float = field(init=False)
    motp: float = field(init=False)
    idf1: float = field(init=False)
    mostly_tracked: float = field(init=False)
    mostly_lost: float = field(init=False)

    def __post_init__(self):
        num_gt, tp, trajectories = self.num_gt_boxes, self.true_positives, self.num_trajectories
        fp_ids = self.false_positives + self.id_switches
        if num_gt > 0:
            mota = 1.0 - (self.false_negatives + fp_ids) / num_gt
        else:
            mota = 1.0 if fp_ids == 0 else float("-inf")
        denom = num_gt + self.num_pred_boxes
        scores = {
            "mota": mota,
            "motp": self.iou_sum / tp if tp > 0 else 0.0,
            "idf1": (2.0 * self.id_true_positives / denom) if denom > 0 else 1.0,
            "mostly_tracked": 100.0 * self.mostly_tracked_count / trajectories if trajectories else 0.0,
            "mostly_lost": 100.0 * self.mostly_lost_count / trajectories if trajectories else 0.0,
        }
        for name, value in scores.items():  # the report is frozen
            object.__setattr__(self, name, value)


def _integers(values: list, label: str, field: str) -> np.ndarray:
    """``values`` as int64; a value that is not an integer is an error, not truncated."""
    array = np.asarray(values)
    if array.dtype.kind == "f":
        integral = np.isfinite(array) & (array == np.floor(array))
    elif array.dtype.kind in "biu":
        integral = np.ones(array.shape, dtype=bool)
    else:
        integral = np.array([isinstance(v, (int, np.integer)) for v in values])
    if not integral.all():
        raise MetricsInputError(f"{label} {field} must be an integer, got {values[integral.argmin()]!r}")
    return array.astype(np.int64)


def _rows_to_arrays(rows, label: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(frames, ids, boxes) of (frame, id, box) rows, stably sorted by frame.

    Duplicate (frame, id) pairs are an error naming the first repeated row.
    """
    rows = [row if isinstance(row, tuple) else (row.frame, row.track_id, row.box) for row in rows]
    frames = _integers([row[0] for row in rows], label, "frame")
    ids = _integers([row[1] for row in rows], label, "id")
    coords = [value for _, _, box in rows for value in (box.x, box.y, box.w, box.h)]
    boxes = np.fromiter(coords, dtype=np.float64, count=len(coords)).reshape(-1, 4)
    by_key = np.lexsort((ids, frames))
    later = by_key[1:]
    repeated = (frames[later] == frames[by_key[:-1]]) & (ids[later] == ids[by_key[:-1]])
    if repeated.any():
        first = later[repeated].min()
        raise MetricsInputError(f"duplicate {label} entry for frame {frames[first]}, id {ids[first]}")
    order = np.argsort(frames, kind="stable")
    return frames[order], ids[order], boxes[order]


def _match_frame(
    ious: np.ndarray,
    gt_codes: np.ndarray,
    pred_codes: np.ndarray,
    previous: np.ndarray,
    iou_threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One frame's contested matching as (gt rows, pred columns) of its (G, P) IOUs.

    ``previous`` holds each row's object's last partner code (-1 for none).
    Each object keeps its previous partner whenever it still overlaps enough;
    objects claim in id order, and a partner goes to the first claim. The
    leftovers are solved for the most pairs and then the largest IOU sum.
    """
    allowed = ious >= iou_threshold
    rows, cols = (allowed & (pred_codes == previous[:, None])).nonzero()
    if len(set(cols.tolist())) < len(cols):
        by_id = np.argsort(gt_codes[rows])
        first = np.unique(cols[by_id], return_index=True)[1]
        rows, cols = rows[by_id[first]], cols[by_id[first]]

    # Rows and columns left without an allowed pair cannot change the solve.
    allowed[rows] = False
    allowed[:, cols] = False
    free_gt = allowed.any(axis=1).nonzero()[0]
    if free_gt.size:
        free_pred = allowed.any(axis=0).nonzero()[0]
        sub = ious[np.ix_(free_gt, free_pred)]
        a, b = np.array(solve(np.where(sub >= iou_threshold, -sub, FORBIDDEN))).T
        rows = np.concatenate([rows, free_gt[a]])
        cols = np.concatenate([cols, free_pred[b]])
    return rows, cols


def _identity_true_positives(gt_codes: np.ndarray, pred_codes: np.ndarray) -> int:
    """Best one-to-one trajectory pairing by number of overlapping frames.

    Takes one (gt, prediction) code pair per same-frame pair at or above
    the IOU threshold.
    """
    if not gt_codes.size:
        return 0
    width = int(pred_codes.max()) + 1
    pairs, counts = np.unique(gt_codes * width + pred_codes, return_counts=True)
    gt_rows, rows = np.unique(pairs // width, return_inverse=True)
    pred_cols, cols = np.unique(pairs % width, return_inverse=True)
    costs = np.full((len(gt_rows), len(pred_cols)), FORBIDDEN)
    costs[rows, cols] = -counts.astype(np.float64)
    solved = np.array(solve(costs)).reshape(-1, 2)
    return int(-costs[solved[:, 0], solved[:, 1]].sum())


def _pair_blocks(gt_start, gt_end, pred_start, pred_end):
    """Same-frame pairs as (gt rows, pred rows), in runs of at most ``PAIR_BLOCK`` pairs.

    Takes the row ranges of every frame on both sides, over all rows, and
    yields the pairs of runs of consecutive frames, frame by frame and
    gt-major. A frame with more pairs than the limit is a run of its own.
    """
    gt_count, pred_count = gt_end - gt_start, pred_end - pred_start
    pair_end = np.cumsum(gt_count * pred_count)
    # Each gt row pairs with every prediction of its frame.
    row_pairs = np.repeat(pred_count, gt_count)
    row_pred_start = np.repeat(pred_start, gt_count)
    lo = 0
    while lo < len(pair_end):
        base = pair_end[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(pair_end, base + PAIR_BLOCK, side="right")))
        rows = np.arange(gt_start[lo], gt_end[hi - 1])
        reps = row_pairs[rows]
        first = np.cumsum(reps) - reps
        pred_rows = np.arange(pair_end[hi - 1] - base) + np.repeat(row_pred_start[rows] - first, reps)
        yield np.repeat(rows, reps), pred_rows
        lo = hi


def evaluate(ground_truth, predictions, iou_threshold: float = IOU_THRESHOLD) -> MetricsReport:
    """Score predicted (frame, id, box) rows against ground-truth rows.

    Rows may be plain tuples or objects with ``frame``, ``track_id``, and
    ``box`` attributes, so reader output plugs in directly. Frames and ids
    must be integers, and ``iou_threshold`` must lie in (0, 1].
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise MetricsInputError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")
    gt_frames, gt_ids, gt_boxes = _rows_to_arrays(ground_truth, "ground-truth")
    pred_frames, pred_ids, pred_boxes = _rows_to_arrays(predictions, "prediction")
    gt_order, gt_codes = np.unique(gt_ids, return_inverse=True)
    pred_codes = np.unique(pred_ids, return_inverse=True)[1]
    frames = np.union1d(gt_frames, pred_frames)
    gt_start = np.searchsorted(gt_frames, frames)
    gt_end = np.searchsorted(gt_frames, frames, side="right")
    pred_start = np.searchsorted(pred_frames, frames)
    pred_end = np.searchsorted(pred_frames, frames, side="right")
    # Coordinates as rows, so that gathered pairs keep each one contiguous.
    gt_coords, pred_coords = gt_boxes.T.copy(), pred_boxes.T.copy()

    hit_gt, hit_pred, hit_iou = [], [], []
    for gt_rows, pred_rows in _pair_blocks(gt_start, gt_end, pred_start, pred_end):
        ious = box_iou(gt_coords.take(gt_rows, axis=1).T, pred_coords.take(pred_rows, axis=1).T)
        hit = ious >= iou_threshold
        hit_gt.append(gt_rows[hit])
        hit_pred.append(pred_rows[hit])
        hit_iou.append(ious[hit])
    empty = np.zeros(0, dtype=np.int64)
    hit_gt = np.concatenate([empty, *hit_gt])
    hit_pred = np.concatenate([empty, *hit_pred])
    hit_iou = np.concatenate([np.zeros(0), *hit_iou])
    gt_frame = np.searchsorted(frames, gt_frames)

    # A hit alone in its gt row and in its prediction row is matched whatever
    # came before: kept if it continues the object's last partner, otherwise
    # a pair of its own in the leftover solve.
    lone = ((np.bincount(hit_gt, minlength=len(gt_ids))[hit_gt] == 1)
            & (np.bincount(hit_pred, minlength=len(pred_ids))[hit_pred] == 1))
    lone_gt, lone_pred = hit_gt[lone], hit_pred[lone]
    matched_gt, matched_pred, matched_iou = [lone_gt], [lone_pred], [hit_iou[lone]]

    # The other hits share a row or a column; they are resolved frame by
    # frame in order, each object starting from its latest earlier match.
    contested_gt, contested_iou = hit_gt[~lone], hit_iou[~lone]
    rows, row_at = np.unique(contested_gt, return_inverse=True)
    cols, col_at = np.unique(hit_pred[~lone], return_inverse=True)
    row_objects, col_partners = gt_codes[rows], pred_codes[cols]
    row_frame, col_frame = gt_frame[rows], np.searchsorted(frames, pred_frames[cols])
    hit_frame = gt_frame[contested_gt]
    # Each contested hit's place in its frame's block of contested rows and columns.
    hit_row = row_at - np.searchsorted(row_frame, hit_frame)
    hit_col = col_at - np.searchsorted(col_frame, hit_frame)
    # The latest uncontested match of each contested row's object before its
    # frame, found among keys (object, frame) behind a sentinel that no object owns.
    lone_key = gt_codes[lone_gt] * len(frames) + gt_frame[lone_gt]
    by_key = np.argsort(lone_key)
    lone_key = np.r_[-1, lone_key[by_key]]
    lone_partner = np.r_[-1, pred_codes[lone_pred[by_key]]]
    at = np.searchsorted(lone_key, row_objects * len(frames) + row_frame) - 1
    earlier = lone_key[at] // len(frames) == row_objects
    prior_frame = np.where(earlier, lone_key[at] % len(frames), -1)
    prior_partner = np.where(earlier, lone_partner[at], -1)
    # The latest contested match of each object, as the loop resolves them.
    last_frame = np.full(len(gt_order), -1, dtype=np.int64)
    last_partner = np.full(len(gt_order), -1, dtype=np.int64)
    contested_frames = np.unique(row_frame)
    spans = np.column_stack([
        contested_frames,
        *(np.searchsorted(keys, contested_frames, side=side)
          for keys in (row_frame, col_frame, hit_frame) for side in ("left", "right")),
    ]).tolist()
    won_rows, won_cols = [empty], [empty]
    for frame, r0, r1, c0, c1, h0, h1 in spans:
        block = np.zeros((r1 - r0, c1 - c0))
        block[hit_row[h0:h1], hit_col[h0:h1]] = contested_iou[h0:h1]
        objects = row_objects[r0:r1]
        later = last_frame[objects] > prior_frame[r0:r1]
        previous = np.where(later, last_partner[objects], prior_partner[r0:r1])
        a, b = _match_frame(block, objects, col_partners[c0:c1], previous, iou_threshold)
        matched_iou.append(block[a, b])
        a, b = a + r0, b + c0
        last_frame[row_objects[a]] = frame
        last_partner[row_objects[a]] = col_partners[b]
        won_rows.append(a)
        won_cols.append(b)
    matched_gt.append(rows[np.concatenate(won_rows)])
    matched_pred.append(cols[np.concatenate(won_cols)])

    matched_gt = np.concatenate(matched_gt)
    matched_frame = gt_frame[matched_gt]
    objects, partners = gt_codes[matched_gt], pred_codes[np.concatenate(matched_pred)]
    by_object = np.lexsort((matched_frame, objects))
    same = objects[by_object][1:] == objects[by_object][:-1]
    changed = partners[by_object][1:] != partners[by_object][:-1]
    ids = np.count_nonzero(same & changed)
    # A match is kept exactly when it continues the object's previous partner.
    # Per frame, kept matches come in object id order, then the rest by gt row.
    kept = np.zeros(len(matched_gt), dtype=bool)
    kept[by_object[1:]] = same & ~changed
    order = np.lexsort((np.where(kept, objects, matched_gt), ~kept, matched_frame))
    # cumsum adds one value at a time in match order, unlike sum's pairwise
    # order: the bits of the sum depend on it.
    iou_sum = float(np.cumsum(np.concatenate(matched_iou)[order])[-1]) if len(order) else 0.0
    coverage = np.bincount(objects, minlength=len(gt_order)) / np.bincount(gt_codes, minlength=len(gt_order))
    tp = len(matched_gt)
    idtp = _identity_true_positives(gt_codes[hit_gt], pred_codes[hit_pred])
    return MetricsReport(
        num_frames=len(frames),
        num_gt_boxes=len(gt_ids),
        num_pred_boxes=len(pred_ids),
        num_trajectories=len(gt_order),
        true_positives=tp,
        false_positives=len(pred_ids) - tp,
        false_negatives=len(gt_ids) - tp,
        id_switches=int(ids),
        id_true_positives=idtp,
        mostly_tracked_count=int(np.count_nonzero(coverage >= MOSTLY_TRACKED_COVERAGE)),
        mostly_lost_count=int(np.count_nonzero(coverage < MOSTLY_LOST_COVERAGE)),
        iou_sum=iou_sum,
    )


def aggregate(reports) -> MetricsReport:
    """Combine per-sequence reports by summing raw counts and re-deriving scores."""
    reports = list(reports)
    if not reports:
        raise MetricsInputError("aggregate needs at least one report")
    counts = [f.name for f in fields(MetricsReport) if f.init]
    return MetricsReport(**{name: sum(getattr(r, name) for r in reports) for name in counts})


_REPORT_FIELDS = (
    ("mota", "{:.4f}"),
    ("motp", "{:.4f}"),
    ("idf1", "{:.4f}"),
    ("id_switches", "{}"),
    ("true_positives", "{}"),
    ("false_positives", "{}"),
    ("false_negatives", "{}"),
    ("mostly_tracked", "{:.1f}"),
    ("mostly_lost", "{:.1f}"),
    ("num_gt_boxes", "{}"),
    ("num_pred_boxes", "{}"),
    ("num_trajectories", "{}"),
    ("num_frames", "{}"),
)


def format_report(report: MetricsReport, name: str | None = None) -> str:
    lines = [f"[{name}]"] if name else []
    lines += [
        f"{field}={fmt.format(getattr(report, field))}"
        for field, fmt in _REPORT_FIELDS
    ]
    return "\n".join(lines)


def write_report(path, report: MetricsReport, name: str | None = None) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(format_report(report, name) + "\n")
