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
bounded on long, crowded sequences.
Each frame is matched on its slice of its block, and the pairs at or above
the threshold are kept as the co-occurrences that identity F1 counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assignment import FORBIDDEN, solve
from .errors import MetricsInputError
from .geometry import box_iou

MOSTLY_TRACKED_COVERAGE = 0.8
MOSTLY_LOST_COVERAGE = 0.2
# Same-frame pairs whose IOUs are computed in one call.
PAIR_BLOCK = 1 << 12


@dataclass(frozen=True)
class MetricsReport:
    """Raw counts plus the derived scores computed from them.

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
    mota: float
    motp: float
    idf1: float
    mostly_tracked: float
    mostly_lost: float


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
    frames, ids, coords = [], [], []
    for row in rows:
        if isinstance(row, tuple):
            frame, track_id, box = row
        else:
            frame, track_id, box = row.frame, row.track_id, row.box
        frames.append(frame)
        ids.append(track_id)
        coords.append((box.x, box.y, box.w, box.h))
    frames = _integers(frames, label, "frame")
    ids = _integers(ids, label, "id")
    boxes = np.array(coords, dtype=np.float64).reshape(-1, 4)
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
    last_match: np.ndarray,
    iou_threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One frame's matching as (gt rows, pred columns) of its (G, P) IOUs.

    ``last_match`` holds each object's last partner code (-1 for none). Kept
    partners come first, in object id order, then the leftover solve's pairs.
    """
    allowed = ious >= iou_threshold
    # Keep an object's previous partner whenever it still overlaps enough;
    # objects claim in id order, and a partner goes to the first claim.
    rows, cols = np.nonzero(allowed & (pred_codes == last_match[gt_codes][:, None]))
    by_id = np.argsort(gt_codes[rows])
    rows, cols = rows[by_id], cols[by_id]
    if len(set(cols.tolist())) < len(cols):
        first = np.sort(np.unique(cols, return_index=True)[1])
        rows, cols = rows[first], cols[first]

    free_gt = np.ones(len(gt_codes), dtype=bool)
    free_gt[rows] = False
    free_pred = np.ones(len(pred_codes), dtype=bool)
    free_pred[cols] = False
    free_gt, free_pred = np.flatnonzero(free_gt), np.flatnonzero(free_pred)
    if free_gt.size and free_pred.size:
        sub = ious[free_gt][:, free_pred]
        solved = solve(np.where(sub >= iou_threshold, -sub, FORBIDDEN))
        if solved:
            a, b = np.array(solved).T
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


def _derive(
    num_frames: int,
    num_gt: int,
    num_pred: int,
    trajectories: int,
    tp: int,
    fp: int,
    fn: int,
    ids: int,
    idtp: int,
    mt: int,
    ml: int,
    iou_sum: float,
) -> MetricsReport:
    if num_gt > 0:
        mota = 1.0 - (fn + fp + ids) / num_gt
    else:
        mota = 1.0 if (fp + ids) == 0 else float("-inf")
    motp = iou_sum / tp if tp > 0 else 0.0
    denom = num_gt + num_pred
    idf1 = (2.0 * idtp / denom) if denom > 0 else 1.0
    return MetricsReport(
        num_frames=num_frames,
        num_gt_boxes=num_gt,
        num_pred_boxes=num_pred,
        num_trajectories=trajectories,
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        id_switches=ids,
        id_true_positives=idtp,
        mostly_tracked_count=mt,
        mostly_lost_count=ml,
        iou_sum=iou_sum,
        mota=mota,
        motp=motp,
        idf1=idf1,
        mostly_tracked=100.0 * mt / trajectories if trajectories else 0.0,
        mostly_lost=100.0 * ml / trajectories if trajectories else 0.0,
    )


def _pair_blocks(gt_start, gt_end, pred_start, pred_end):
    """Split frames into runs of consecutive frames holding at most ``PAIR_BLOCK`` pairs.

    Takes the row ranges of every frame on both sides, over all rows, and
    yields per run ``(lo, hi, gt_rows, pred_rows)``: frames ``lo`` to
    ``hi - 1`` and the rows of their same-frame pairs, frame by frame and
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
        yield lo, hi, np.repeat(rows, reps), pred_rows
        lo = hi


def evaluate(ground_truth, predictions, iou_threshold: float = 0.5) -> MetricsReport:
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
    bounds = np.column_stack([gt_start, gt_end, pred_start, pred_end]).tolist()
    # Coordinates as rows, so that gathered pairs keep each one contiguous.
    gt_coords, pred_coords = gt_boxes.T.copy(), pred_boxes.T.copy()

    last_match = np.full(len(gt_order), -1, dtype=np.int64)
    matched_gt, matched_pred, matched_iou, hit_gt, hit_pred = [], [], [], [], []
    for lo, hi, gt_rows, pred_rows in _pair_blocks(gt_start, gt_end, pred_start, pred_end):
        ious = box_iou(gt_coords.take(gt_rows, axis=1).T, pred_coords.take(pred_rows, axis=1).T)
        hit = ious >= iou_threshold
        hit_gt.append(gt_codes[gt_rows[hit]])
        hit_pred.append(pred_codes[pred_rows[hit]])
        at = 0
        for g0, g1, p0, p1 in bounds[lo:hi]:
            if g0 == g1 or p0 == p1:
                continue
            frame_gt, frame_pred = gt_codes[g0:g1], pred_codes[p0:p1]
            frame_ious = ious[at:at + (g1 - g0) * (p1 - p0)].reshape(g1 - g0, p1 - p0)
            at += frame_ious.size
            rows, cols = _match_frame(frame_ious, frame_gt, frame_pred, last_match, iou_threshold)
            objects, partners = frame_gt[rows], frame_pred[cols]
            last_match[objects] = partners
            matched_gt.append(objects)
            matched_pred.append(partners)
            matched_iou.append(frame_ious[rows, cols])

    empty = np.zeros(0, dtype=np.int64)
    matched_gt = np.concatenate([empty, *matched_gt])
    matched_pred = np.concatenate([empty, *matched_pred])
    # Matches are in frame order, so an object's partners are in time order.
    by_object = np.argsort(matched_gt, kind="stable")
    objects, partners = matched_gt[by_object], matched_pred[by_object]
    ids = np.count_nonzero((objects[1:] == objects[:-1]) & (partners[1:] != partners[:-1]))
    # One addition at a time in match order: the bits of the sum depend on it.
    iou_sum = 0.0
    for pair_iou in np.concatenate([np.zeros(0), *matched_iou]).tolist():
        iou_sum += pair_iou
    coverage = np.bincount(matched_gt, minlength=len(gt_order)) / np.bincount(gt_codes, minlength=len(gt_order))
    tp = len(matched_gt)
    idtp = _identity_true_positives(np.concatenate([empty, *hit_gt]), np.concatenate([empty, *hit_pred]))
    return _derive(
        num_frames=len(frames),
        num_gt=len(gt_ids),
        num_pred=len(pred_ids),
        trajectories=len(gt_order),
        tp=tp,
        fp=len(pred_ids) - tp,
        fn=len(gt_ids) - tp,
        ids=int(ids),
        idtp=idtp,
        mt=int(np.count_nonzero(coverage >= MOSTLY_TRACKED_COVERAGE)),
        ml=int(np.count_nonzero(coverage < MOSTLY_LOST_COVERAGE)),
        iou_sum=iou_sum,
    )


def aggregate(reports) -> MetricsReport:
    """Combine per-sequence reports by summing raw counts and re-deriving scores."""
    reports = list(reports)
    if not reports:
        raise MetricsInputError("aggregate needs at least one report")
    return _derive(
        num_frames=sum(r.num_frames for r in reports),
        num_gt=sum(r.num_gt_boxes for r in reports),
        num_pred=sum(r.num_pred_boxes for r in reports),
        trajectories=sum(r.num_trajectories for r in reports),
        tp=sum(r.true_positives for r in reports),
        fp=sum(r.false_positives for r in reports),
        fn=sum(r.false_negatives for r in reports),
        ids=sum(r.id_switches for r in reports),
        idtp=sum(r.id_true_positives for r in reports),
        mt=sum(r.mostly_tracked_count for r in reports),
        ml=sum(r.mostly_lost_count for r in reports),
        iou_sum=sum(r.iou_sum for r in reports),
    )


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
