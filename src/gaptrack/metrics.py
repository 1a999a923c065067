"""Tracking quality metrics: MOTA, MOTP, identity measures, and coverage.

The evaluation follows the usual multi-object tracking conventions. Per
frame, ground-truth boxes are matched to predicted boxes at an IOU
threshold, preferring each object's most recent partner before solving the
leftovers optimally. An identity switch is counted when an object matches a
different tracker id than its last known one, even if frames were missed in
between. Identity F1 matches whole trajectories globally by co-occurrence
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assignment import FORBIDDEN, solve
from .errors import MetricsInputError
from .geometry import iou_matrix

MOSTLY_TRACKED_COVERAGE = 0.8
MOSTLY_LOST_COVERAGE = 0.2


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


def _normalize(rows, label: str) -> dict[int, tuple[list[int], np.ndarray]]:
    """Group (frame, id, box) rows by frame; duplicate (frame, id) pairs are an error."""
    seen = set()
    by_frame: dict[int, tuple[list[int], list]] = {}
    for row in rows:
        if isinstance(row, tuple):
            frame, track_id, box = row
        else:
            frame, track_id, box = row.frame, row.track_id, row.box
        key = (frame, track_id)
        if key in seen:
            raise MetricsInputError(f"duplicate {label} entry for frame {frame}, id {track_id}")
        seen.add(key)
        ids, boxes = by_frame.setdefault(frame, ([], []))
        ids.append(track_id)
        boxes.append(box.as_array())
    return {
        frame: (ids, np.stack(boxes))
        for frame, (ids, boxes) in by_frame.items()
    }


def _match_frame(
    gt_ids: list[int],
    gt_boxes: np.ndarray,
    pred_ids: list[int],
    pred_boxes: np.ndarray,
    last_match: dict[int, int],
    iou_threshold: float,
) -> dict[int, tuple[int, float]]:
    """One frame's matching: gt id -> (pred id, iou)."""
    ious = iou_matrix(gt_boxes, pred_boxes)
    pred_index = {pid: j for j, pid in enumerate(pred_ids)}
    matches: dict[int, tuple[int, float]] = {}
    taken = set()

    # Keep an object's previous partner whenever it still overlaps enough.
    for i in sorted(range(len(gt_ids)), key=lambda i: gt_ids[i]):
        pid = last_match.get(gt_ids[i])
        if pid is None or pid not in pred_index or pid in taken:
            continue
        j = pred_index[pid]
        if ious[i, j] >= iou_threshold:
            matches[gt_ids[i]] = (pid, float(ious[i, j]))
            taken.add(pid)

    free_gt = [i for i in range(len(gt_ids)) if gt_ids[i] not in matches]
    free_pred = [j for j in range(len(pred_ids)) if pred_ids[j] not in taken]
    if free_gt and free_pred:
        sub = ious[np.ix_(free_gt, free_pred)]
        costs = np.where(sub >= iou_threshold, -sub, FORBIDDEN)
        for a, b in solve(costs):
            i, j = free_gt[a], free_pred[b]
            matches[gt_ids[i]] = (pred_ids[j], float(ious[i, j]))
    return matches


def _identity_true_positives(
    gt_frames: dict[int, tuple[list[int], np.ndarray]],
    pred_frames: dict[int, tuple[list[int], np.ndarray]],
    iou_threshold: float,
) -> int:
    """Best one-to-one trajectory pairing by number of overlapping frames."""
    overlap: dict[tuple[int, int], int] = {}
    for frame, (gt_ids, gt_boxes) in gt_frames.items():
        if frame not in pred_frames:
            continue
        pred_ids, pred_boxes = pred_frames[frame]
        ious = iou_matrix(gt_boxes, pred_boxes)
        for i, j in zip(*np.nonzero(ious >= iou_threshold)):
            key = (gt_ids[i], pred_ids[j])
            overlap[key] = overlap.get(key, 0) + 1
    if not overlap:
        return 0
    gt_order = sorted({g for g, _ in overlap})
    pred_order = sorted({p for _, p in overlap})
    gt_index = {g: a for a, g in enumerate(gt_order)}
    pred_index = {p: b for b, p in enumerate(pred_order)}
    costs = np.full((len(gt_order), len(pred_order)), FORBIDDEN)
    for (g, p), count in overlap.items():
        costs[gt_index[g], pred_index[p]] = -float(count)
    return int(sum(overlap[(gt_order[a], pred_order[b])] for a, b in solve(costs)))


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


def evaluate(ground_truth, predictions, iou_threshold: float = 0.5) -> MetricsReport:
    """Score predicted (frame, id, box) rows against ground-truth rows.

    Rows may be plain tuples or objects with ``frame``, ``track_id``, and
    ``box`` attributes, so reader output plugs in directly.
    """
    gt_frames = _normalize(ground_truth, "ground-truth")
    pred_frames = _normalize(predictions, "prediction")

    frames = sorted(set(gt_frames) | set(pred_frames))
    last_match: dict[int, int] = {}
    tp = fp = fn = ids = 0
    iou_sum = 0.0
    gt_frame_counts: dict[int, int] = {}
    gt_matched_counts: dict[int, int] = {}

    for frame in frames:
        gt_ids, gt_boxes = gt_frames.get(frame, ([], np.zeros((0, 4))))
        pred_ids, pred_boxes = pred_frames.get(frame, ([], np.zeros((0, 4))))
        for gid in gt_ids:
            gt_frame_counts[gid] = gt_frame_counts.get(gid, 0) + 1
        if gt_ids and pred_ids:
            matches = _match_frame(gt_ids, gt_boxes, pred_ids, pred_boxes, last_match, iou_threshold)
        else:
            matches = {}
        for gid, (pid, pair_iou) in matches.items():
            previous = last_match.get(gid)
            if previous is not None and previous != pid:
                ids += 1
            last_match[gid] = pid
            gt_matched_counts[gid] = gt_matched_counts.get(gid, 0) + 1
            iou_sum += pair_iou
        tp += len(matches)
        fn += len(gt_ids) - len(matches)
        fp += len(pred_ids) - len(matches)

    mt = ml = 0
    for gid, total in gt_frame_counts.items():
        coverage = gt_matched_counts.get(gid, 0) / total
        if coverage >= MOSTLY_TRACKED_COVERAGE:
            mt += 1
        elif coverage < MOSTLY_LOST_COVERAGE:
            ml += 1

    idtp = _identity_true_positives(gt_frames, pred_frames, iou_threshold)
    return _derive(
        num_frames=len(frames),
        num_gt=sum(len(ids_) for ids_, _ in gt_frames.values()),
        num_pred=sum(len(ids_) for ids_, _ in pred_frames.values()),
        trajectories=len(gt_frame_counts),
        tp=tp,
        fp=fp,
        fn=fn,
        ids=ids,
        idtp=idtp,
        mt=mt,
        ml=ml,
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
