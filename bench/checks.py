"""Output checks, against properties the method must have or against
computations made apart from the program.

Each check returns a list of failure messages; an empty list means it
passed. Nothing here compares against a stored copy of earlier output. The
evaluation is recomputed with its own IOU and with scipy's assignment
solver rather than gaptrack's.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

IOU_THRESHOLD = 0.5


def check_training(trace, heldout_log_lik: float, k: int, tail: int) -> list[str]:
    """Finite losses, a tail below the first loss, and a held-out fit better than uniform."""
    errors = []
    losses = np.asarray(trace, dtype=np.float64)
    if losses.size == 0 or not np.all(np.isfinite(losses)):
        return ["training loss trace is empty or not finite"]
    tail_mean = float(losses[-tail:].mean())
    if not tail_mean < losses[0]:
        errors.append(f"loss tail {tail_mean:.4f} is not below the first loss {losses[0]:.4f}")
    uniform = -math.log(k)
    if not heldout_log_lik > uniform:
        errors.append(
            f"held-out log-likelihood per component {heldout_log_lik:.4f} "
            f"does not beat the uniform model's {uniform:.4f}"
        )
    return errors


def check_tracks(frame_results, detections_by_frame: dict[int, list[np.ndarray]]) -> list[str]:
    """One box per (frame, id); detected boxes are distinct input detections; gaps are bridged.

    ``detections_by_frame`` maps a frame to the (x, y, w, h) arrays of the
    detections the tracker was given on it.
    """
    errors = []
    sources_by_id: dict[int, list[tuple[int, str]]] = defaultdict(list)
    for fr in frame_results:
        seen_ids = set()
        used_dets = set()
        dets = detections_by_frame.get(fr.frame, [])
        for tid, box, source in fr.committed:
            if tid in seen_ids:
                errors.append(f"frame {fr.frame}: id {tid} has more than one box")
            seen_ids.add(tid)
            sources_by_id[tid].append((fr.frame, source))
            if source != "detected":
                continue
            row = np.array([box.x, box.y, box.w, box.h])
            hits = [j for j, det in enumerate(dets) if np.array_equal(det, row)]
            if not hits:
                errors.append(f"frame {fr.frame}: detected box of id {tid} is not an input detection")
            elif hits[0] in used_dets:
                errors.append(f"frame {fr.frame}: id {tid} shares a detection with another id")
            else:
                used_dets.add(hits[0])
    for tid, rows in sources_by_id.items():
        detected = [f for f, src in rows if src == "detected"]
        for frame, source in rows:
            if source == "detected":
                continue
            if source != "inpainted":
                errors.append(f"id {tid}, frame {frame}: unknown box source {source!r}")
            elif not (detected and min(detected) < frame < max(detected)):
                errors.append(f"id {tid}, frame {frame}: inpainted box outside the detected span")
    return errors[:20]


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ix = np.minimum(a[:, None, 0] + a[:, None, 2], b[None, :, 0] + b[None, :, 2]) - np.maximum(
        a[:, None, 0], b[None, :, 0]
    )
    iy = np.minimum(a[:, None, 1] + a[:, None, 3], b[None, :, 1] + b[None, :, 3]) - np.maximum(
        a[:, None, 1], b[None, :, 1]
    )
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    union = (a[:, 2] * a[:, 3])[:, None] + (b[:, 2] * b[:, 3])[None, :] - inter
    return np.where(inter > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)


def _by_frame(rows):
    frames: dict[int, tuple[list[int], list]] = {}
    for frame, tid, box in rows:
        ids, boxes = frames.setdefault(frame, ([], []))
        ids.append(tid)
        boxes.append((box.x, box.y, box.w, box.h))
    return {f: (ids, np.array(boxes, dtype=np.float64)) for f, (ids, boxes) in frames.items()}


def recount(gt_rows, pred_rows) -> dict[str, int]:
    """CLEAR MOT and identity counts, recomputed from the definitions.

    Per frame, an object keeps its previous partner while they still overlap
    at the threshold; the rest are matched for the most pairs, then the
    largest IOU sum. IDTP is the largest total co-occurrence over one-to-one
    pairings of whole trajectories (Ristani et al. 2016).
    """
    # Imported here, after the measured part of a run, so that loading scipy
    # does not count in setup_s.
    from scipy.optimize import linear_sum_assignment

    gt = _by_frame(gt_rows)
    pred = _by_frame(pred_rows)
    last: dict[int, int] = {}
    tp = fp = fn = ids = 0
    co: dict[tuple[int, int], int] = defaultdict(int)
    for frame in sorted(set(gt) | set(pred)):
        g_ids, g_boxes = gt.get(frame, ([], np.zeros((0, 4))))
        p_ids, p_boxes = pred.get(frame, ([], np.zeros((0, 4))))
        if not g_ids or not p_ids:
            fn += len(g_ids)
            fp += len(p_ids)
            continue
        ious = _iou(g_boxes, p_boxes)
        ok = ious >= IOU_THRESHOLD
        for i, j in zip(*np.nonzero(ok)):
            co[(g_ids[i], p_ids[j])] += 1
        p_index = {pid: j for j, pid in enumerate(p_ids)}
        pairs = {}
        taken = set()
        for i in sorted(range(len(g_ids)), key=lambda i: g_ids[i]):
            j = p_index.get(last.get(g_ids[i]))
            if j is not None and j not in taken and ok[i, j]:
                pairs[i] = j
                taken.add(j)
        free_g = [i for i in range(len(g_ids)) if i not in pairs]
        free_p = [j for j in range(len(p_ids)) if j not in taken]
        if free_g and free_p:
            sub = ious[np.ix_(free_g, free_p)]
            allowed = sub >= IOU_THRESHOLD
            # Each match outweighs any IOU sum, so cardinality comes first.
            weight = np.where(allowed, len(free_g) + 1.0 + sub, 0.0)
            for a, b in zip(*linear_sum_assignment(weight, maximize=True)):
                if allowed[a, b]:
                    pairs[free_g[a]] = free_p[b]
        for i, j in pairs.items():
            gid, pid = g_ids[i], p_ids[j]
            if gid in last and last[gid] != pid:
                ids += 1
            last[gid] = pid
        tp += len(pairs)
        fn += len(g_ids) - len(pairs)
        fp += len(p_ids) - len(pairs)
    idtp = 0
    if co:
        g_order = sorted({g for g, _ in co})
        p_order = sorted({p for _, p in co})
        weight = np.zeros((len(g_order), len(p_order)))
        for (g, p), count in co.items():
            weight[g_order.index(g), p_order.index(p)] = count
        rows, cols = linear_sum_assignment(weight, maximize=True)
        idtp = int(weight[rows, cols].sum())
    return {
        "num_gt": len(gt_rows), "num_pred": len(pred_rows),
        "tp": tp, "fp": fp, "fn": fn, "id_switches": ids, "idtp": idtp,
    }


def check_evaluation(report, gt_rows, pred_rows) -> list[str]:
    """The report's counts equal a recount, and its scores follow from the counts."""
    counts = recount(gt_rows, pred_rows)
    got = {
        "num_gt": report.num_gt_boxes, "num_pred": report.num_pred_boxes,
        "tp": report.true_positives, "fp": report.false_positives,
        "fn": report.false_negatives, "id_switches": report.id_switches,
        "idtp": report.id_true_positives,
    }
    errors = [f"{key}: evaluate gives {got[key]}, recount gives {counts[key]}"
              for key in counts if got[key] != counts[key]]
    mota = 1.0 - (counts["fn"] + counts["fp"] + counts["id_switches"]) / counts["num_gt"]
    idf1 = 2.0 * counts["idtp"] / (counts["num_gt"] + counts["num_pred"])
    if not math.isclose(report.mota, mota, rel_tol=0.0, abs_tol=1e-12):
        errors.append(f"mota: evaluate gives {report.mota}, counts give {mota}")
    if not math.isclose(report.idf1, idf1, rel_tol=0.0, abs_tol=1e-12):
        errors.append(f"idf1: evaluate gives {report.idf1}, counts give {idf1}")
    return errors
