"""Tracking metrics against hand-evaluated scenarios.

Three scenarios anchor the formulas: a perfect tracker, an empty prediction
set, and one trajectory whose identity flips halfway. All expected numbers
are worked out by hand from the definitions; the split case in particular
pins IDF1 = 2*IDTP / (gt + pred) with IDTP = 5 under the best global
identity pairing.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from gaptrack import (
    BoundingBox,
    MetricsInputError,
    MetricsReport,
    aggregate,
    evaluate,
    format_report,
    iou_matrix,
    metrics,
    write_report,
)


def straight_rows(track_id, frames, x0=0.0, y0=0.0, step=5.0):
    return [
        (f, track_id, BoundingBox(x0 + step * (f - 1), y0, 20.0, 40.0))
        for f in frames
    ]


def synthetic_gt(num_tracks=3, num_frames=12):
    rows = []
    for tid in range(1, num_tracks + 1):
        rows += straight_rows(tid, range(1, num_frames + 1), x0=100.0 * tid, y0=50.0 * tid)
    return rows


def test_perfect_tracker():
    gt = synthetic_gt()
    report = evaluate(gt, gt)
    assert report.mota == 1.0
    assert report.idf1 == 1.0
    assert report.id_switches == 0
    assert report.false_positives == 0
    assert report.false_negatives == 0
    assert report.mostly_tracked == 100.0
    assert report.mostly_lost == 0.0
    assert report.motp == pytest.approx(1.0)


def test_empty_predictions():
    gt = straight_rows(1, range(1, 11))
    report = evaluate(gt, [])
    assert report.false_negatives == 10
    assert report.false_positives == 0
    assert report.mota == 0.0
    assert report.idf1 == 0.0
    assert report.mostly_lost == 100.0

    # Without ground truth, MOTA is 1.0 only while nothing is predicted.
    nothing = evaluate([], [])
    assert (nothing.mota, nothing.idf1, nothing.motp) == (1.0, 1.0, 0.0)
    assert (nothing.mostly_tracked, nothing.mostly_lost) == (0.0, 0.0)
    assert evaluate([], gt).mota == float("-inf")


def test_identity_split_halfway():
    # One object over 10 frames, tracked perfectly but as id A for frames
    # 1-5 and id B for 6-10. One switch at frame 6: MOTA = 1 - 1/10 = 0.9.
    # The global identity matching keeps A (5 overlapping frames), leaving
    # B's 5 boxes unmatched: IDF1 = 2*5 / (10 + 10) = 0.5. Boxes are exact,
    # so the trajectory is still mostly tracked.
    gt = straight_rows(1, range(1, 11))
    pred = straight_rows(101, range(1, 6)) + straight_rows(102, range(6, 11))
    report = evaluate(gt, pred)
    assert report.id_switches == 1
    assert report.mota == pytest.approx(0.9)
    assert report.id_true_positives == 5
    assert report.idf1 == pytest.approx(0.5)
    assert report.mostly_tracked == 100.0
    assert report.false_positives == 0
    assert report.false_negatives == 0


def test_mota_decreases_with_each_error_type():
    gt = synthetic_gt()
    base = evaluate(gt, gt).mota

    extra = gt + [(1, 99, BoundingBox(900.0, 5.0, 20.0, 40.0))]
    assert evaluate(gt, extra).mota < base

    missing = [row for row in gt if not (row[1] == 1 and row[0] == 5)]
    assert evaluate(gt, missing).mota < base

    flipped = [
        (f, 200 + tid if f > 6 and tid == 1 else tid, box)
        for f, tid, box in gt
    ]
    assert evaluate(gt, flipped).mota < base


def test_idf1_invariant_to_prediction_relabeling():
    gt = synthetic_gt()
    pred = straight_rows(101, range(1, 6), x0=100.0, y0=50.0) + \
        straight_rows(102, range(6, 13), x0=100.0 + 25.0, y0=50.0) + \
        straight_rows(7, range(1, 13), x0=200.0, y0=100.0)
    base = evaluate(gt, pred)
    relabeled = [(f, tid * 13 + 1000, box) for f, tid, box in pred]
    again = evaluate(gt, relabeled)
    assert again.idf1 == pytest.approx(base.idf1)
    assert again.mota == pytest.approx(base.mota)


def test_match_persistence_resists_a_closer_newcomer():
    # Frame 1 establishes gt 1 <-> pred A. In frame 2 a second prediction
    # overlaps the object slightly better; a greedy per-frame matcher would
    # switch and count an identity change, persistence must not.
    gt = [(1, 1, BoundingBox(0.0, 0.0, 20.0, 40.0)), (2, 1, BoundingBox(0.0, 0.0, 20.0, 40.0))]
    pred = [
        (1, 7, BoundingBox(1.0, 0.0, 20.0, 40.0)),
        (2, 7, BoundingBox(3.0, 0.0, 20.0, 40.0)),   # previous partner, iou ~0.74
        (2, 8, BoundingBox(1.0, 0.0, 20.0, 40.0)),   # newcomer, iou ~0.90
    ]
    report = evaluate(gt, pred)
    assert report.id_switches == 0
    assert report.true_positives == 2
    assert report.false_positives == 1


def test_duplicate_rows_rejected():
    rows = [(1, 1, BoundingBox(0.0, 0.0, 10.0, 10.0)),
            (1, 1, BoundingBox(5.0, 5.0, 10.0, 10.0))]
    with pytest.raises(MetricsInputError):
        evaluate(rows, [])
    with pytest.raises(MetricsInputError):
        evaluate([], rows)


def test_duplicate_message_names_the_first_repeated_row():
    box = BoundingBox(0.0, 0.0, 10.0, 10.0)
    rows = [(1, 1, box), (2, 2, box), (2, 2, box), (1, 1, box)]
    with pytest.raises(MetricsInputError, match="duplicate ground-truth entry for frame 2, id 2"):
        evaluate(rows, [])


def test_non_integer_frames_and_ids_rejected():
    box = BoundingBox(0.0, 0.0, 10.0, 10.0)
    with pytest.raises(MetricsInputError, match="ground-truth id must be an integer, got 1.5"):
        evaluate([(1, 1, box), (1, 1.5, box)], [])
    with pytest.raises(MetricsInputError, match="prediction frame must be an integer, got 2.5"):
        evaluate([], [(2.5, 1, box)])
    with pytest.raises(MetricsInputError, match="prediction id must be an integer"):
        evaluate([], [(1, "7", box)])
    # Integral floats are integers.
    report = evaluate([(1.0, 1, box)], [(1, 7.0, box)])
    assert report.true_positives == 1


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), 1.5])
def test_iou_threshold_outside_unit_interval_rejected(threshold):
    # With a threshold of 0 or below, a prediction 500 px away would count
    # as a true positive.
    gt = [(1, 1, BoundingBox(0.0, 0.0, 20.0, 40.0))]
    pred = [(1, 7, BoundingBox(500.0, 0.0, 20.0, 40.0))]
    with pytest.raises(MetricsInputError, match="iou_threshold"):
        evaluate(gt, pred, iou_threshold=threshold)
    assert evaluate(gt, gt, iou_threshold=1.0).true_positives == 1


def test_evaluate_identity_on_random_scenes():
    rng = np.random.default_rng(50)
    for _ in range(5):
        rows = []
        for tid in range(1, int(rng.integers(2, 6)) + 1):
            frames = range(1, int(rng.integers(3, 20)) + 1)
            rows += straight_rows(tid, frames, x0=rng.uniform(0, 500), y0=rng.uniform(0, 300))
        report = evaluate(rows, rows)
        assert report.mota == 1.0
        assert report.idf1 == 1.0
        assert report.id_switches == 0


def test_aggregate_sums_counts_before_ratios():
    gt_a = straight_rows(1, range(1, 11))
    gt_b = straight_rows(1, range(1, 11), x0=300.0)
    # sequence A perfect, sequence B empty: pooled MOTA is 0.5, unlike the
    # 0.5-weighted mean of per-sequence MOTAs if B had different gt size
    report = aggregate([evaluate(gt_a, gt_a), evaluate(gt_b, [])])
    assert report.num_gt_boxes == 20
    assert report.mota == pytest.approx(0.5)
    assert report.idf1 == pytest.approx(2.0 * 10 / (20 + 10))
    assert report.mostly_tracked == pytest.approx(50.0)

    # The scores are derived from the counts whenever a report is built.
    scores = [f.name for f in fields(MetricsReport) if not f.init]
    assert scores == ["mota", "motp", "idf1", "mostly_tracked", "mostly_lost"]
    perfect = evaluate(gt_a, gt_a)
    assert replace(perfect, false_positives=10).mota == 0.0
    assert replace(perfect, id_switches=1).mota == pytest.approx(0.9)

    # Pooled counts are the per-sequence sums; pooled scores are theirs.
    split = straight_rows(101, range(1, 6)) + straight_rows(102, range(6, 11))
    parts = [perfect, evaluate(gt_b, []), evaluate(gt_a, split), evaluate(gt_b, gt_a)]
    pooled = aggregate(parts)
    counts = {f.name: sum(getattr(r, f.name) for r in parts) for f in fields(MetricsReport) if f.init}
    assert len(counts) == 12
    assert {name: getattr(pooled, name) for name in counts} == counts
    assert pooled == MetricsReport(**counts)
    assert pooled.id_switches == 1 and pooled.false_positives == 10


def test_report_formatting(tmp_path):
    gt = straight_rows(1, range(1, 11))
    report = evaluate(gt, gt)
    text = format_report(report, name="demo")
    assert text.startswith("[demo]")
    assert "mota=1.0000" in text
    assert "idf1=1.0000" in text
    assert "id_switches=0" in text

    out = tmp_path / "reports" / "metrics.txt"
    write_report(out, report, name="demo")
    content = out.read_text()
    assert content == text + "\n"

    unnamed = format_report(report)
    assert not unnamed.startswith("[")


def crowded_scene(rng, num_objects=24, num_frames=48):
    """Ground truth and jittered predictions of drifting, overlapping boxes.

    Predicted ids swap between objects, some boxes are missed on either side,
    false positives appear, every 11th frame has no predictions and every
    13th no ground truth, and rows come in shuffled order.
    """
    corner = rng.uniform(0.0, 150.0, (num_objects, 2))
    size = rng.uniform(20.0, 40.0, (num_objects, 2))
    label = np.arange(num_objects) + 100
    gt, pred = [], []
    for f in range(1, num_frames + 1):
        corner += rng.normal(0.0, 2.0, corner.shape)
        if rng.random() < 0.3:
            a, b = rng.choice(num_objects, 2, replace=False)
            label[[a, b]] = label[[b, a]]
        for i in range(num_objects):
            if f % 13 and rng.random() < 0.9:
                gt.append((f, i + 1, BoundingBox(*corner[i], *size[i])))
            if f % 11 and rng.random() < 0.85:
                jitter = rng.normal(0.0, 2.0, 4)
                pred.append((f, int(label[i]), BoundingBox(*(np.r_[corner[i], size[i]] + jitter))))
        if f % 11:
            for k in range(int(rng.integers(0, 4))):
                pred.append((f, 1000 + 10 * f + k, BoundingBox(*rng.uniform(0.0, 150.0, 2), *size[k])))
    return [gt[i] for i in rng.permutation(len(gt))], [pred[i] for i in rng.permutation(len(pred))]


def recount(gt, pred, threshold):
    """CLEAR MOT counts, IOU sum and IDTP written out frame by frame with scipy.

    Per frame: keep each object's last partner (objects in id order) while it
    overlaps enough, then match the leftovers for the most pairs and, among
    those, the largest IOU sum.
    """
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    by_frame = {}
    for side, rows in enumerate((gt, pred)):
        for f, tid, box in rows:
            by_frame.setdefault(f, ([], []))[side].append((tid, box))
    last, co = {}, {}
    out = dict(tp=0, fp=0, fn=0, ids=0, iou_sum=0.0, pairs=0, contested=0)
    for f in sorted(by_frame):
        g_rows, p_rows = by_frame[f]
        g_ids, p_ids = [t for t, _ in g_rows], [t for t, _ in p_rows]
        ious = iou_matrix(*(np.array([b.as_array() for _, b in side]).reshape(-1, 4) for side in (g_rows, p_rows)))
        ok = ious >= threshold
        out["pairs"] += ious.size
        for i, j in zip(*np.nonzero(ok)):
            co[g_ids[i], p_ids[j]] = co.get((g_ids[i], p_ids[j]), 0) + 1
        pairs, taken = [], set()
        for i in sorted(range(len(g_ids)), key=g_ids.__getitem__):
            j = p_ids.index(last[g_ids[i]]) if last.get(g_ids[i]) in p_ids else None
            if j is not None and j not in taken and ok[i, j]:
                pairs.append((i, j))
                taken.add(j)
        free_g = [i for i in range(len(g_ids)) if i not in {a for a, _ in pairs}]
        free_p = [j for j in range(len(p_ids)) if j not in taken]
        if free_g and free_p:
            sub = ok[np.ix_(free_g, free_p)]
            out["contested"] += bool((sub.sum(axis=0) > 1).any() or (sub.sum(axis=1) > 1).any())
            # Each pair outweighs any IOU sum, so the most pairs come first.
            weight = np.where(sub, len(free_g) + 1.0 + ious[np.ix_(free_g, free_p)], 0.0)
            pairs += [(free_g[a], free_p[b]) for a, b in zip(*linear_sum_assignment(weight, maximize=True))
                      if sub[a, b]]
        for i, j in pairs:
            out["ids"] += g_ids[i] in last and last[g_ids[i]] != p_ids[j]
            last[g_ids[i]] = p_ids[j]
            out["iou_sum"] += ious[i, j]
        out["tp"] += len(pairs)
        out["fn"] += len(g_ids) - len(pairs)
        out["fp"] += len(p_ids) - len(pairs)
    g_order, p_order = sorted({g for g, _ in co}), sorted({p for _, p in co})
    weight = np.zeros((len(g_order), len(p_order)))
    for (g, p), count in co.items():
        weight[g_order.index(g), p_order.index(p)] = count
    out["idtp"] = int(weight[linear_sum_assignment(weight, maximize=True)].sum())
    return out


@pytest.mark.parametrize("pair_block", [None, 1, 97])
@pytest.mark.parametrize("threshold", [0.3, 0.5])
def test_evaluate_matches_frame_by_frame_recount(threshold, pair_block, monkeypatch):
    # The default block splits these scenes into several; a block of 1 puts every
    # frame over the limit, so each is a block of its own.
    if pair_block is not None:
        monkeypatch.setattr(metrics, "PAIR_BLOCK", pair_block)
    rng = np.random.default_rng(51)
    for _ in range(3):
        gt, pred = crowded_scene(rng)
        want = recount(gt, pred, threshold)
        assert want["pairs"] > metrics.PAIR_BLOCK and want["contested"] > 0
        report = evaluate(gt, pred, iou_threshold=threshold)
        got = dict(tp=report.true_positives, fp=report.false_positives, fn=report.false_negatives,
                   ids=report.id_switches, idtp=report.id_true_positives)
        assert got == {key: want[key] for key in got}
        assert report.iou_sum == want["iou_sum"]
        assert report.id_switches > 0 and report.false_positives > 0 and report.false_negatives > 0


def _box(x):
    # Boxes 20 wide and 40 tall, offset along x: a shift of d has IOU (20 - d) / (20 + d).
    return BoundingBox(float(x), 0.0, 20.0, 40.0)


# (gt rows, pred rows, ID switches): frames where a gt row or a prediction
# holds two pairs at or above the threshold.
CONTESTED = {
    # Frame 2: the last partner 7 (IOU 0.74) stays against 8 (IOU 0.90).
    "last_partner_beats_a_closer_one": (
        [(1, 1, _box(0)), (2, 1, _box(0))],
        [(1, 7, _box(1)), (2, 7, _box(3)), (2, 8, _box(1))],
        0,
    ),
    # Frame 3: objects 1 and 2 both last matched 7 and overlap it equally; the
    # lower id keeps it, and object 2 switches to 8, which only it overlaps.
    "two_objects_share_a_last_partner": (
        [(1, 1, _box(0)), (2, 2, _box(0)), (3, 1, _box(2)), (3, 2, _box(-2))],
        [(1, 7, _box(0)), (2, 7, _box(0)), (3, 7, _box(0)), (3, 8, _box(-6))],
        1,
    ),
    # Frame 1: prediction 7 overlaps objects 1 (IOU 0.74) and 2 (0.90) and
    # goes to 2; frame 2 repeats it with 1 closer, and 2 keeps 7.
    "one_prediction_over_two_objects": (
        [(1, 1, _box(3)), (1, 2, _box(-1)), (2, 1, _box(1)), (2, 2, _box(-3))],
        [(1, 7, _box(0)), (2, 7, _box(0))],
        0,
    ),
    # Chain g1-p1-g2-p2: taking the best pair g2-p1 (0.90) first would leave
    # one match; the solve takes g1-p1 (0.74) and g2-p2 (0.60).
    "chain_needs_the_solver": (
        [(1, 1, _box(4)), (1, 2, _box(0))],
        [(1, 1, _box(1)), (1, 2, _box(-5))],
        0,
    ),
    # Object 1's partner is set in contested frames 1 and 4 (8, the closer one
    # at frame 1), with object 2 alone in frames 2-3. Frame 4 keeps 8 although 7
    # is closer. Frame 5 switches to 7 alone, and frame 6 keeps 7 against 8.
    "partner_from_a_contested_frame": (
        [(1, 1, _box(0)), (2, 2, _box(100)), (3, 2, _box(100)), (4, 1, _box(0)), (5, 1, _box(0)),
         (6, 1, _box(0))],
        [(1, 7, _box(3)), (1, 8, _box(1)), (2, 9, _box(100)), (3, 9, _box(100)), (4, 7, _box(1)),
         (4, 8, _box(3)), (5, 7, _box(0)), (6, 7, _box(3)), (6, 8, _box(1))],
        1,
    ),
}


def contested_frames(gt, pred, threshold=0.5):
    """Frames in which a gt row or a prediction holds two pairs at or above ``threshold``."""
    count = 0
    for f in sorted({row[0] for row in gt}):
        boxes = [np.array([b.as_array() for g, _, b in side if g == f]).reshape(-1, 4) for side in (gt, pred)]
        hit = iou_matrix(*boxes) >= threshold
        count += bool((hit.sum(axis=0) > 1).any() or (hit.sum(axis=1) > 1).any())
    return count


@pytest.mark.parametrize("case", sorted(CONTESTED))
def test_contested_frames_match_the_recount(case):
    gt, pred, switches = CONTESTED[case]
    assert contested_frames(gt, pred) > 0
    want = recount(gt, pred, 0.5)
    report = evaluate(gt, pred)
    got = dict(tp=report.true_positives, fp=report.false_positives, fn=report.false_negatives,
               ids=report.id_switches, idtp=report.id_true_positives, iou_sum=report.iou_sum)
    assert got == {key: want[key] for key in got}
    assert report.id_switches == switches
