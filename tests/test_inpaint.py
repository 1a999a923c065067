"""Gap bridging: branch sampling, rejection, winner selection, reattachment."""

import numpy as np
import pytest

from gaptrack import (
    BoundingBox,
    Codebook,
    FrameGeometry,
    InpaintParams,
    ModelConfig,
    ModelWeights,
    SequencingError,
    advance,
    box_iou,
    inpaint,
    new_tracklet,
    sample_candidates,
    score_detection,
    reattach,
)
from gaptrack.scoring import (
    SAMPLING_MULTINOMIAL,
    SAMPLING_TOP1,
    SOURCE_DETECTED,
    SOURCE_INPAINTED,
    t_trs_for_frame_rate,
)


def programmed_weights(book, favored):
    """Weights whose predictive distribution ignores input entirely.

    ``favored`` lists, per component, the centroid index (or tuple of
    indices) receiving a +50 logit; everything else stays at 0, so the
    distribution is one-hot (or uniform over the tuple) at every step.
    """
    config = ModelConfig(num_clusters=book.k, hidden_dim=2)
    head_b = np.zeros((4, book.k))
    for c, idx in enumerate(favored):
        for i in np.atleast_1d(idx):
            head_b[c, int(i)] = 50.0
    return ModelWeights(
        config=config,
        embed_w=np.zeros((4, 2)),
        embed_b=np.zeros(2),
        lstm_w=np.zeros((4, 8)),
        lstm_b=np.zeros(8),
        head_w=np.zeros((4, 2, book.k)),
        head_b=head_b,
        res_w=np.zeros((2, 4)),
        res_b=np.zeros(4),
        input_shift=np.zeros(4),
        input_scale=np.ones(4),
    )


def object_boxes(scene, obj_id):
    return [BoundingBox(*row) for row in scene.trajectories[obj_id]]


def grown_tracklet(scene, weights, obj_id, upto):
    boxes = object_boxes(scene, obj_id)
    t = new_tracklet(obj_id, 1, boxes[0], weights)
    for frame_index in range(2, upto + 1):
        t = advance(t, boxes[frame_index - 1], frame_index, scene.geometry, SOURCE_DETECTED, weights)
    return t


def gap_setup(scene, weights, obj_id=1, last_seen=20, gap=3, extra=2):
    """Tracklet cut at ``last_seen`` plus ground-truth lookahead detections.

    The current frame is ``last_seen + gap``; frames in between went
    undetected. Lookahead holds every object's true box for the current
    frame and ``extra`` more.
    """
    t = grown_tracklet(scene, weights, obj_id, upto=last_seen)
    current = last_seen + gap
    lookahead = [
        [object_boxes(scene, oid)[current - 1 + f] for oid in scene.trajectories]
        for f in range(extra + 1)
    ]
    return t, current, lookahead


def test_lookahead_window_grows_with_frame_rate():
    assert t_trs_for_frame_rate(30.0) == 3
    assert t_trs_for_frame_rate(25.0) == 3  # 25 fps counts as high frame rate
    assert t_trs_for_frame_rate(24.9) == 2
    assert t_trs_for_frame_rate(14.0) == 2


def test_gap_must_be_positive(tiny_model, clean_scene):
    weights, book = tiny_model
    t, _, lookahead = gap_setup(clean_scene, weights)
    params = InpaintParams(num_samples=4)
    rng = np.random.default_rng(0)
    with pytest.raises(SequencingError):
        sample_candidates(t, 0, lookahead, params, weights, book, clean_scene.geometry, rng)
    with pytest.raises(ValueError):
        sample_candidates(t, 2, [], params, weights, book, clean_scene.geometry, rng)


def test_zero_samples_yields_no_candidates(tiny_model, clean_scene):
    weights, book = tiny_model
    t, _, lookahead = gap_setup(clean_scene, weights)
    params = InpaintParams(num_samples=0)
    got = sample_candidates(t, 3, lookahead, params, weights, book, clean_scene.geometry,
                            np.random.default_rng(0))
    assert got == []
    assert inpaint(t, 3, lookahead, params, weights, book, clean_scene.geometry,
                   np.random.default_rng(0)) is None


def test_top1_sampling_uses_a_single_branch(tiny_model, clean_scene):
    weights, book = tiny_model
    t, _, lookahead = gap_setup(clean_scene, weights)
    params = InpaintParams(num_samples=30, sampling=SAMPLING_TOP1)
    got = sample_candidates(t, 3, lookahead, params, weights, book, clean_scene.geometry,
                            np.random.default_rng(0))
    assert len(got) == 1
    assert got[0].branch_index == 0


def test_branch_count_and_determinism(tiny_model, clean_scene):
    weights, book = tiny_model
    t, _, lookahead = gap_setup(clean_scene, weights)
    params = InpaintParams(num_samples=12, sampling=SAMPLING_MULTINOMIAL)

    first = sample_candidates(t, 3, lookahead, params, weights, book, clean_scene.geometry,
                              np.random.default_rng(5))
    second = sample_candidates(t, 3, lookahead, params, weights, book, clean_scene.geometry,
                               np.random.default_rng(5))
    assert len(first) == 12
    for a, b in zip(first, second):
        assert a.branch_index == b.branch_index
        assert a.rejected == b.rejected
        assert a.sample_log_likelihood == b.sample_log_likelihood
        assert a.iou_score == b.iou_score
        for box_a, box_b in zip(a.boxes, b.boxes):
            assert box_a == box_b


def test_surviving_branches_carry_full_paths(tiny_model, clean_scene):
    weights, book = tiny_model
    gap, extra = 3, 2
    t, current, lookahead = gap_setup(clean_scene, weights, gap=gap, extra=extra)
    params = InpaintParams(num_samples=20, iou_threshold=0.3)
    got = sample_candidates(t, gap, lookahead, params, weights, book, clean_scene.geometry,
                            np.random.default_rng(1))
    survivors = [c for c in got if not c.rejected]
    assert survivors, "sampler found no overlap on a clean constant-velocity gap"
    for cand in survivors:
        assert len(cand.boxes) == gap + extra
        # the dedicated scoring state snapshot sits one step before the
        # current frame so a matched detection can be consumed next
        assert cand.state_at_scoring.steps_consumed == t.state.steps_consumed + gap - 1
        assert cand.iou_score > 0.0


def test_all_branches_reject_when_nothing_overlaps(tiny_model, clean_scene):
    weights, book = tiny_model
    t, _, _ = gap_setup(clean_scene, weights)
    far = [[BoundingBox(900.0, 500.0, 20.0, 20.0)]]
    params = InpaintParams(num_samples=10, iou_threshold=0.5)
    got = sample_candidates(t, 2, far, params, weights, book, clean_scene.geometry,
                            np.random.default_rng(2))
    assert all(c.rejected for c in got)
    assert {c.rejection_reason for c in got} == {"no overlap at current frame"}
    assert inpaint(t, 2, far, params, weights, book, clean_scene.geometry,
                   np.random.default_rng(2)) is None


def test_winner_bridges_toward_truth(tiny_model, clean_scene):
    weights, book = tiny_model
    gap = 3
    t, current, lookahead = gap_setup(clean_scene, weights, obj_id=2, gap=gap)
    params = InpaintParams(num_samples=30, iou_threshold=0.3)
    best = inpaint(t, gap, lookahead, params, weights, book, clean_scene.geometry,
                   np.random.default_rng(3))
    assert best is not None and not best.rejected
    truth = object_boxes(clean_scene, 2)
    # sampled gap boxes track the missing ground truth
    for offset in range(gap - 1):
        frame = t.last_frame + 1 + offset
        assert box_iou(best.path[offset], truth[frame - 1].as_array()) > 0.5
    # selection maximizes summed lookahead overlap, then likelihood
    others = sample_candidates(t, gap, lookahead, params, weights, book, clean_scene.geometry,
                               np.random.default_rng(3))
    for cand in others:
        if not cand.rejected:
            assert (best.iou_score, best.sample_log_likelihood) >= (
                cand.iou_score, cand.sample_log_likelihood)


def test_one_hot_model_reproduces_true_path_exactly():
    # A model certain of the true constant velocity bridges a 1-frame gap
    # onto the exact ground-truth path: every sampled box coincides with its
    # detection, so the overlap sum saturates at one per lookahead frame.
    geometry = FrameGeometry(1000.0, 1000.0)
    book = Codebook(centroids=np.array([
        [0.0, 0.01],   # dx: +10 px favored
        [0.0, 0.005],  # dy: +5 px favored
        [0.0, 0.01],   # dw: 0 favored
        [0.0, 0.01],   # dh: 0 favored
    ]), k=2)
    weights = programmed_weights(book, favored=[1, 1, 0, 0])
    t = new_tracklet(1, 10, BoundingBox(100.0, 100.0, 50.0, 50.0), weights)
    true_path = [BoundingBox(100.0 + 10.0 * i, 100.0 + 5.0 * i, 50.0, 50.0) for i in (1, 2, 3)]
    lookahead = [[b] for b in true_path]

    best = inpaint(t, 1, lookahead, InpaintParams(num_samples=5), weights, book, geometry,
                   np.random.default_rng(0))
    assert best is not None
    assert best.iou_score == pytest.approx(3.0)  # t_trs + 1 with t_trs = 2
    for got, want in zip(best.boxes, true_path):
        np.testing.assert_allclose(got.as_array(), want.as_array(), atol=1e-9)


def test_aligned_branch_beats_counter_moving_branch():
    # Model is 50/50 between moving 10 px right or left. A right branch rides
    # the true detection with full overlap at every lookahead frame; a left
    # branch starts on a static false detection whose overlap decays as the
    # branch keeps moving. The persistent branch must win.
    geometry = FrameGeometry(1000.0, 1000.0)
    book = Codebook(centroids=np.array([
        [-0.01, 0.01],
        [-0.01, 0.0],
        [-0.01, 0.0],
        [-0.01, 0.0],
    ]), k=2)
    weights = programmed_weights(book, favored=[(0, 1), 1, 1, 1])
    t = new_tracklet(1, 10, BoundingBox(500.0, 500.0, 100.0, 100.0), weights)
    np.testing.assert_allclose(t.dist[0], [0.5, 0.5], atol=1e-9)

    true_dets = [BoundingBox(500.0 + 10.0 * i, 500.0, 100.0, 100.0) for i in (1, 2, 3)]
    false_det = BoundingBox(490.0, 500.0, 100.0, 100.0)
    lookahead = [[d, false_det] for d in true_dets]
    params = InpaintParams(num_samples=16)

    cands = sample_candidates(t, 1, lookahead, params, weights, book, geometry,
                              np.random.default_rng(0))
    patterns = set()
    for cand in cands:
        if not cand.rejected:
            xs = tuple(b.x for b in cand.boxes)
            if xs == (510.0, 520.0, 530.0):
                patterns.add("right")
            elif xs == (490.0, 480.0, 470.0):
                patterns.add("left")
    assert patterns == {"right", "left"}, "seed must produce both branch kinds"

    best = inpaint(t, 1, lookahead, params, weights, book, geometry, np.random.default_rng(0))
    assert [b.x for b in best.boxes] == [510.0, 520.0, 530.0]
    assert best.iou_score == pytest.approx(3.0)


def test_reattach_commits_gap_then_detection(tiny_model, clean_scene):
    weights, book = tiny_model
    gap = 3
    t, current, lookahead = gap_setup(clean_scene, weights, obj_id=3, gap=gap)
    truth = object_boxes(clean_scene, 3)
    params = InpaintParams(num_samples=30, iou_threshold=0.3)
    best = inpaint(t, gap, lookahead, params, weights, book, clean_scene.geometry,
                   np.random.default_rng(4))
    assert best is not None

    detection = truth[current - 1]
    ll = score_detection(best.origin[None], best.dist_at_scoring[None], detection.as_array()[None],
                         clean_scene.geometry, book)
    assert ll.shape == (1, 1) and np.isfinite(ll[0, 0])

    frames_before = len(t.boxes)
    t = reattach(t, best, detection, current, clean_scene.geometry, weights)
    assert len(t.boxes) == frames_before + gap
    tail = t.boxes[-gap:]
    assert [tb.frame for tb in tail] == list(range(current - gap + 1, current + 1))
    assert [tb.source for tb in tail] == [SOURCE_INPAINTED] * (gap - 1) + [SOURCE_DETECTED]
    assert tail[-1].box == detection
    # frames stay contiguous across the whole history
    frames = [tb.frame for tb in t.boxes]
    assert frames == list(range(frames[0], frames[0] + len(frames)))


def per_branch_fate(cand, gap, total_steps, current_dets, threshold):
    """Reference rejection rule, one branch at a time: degenerate if the path
    stops short, else no overlap if its current-frame box's best IOU against
    the current detections falls under the threshold."""
    if len(cand.path) < total_steps:
        return "degenerate box"
    box = cand.path[gap - 1]
    best = max((float(box_iou(box, d.as_array())) for d in current_dets), default=0.0)
    return "no overlap at current frame" if best < threshold else ""


def check_candidates(cands, tracklet, gap, lookahead, threshold):
    total_steps = gap + len(lookahead) - 1
    fates = []
    for cand in cands:
        fate = per_branch_fate(cand, gap, total_steps, lookahead[0], threshold)
        assert cand.rejection_reason == fate
        assert cand.rejected == (fate != "")
        # the box views are the path rows and the scoring origin
        assert len(cand.boxes) == len(cand.path)
        for box, row in zip(cand.boxes, cand.path):
            assert box == BoundingBox(*row)
            assert np.array_equal(box.as_array(), row)
        assert np.array_equal(cand.box_at_scoring.as_array(), cand.origin)
        if not fate:
            before = cand.path[gap - 2] if gap > 1 else tracklet.last_box.box.as_array()
            assert np.array_equal(cand.origin, before)
        fates.append(fate)
    return fates


def test_rejections_match_per_branch_overlap_rule(tiny_model, clean_scene):
    weights, book = tiny_model
    seen = set()
    for gap, threshold, seed in ((1, 0.5, 0), (3, 0.5, 1), (3, 0.7, 2), (4, 0.3, 3), (2, 0.9, 4)):
        t, _, lookahead = gap_setup(clean_scene, weights, obj_id=1 + seed, gap=gap)
        params = InpaintParams(num_samples=30, iou_threshold=threshold)
        cands = sample_candidates(t, gap, lookahead, params, weights, book, clean_scene.geometry,
                                  np.random.default_rng(seed))
        seen.update(check_candidates(cands, t, gap, lookahead, threshold))
    assert seen == {"", "no overlap at current frame"}


def test_rejections_cover_degenerate_and_empty_frames():
    # Half the branches shrink the width below zero on their first step; of
    # the rest, those moving right keep full overlap with the current
    # detection and those moving left fall under the threshold.
    geometry = FrameGeometry(1000.0, 1000.0)
    book = Codebook(centroids=np.array([
        [-0.01, 0.01],
        [0.0, 0.01],
        [-0.2, 0.0],
        [0.0, 0.01],
    ]), k=2)
    weights = programmed_weights(book, favored=[(0, 1), 0, (0, 1), 0])
    t = new_tracklet(1, 10, BoundingBox(500.0, 500.0, 100.0, 100.0), weights)
    params = InpaintParams(num_samples=24, iou_threshold=0.7)
    dets = [BoundingBox(510.0 + 10.0 * i, 500.0, 100.0, 100.0) for i in range(3)]
    lookahead = [[d] for d in dets]
    for gap in (1, 2):
        cands = sample_candidates(t, gap, lookahead, params, weights, book, geometry,
                                  np.random.default_rng(gap))
        fates = check_candidates(cands, t, gap, lookahead, 0.7)
        assert "degenerate box" in fates and "" in fates

    # a current frame with no detections rejects every surviving branch
    cands = sample_candidates(t, 1, [[], dets[1:]], params, weights, book, geometry,
                              np.random.default_rng(0))
    fates = check_candidates(cands, t, 1, [[], dets[1:]], 0.7)
    assert set(fates) == {"degenerate box", "no overlap at current frame"}
