"""Gap bridging: branch sampling, rejection, winner selection, reattachment."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from gaptrack import (
    Codebook,
    FrameGeometry,
    InpaintParams,
    ModelConfig,
    ModelWeights,
    SequencingError,
    advance,
    apply_velocity,
    box_iou,
    cold_start,
    decode,
    inpaint,
    new_tracklet,
    sample_candidates,
    score_detection,
    reattach,
)
from gaptrack.motion_model import inverse_cdf
from gaptrack.scoring import (
    REACH_TOLERANCE,
    SAMPLING_MULTINOMIAL,
    SAMPLING_TOP1,
    SOURCE_DETECTED,
    SOURCE_INPAINTED,
    branch_uniforms,
    reachable_extent,
)
from gaptrack.tracker import detection_arrays


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
    """One object's (x, y, w, h) rows, frame 1 first."""
    return scene.trajectories[obj_id]


def detected(scene, frame):
    """The scene's detections on ``frame`` as one (M, 4) array."""
    return detection_arrays(scene.detections, 0.0).get(frame, np.zeros((0, 4)))


def grown_tracklet(scene, weights, obj_id, upto):
    boxes = object_boxes(scene, obj_id)
    t = new_tracklet(obj_id, 1, boxes[0], cold_start(weights))
    for frame_index in range(2, upto + 1):
        advance([t], boxes[frame_index - 1 : frame_index], scene.geometry, weights)
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
        np.stack([object_boxes(scene, oid)[current - 1 + f] for oid in scene.trajectories])
        for f in range(extra + 1)
    ]
    return t, current, lookahead


def assert_same_candidate(a, b):
    """Bit-identical candidates (or both None)."""
    assert (a is None) == (b is None)
    if a is None:
        return
    assert (a.tracklet_id, a.branch_index, a.gap) == (b.tracklet_id, b.branch_index, b.gap)
    assert (a.rejected, a.rejection_reason) == (b.rejected, b.rejection_reason)
    assert a.sample_log_likelihood == b.sample_log_likelihood
    assert a.iou_score == b.iou_score
    for x, y in ((a.path, b.path), (a.origin, b.origin), (a.dist_at_scoring, b.dist_at_scoring),
                 (a.state_at_scoring.hidden, b.state_at_scoring.hidden),
                 (a.state_at_scoring.cell, b.state_at_scoring.cell)):
        assert np.array_equal(x, y)


def test_lookahead_window_grows_with_frame_rate():
    assert InpaintParams().lookahead_frames(30.0) == 3
    assert InpaintParams().lookahead_frames(25.0) == 3  # 25 fps counts as high frame rate
    assert InpaintParams().lookahead_frames(24.9) == 2
    assert InpaintParams().lookahead_frames(14.0) == 2


def test_gap_must_be_positive(tiny_model, clean_scene):
    weights, book = tiny_model
    t, current, lookahead = gap_setup(clean_scene, weights)
    params = InpaintParams(num_samples=4)
    geometry = clean_scene.geometry
    # the gap is the frame minus the last frame: a tracklet last seen on or
    # after the current frame has none to bridge
    for frame in (t.last_frame, t.last_frame - 1):
        with pytest.raises(SequencingError, match=f"last seen on frame {t.last_frame} has no gap"):
            sample_candidates([t], lookahead, params, weights, book, geometry, frame)
        with pytest.raises(SequencingError, match=f"last seen on frame {t.last_frame} has no gap"):
            inpaint([t], lookahead, params, weights, book, geometry, frame)
    with pytest.raises(ValueError):
        sample_candidates([t], [], params, weights, book, geometry, current)
    with pytest.raises(ValueError, match="distinct"):
        sample_candidates([t, t], lookahead, params, weights, book, geometry, current)


def test_zero_samples_yields_no_candidates(tiny_model, clean_scene):
    weights, book = tiny_model
    t, current, lookahead = gap_setup(clean_scene, weights)
    params = InpaintParams(num_samples=0)
    got = sample_candidates([t], lookahead, params, weights, book, clean_scene.geometry, current)
    assert len(got) == 0
    assert inpaint([t], lookahead, params, weights, book, clean_scene.geometry, current) == [None]
    assert inpaint([], lookahead, InpaintParams(), weights, book, clean_scene.geometry, current) == []


def test_zero_samples_disables_top1_sampling_too(tiny_model, clean_scene):
    weights, book = tiny_model
    t, current, lookahead = gap_setup(clean_scene, weights)
    params = InpaintParams(num_samples=0, sampling=SAMPLING_TOP1)
    assert len(sample_candidates([t], lookahead, params, weights, book, clean_scene.geometry, current)) == 0
    assert inpaint([t], lookahead, params, weights, book, clean_scene.geometry, current) == [None]
    assert t.branch_store is None


def test_top1_sampling_uses_a_single_branch(tiny_model, clean_scene):
    weights, book = tiny_model
    t, current, lookahead = gap_setup(clean_scene, weights)
    params = InpaintParams(num_samples=30, sampling=SAMPLING_TOP1)
    got = sample_candidates([t], lookahead, params, weights, book, clean_scene.geometry, current)
    assert len(got) == 1
    assert got[0].branch_index == 0
    assert got[0].tracklet_id == t.tracklet_id


def test_branch_count_and_determinism(tiny_model, clean_scene):
    weights, book = tiny_model
    t, current, lookahead = gap_setup(clean_scene, weights)
    params = InpaintParams(num_samples=12, sampling=SAMPLING_MULTINOMIAL, seed=5)

    first = sample_candidates([t], lookahead, params, weights, book, clean_scene.geometry, current)
    second = sample_candidates([t], lookahead, params, weights, book, clean_scene.geometry, current)
    assert len(first) == 12
    assert [c.branch_index for c in first] == list(range(12))
    for a, b in zip(first, second):
        assert_same_candidate(a, b)


def test_surviving_branches_carry_full_paths(tiny_model, clean_scene):
    weights, book = tiny_model
    gap, extra = 3, 2
    t, current, lookahead = gap_setup(clean_scene, weights, gap=gap, extra=extra)
    params = InpaintParams(num_samples=20, iou_threshold=0.3, seed=1)
    got = sample_candidates([t], lookahead, params, weights, book, clean_scene.geometry, current)
    survivors = [c for c in got if not c.rejected]
    assert survivors, "sampler found no overlap on a clean constant-velocity gap"
    for cand in survivors:
        assert len(cand.path) == gap + extra
        # the scoring origin sits one step before the current frame so a
        # matched detection can be consumed next
        assert np.array_equal(cand.origin, cand.path[gap - 2])
        assert cand.iou_score > 0.0


def test_all_branches_reject_when_nothing_overlaps(tiny_model, clean_scene):
    weights, book = tiny_model
    t, _, _ = gap_setup(clean_scene, weights)
    geometry = clean_scene.geometry
    params = InpaintParams(num_samples=10, iou_threshold=0.5, seed=2)
    # a speck inside the reachable extent overlaps every branch too little
    x, y, w, h = t.last_box.box
    speck = [np.array([[x + 0.5 * w, y + 0.5 * h, 1.0, 1.0]])]
    got = sample_candidates([t], speck, params, weights, book, geometry, 22)
    assert len(got) == 10
    assert {c.rejection_reason for c in got} == {"no overlap at current frame"}
    assert inpaint([t], speck, params, weights, book, geometry, 22) == [None]
    # a detection beyond the reachable extent is not even sampled for
    far = [np.array([[900.0, 500.0, 20.0, 20.0]])]
    assert len(sample_candidates([t], far, params, weights, book, geometry, 22)) == 0
    assert inpaint([t], far, params, weights, book, geometry, 22) == [None]


def test_winner_bridges_toward_truth(tiny_model, clean_scene):
    weights, book = tiny_model
    gap = 3
    t, current, lookahead = gap_setup(clean_scene, weights, obj_id=2, gap=gap)
    params = InpaintParams(num_samples=30, iou_threshold=0.3, seed=3)
    [best] = inpaint([t], lookahead, params, weights, book, clean_scene.geometry, current)
    assert best is not None and not best.rejected
    truth = object_boxes(clean_scene, 2)
    # sampled gap boxes track the missing ground truth
    for offset in range(gap - 1):
        frame = t.last_frame + 1 + offset
        assert box_iou(best.path[offset], truth[frame - 1]) > 0.5
    # selection maximizes summed lookahead overlap, then likelihood
    others = sample_candidates([t], lookahead, params, weights, book, clean_scene.geometry,
                               current)
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
    t = new_tracklet(1, 10, np.array([100.0, 100.0, 50.0, 50.0]), cold_start(weights))
    true_path = np.array([[100.0 + 10.0 * i, 100.0 + 5.0 * i, 50.0, 50.0] for i in (1, 2, 3)])
    lookahead = [row[None] for row in true_path]

    [best] = inpaint([t], lookahead, InpaintParams(num_samples=5), weights, book, geometry, 11)
    assert best is not None
    assert best.iou_score == pytest.approx(3.0)  # t_trs + 1 with t_trs = 2
    np.testing.assert_allclose(best.path, true_path, atol=1e-9)


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
    t = new_tracklet(1, 10, np.array([500.0, 500.0, 100.0, 100.0]), cold_start(weights))
    np.testing.assert_allclose(t.dist[0], [0.5, 0.5], atol=1e-9)

    true_dets = [[500.0 + 10.0 * i, 500.0, 100.0, 100.0] for i in (1, 2, 3)]
    false_det = [490.0, 500.0, 100.0, 100.0]
    lookahead = [np.array([d, false_det]) for d in true_dets]
    params = InpaintParams(num_samples=16, seed=3)

    cands = sample_candidates([t], lookahead, params, weights, book, geometry, 11)
    patterns = set()
    for cand in cands:
        if not cand.rejected:
            xs = tuple(cand.path[:, 0].tolist())
            if xs == (510.0, 520.0, 530.0):
                patterns.add("right")
            elif xs == (490.0, 480.0, 470.0):
                patterns.add("left")
    assert patterns == {"right", "left"}, "seed must produce both branch kinds"

    [best] = inpaint([t], lookahead, params, weights, book, geometry, 11)
    assert best.path[:, 0].tolist() == [510.0, 520.0, 530.0]
    assert best.iou_score == pytest.approx(3.0)


def reference_winners(candidates):
    """The winner scan ``inpaint`` ran before the branch table, kept as the oracle.

    Candidates are read one at a time in table order; a surviving branch
    replaces the held one only on a strictly higher (IOU score,
    log-likelihood), so on a full tie the lower branch index stays.
    """
    best = {}
    for cand in candidates:
        if cand.rejected:
            continue
        held = best.get(cand.tracklet_id)
        if held is None or (cand.iou_score, cand.sample_log_likelihood) > (
                held.iou_score, held.sample_log_likelihood):
            best[cand.tracklet_id] = cand
    return best


def two_way_scene(left_logit):
    """A tracklet that moves 10 px right (logit 50) or left (``left_logit``) each step.

    Its lookahead holds a detection on each pure path, so a branch that keeps
    one direction overlaps a detection fully on every frame: the pure right
    and pure left branches tie on IOU, and only the logits separate their
    log-likelihoods.
    """
    geometry = FrameGeometry(1000.0, 1000.0)
    book = Codebook(centroids=np.array([
        [-0.01, 0.01],
        [-0.01, 0.0],
        [-0.01, 0.0],
        [-0.01, 0.0],
    ]), k=2)
    weights = programmed_weights(book, favored=[1, 1, 1, 1])
    head_b = weights.head_b.copy()
    head_b[0, 0] = left_logit
    weights = replace(weights, head_b=head_b)
    t = new_tracklet(1, 10, np.array([500.0, 500.0, 100.0, 100.0]), cold_start(weights))
    lookahead = [np.array([[500.0 + 10.0 * i, 500.0, 100.0, 100.0], [500.0 - 10.0 * i, 500.0, 100.0, 100.0]])
                 for i in (1, 2, 3)]
    return t, lookahead, weights, book, geometry


def picked_like_the_reference(tracklet, lookahead, weights, book, geometry, params):
    """Sample the branches, then check ``inpaint``'s winner against :func:`reference_winners`."""
    table = sample_candidates([tracklet], lookahead, params, weights, book, geometry, 11)
    want = reference_winners(table).get(tracklet.tracklet_id)
    [got] = inpaint([tracklet], lookahead, params, weights, book, geometry, 11)
    assert (got is None) == (want is None)
    if want is not None:
        assert (got.branch_index, got.iou_score, got.sample_log_likelihood) == (
            want.branch_index, want.iou_score, want.sample_log_likelihood)
        assert np.array_equal(got.path, want.path) and np.array_equal(got.origin, want.origin)
    return table, got


def test_winner_pick_matches_the_per_candidate_scan():
    params = InpaintParams(num_samples=40, seed=5)
    # IOU ties exactly between the pure right and left branches; the right
    # move is likelier, so log-likelihood decides
    table, best = picked_like_the_reference(*two_way_scene(49.8), params)
    pure = [c for c in table if not c.rejected and c.iou_score == 3.0]
    assert {c.path[0, 0] for c in pure} == {490.0, 510.0}, "seed must produce both pure kinds"
    assert best.path[:, 0].tolist() == [510.0, 520.0, 530.0]
    assert best.sample_log_likelihood > max(c.sample_log_likelihood for c in pure if c.path[0, 0] == 490.0)

    # both moves equally likely: every pure branch ties on IOU and
    # log-likelihood, and the lowest branch index wins
    table, best = picked_like_the_reference(*two_way_scene(50.0), params)
    tied = [c.branch_index for c in table
            if (c.iou_score, c.sample_log_likelihood) == (best.iou_score, best.sample_log_likelihood)]
    assert len(tied) > 1 and best.branch_index == min(tied)
    assert best.iou_score == 3.0

    # a speck inside the reachable extent: every branch is rejected
    t, _, weights, book, geometry = two_way_scene(50.0)
    speck = [np.array([[550.0, 550.0, 1.0, 1.0]])]
    table, best = picked_like_the_reference(t, speck, weights, book, geometry, params)
    assert len(table) == 40 and all(c.rejected for c in table)
    assert best is None


def test_reattach_commits_gap_then_detection(tiny_model, clean_scene):
    weights, book = tiny_model
    gap = 3
    t, current, lookahead = gap_setup(clean_scene, weights, obj_id=3, gap=gap)
    truth = object_boxes(clean_scene, 3)
    params = InpaintParams(num_samples=30, iou_threshold=0.3, seed=4)
    [best] = inpaint([t], lookahead, params, weights, book, clean_scene.geometry, current)
    assert best is not None

    detection = truth[current - 1]
    ll = score_detection(best.origin[None], best.dist_at_scoring[None], detection[None],
                         clean_scene.geometry, book)
    assert ll.shape == (1, 1) and np.isfinite(ll[0, 0])

    other = grown_tracklet(clean_scene, weights, obj_id=4, upto=2)
    with pytest.raises(ValueError):
        reattach(other, best)

    frames_before = len(t.boxes)
    t = reattach(t, best)
    # the tracklet now stands one frame before the current one, in the
    # candidate's scoring state
    assert len(t.boxes) == frames_before + gap - 1
    assert t.last_frame == current - 1
    assert t.state is best.state_at_scoring and t.dist is best.dist_at_scoring
    advance([t], detection[None], clean_scene.geometry, weights)
    tail = t.boxes[-gap:]
    assert [tb.frame for tb in tail] == list(range(current - gap + 1, current + 1))
    assert [tb.source for tb in tail] == [SOURCE_INPAINTED] * (gap - 1) + [SOURCE_DETECTED]
    assert np.array_equal(tail[-1].box, detection)
    assert len(t.boxes) == frames_before + gap
    # the committed gap boxes are the winner's path rows
    assert np.array_equal(np.stack([tb.box for tb in tail[:-1]]), best.path[: gap - 1])
    # frames stay contiguous across the whole history
    frames = [tb.frame for tb in t.boxes]
    assert frames == list(range(frames[0], frames[0] + len(frames)))


def per_branch_fate(cand, total_steps, current_dets, threshold):
    """Reference rejection rule, one branch at a time: degenerate if the path
    stops short, else no overlap if its current-frame box's best IOU against
    the current detections falls under the threshold."""
    if len(cand.path) < total_steps:
        return "degenerate box"
    box = cand.path[cand.gap - 1]
    best = max((float(box_iou(box, d)) for d in current_dets), default=0.0)
    return "no overlap at current frame" if best < threshold else ""


def check_candidates(cands, tracklets, lookahead, threshold):
    by_id = {t.tracklet_id: t for t in tracklets}
    fates = []
    for cand in cands:
        tracklet = by_id[cand.tracklet_id]
        gap = cand.gap
        fate = per_branch_fate(cand, gap + len(lookahead) - 1, lookahead[0], threshold)
        assert cand.rejection_reason == fate
        assert cand.rejected == (fate != "")
        if not fate:
            before = cand.path[gap - 2] if gap > 1 else tracklet.last_box.box
            assert np.array_equal(cand.origin, before)
        fates.append(fate)
    return fates


def test_rejections_match_per_branch_overlap_rule(tiny_model, clean_scene):
    weights, book = tiny_model
    seen = set()
    for gap, threshold, seed in ((1, 0.5, 0), (3, 0.5, 1), (3, 0.7, 2), (4, 0.3, 3), (2, 0.9, 4)):
        t, current, lookahead = gap_setup(clean_scene, weights, obj_id=1 + seed, gap=gap)
        params = InpaintParams(num_samples=30, iou_threshold=threshold, seed=seed)
        cands = sample_candidates([t], lookahead, params, weights, book, clean_scene.geometry,
                                  current)
        seen.update(check_candidates(cands, [t], lookahead, threshold))
    assert seen == {"", "no overlap at current frame"}


def test_one_batch_applies_each_tracklets_own_gap(tiny_model, clean_scene):
    # Tracklets with different gaps share one batch; each row keeps its own
    # step count, scoring snapshot and rejection rule.
    weights, book = tiny_model
    current = 30
    gaps = [1, 4, 2, 4, 3]
    tracklets = [grown_tracklet(clean_scene, weights, obj, current - g)
                 for obj, g in zip((1, 2, 3, 4, 5), gaps)]
    lookahead = [np.stack([object_boxes(clean_scene, o)[current - 1 + f] for o in clean_scene.trajectories])
                 for f in range(3)]
    params = InpaintParams(num_samples=8, iou_threshold=0.5, seed=9)
    cands = sample_candidates(tracklets, lookahead, params, weights, book,
                              clean_scene.geometry, current)
    # canonical layout: gap descending, then tracklet ID; branches in order
    want = sorted(zip(gaps, (t.tracklet_id for t in tracklets)), key=lambda p: (-p[0], p[1]))
    assert [(c.gap, c.tracklet_id, c.branch_index) for c in cands] == [
        (g, tid, b) for g, tid in want for b in range(8)]
    assert "" in check_candidates(cands, tracklets, lookahead, 0.5)


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
    t = new_tracklet(1, 10, np.array([500.0, 500.0, 100.0, 100.0]), cold_start(weights))
    params = InpaintParams(num_samples=24, iou_threshold=0.7, seed=3)
    dets = np.array([[510.0 + 10.0 * i, 500.0, 100.0, 100.0] for i in range(3)])
    lookahead = [d[None] for d in dets]
    for gap in (1, 2):
        cands = sample_candidates([t], lookahead, params, weights, book, geometry, 10 + gap)
        fates = check_candidates(cands, [t], lookahead, 0.7)
        assert "degenerate box" in fates and "" in fates

    # a current frame with no detections leaves nothing to reach: every
    # branch would be rejected, so none is sampled
    empty_first = [np.zeros((0, 4)), dets[1:]]
    assert len(sample_candidates([t], empty_first, params, weights, book, geometry, 11)) == 0
    # without an overlap threshold nothing is pruned or rejected for overlap
    cands = sample_candidates([t], empty_first, replace(params, iou_threshold=0.0),
                              weights, book, geometry, 11)
    assert set(check_candidates(cands, [t], empty_first, 0.0)) == {"degenerate box", ""}


def test_reachable_extent_holds_every_sampled_branch(tiny_model, clean_scene):
    # Random tracklets, gaps and frames: each branch that reaches the current
    # frame lies inside its tracklet's reachable rectangle there.
    weights, book = tiny_model
    geometry = clean_scene.geometry
    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(5):
        current = int(rng.integers(12, 70))
        objs = [int(o) for o in rng.choice(list(clean_scene.trajectories), size=4, replace=False)]
        gaps = [int(g) for g in rng.integers(1, 8, size=4)]
        tracklets = [grown_tracklet(clean_scene, weights, o, current - g) for o, g in zip(objs, gaps)]
        # shift some tracklets off their objects so branches wander widely
        for t in tracklets[::2]:
            shift = [rng.uniform(-80, 80), rng.uniform(-80, 80), 0.0, 0.0]
            t.boxes[-1] = t.boxes[-1]._replace(box=t.last_box.box + shift)
        lookahead = [detected(clean_scene, current)]
        params = InpaintParams(num_samples=25, iou_threshold=0.0, seed=trial)
        cands = sample_candidates(tracklets, lookahead, params, weights, book, geometry, current)
        extent = reachable_extent(np.stack([t.last_box.box for t in tracklets]),
                                  np.array(gaps), book, geometry)
        row = {t.tracklet_id: i for i, t in enumerate(tracklets)}
        for cand in cands:
            if len(cand.path) < cand.gap:
                continue
            x1, y1, x2, y2 = extent[row[cand.tracklet_id]]
            x, y, w, h = cand.path[cand.gap - 1]
            assert x >= x1 - REACH_TOLERANCE and y >= y1 - REACH_TOLERANCE
            assert x + w <= x2 + REACH_TOLERANCE and y + h <= y2 + REACH_TOLERANCE
            checked += 1
    assert checked > 300


def test_reachable_extent_is_attained_by_extreme_branches():
    # A model that only ever samples the extreme centroids: over enough
    # branches, each side of the rectangle is reached, so it is the tightest
    # bound and not merely a bound.
    geometry = FrameGeometry(1000.0, 800.0)
    book = Codebook(centroids=np.array([
        [-0.02, 0.0, 0.01],
        [-0.01, 0.0, 0.03],
        [-0.005, 0.0, 0.004],
        [-0.002, 0.0, 0.006],
    ]), k=3)
    weights = programmed_weights(book, favored=[(0, 2)] * 4)
    start = cold_start(weights)
    tracklets = [new_tracklet(1, 8, np.array([400.0, 300.0, 50.0, 60.0]), start),
                 new_tracklet(2, 7, np.array([100.0, 500.0, 30.0, 20.0]), start)]
    gaps = [2, 3]
    params = InpaintParams(num_samples=200, iou_threshold=0.0, seed=12)
    cands = sample_candidates(tracklets, [np.zeros((0, 4))], params, weights, book, geometry, 10)
    extent = reachable_extent(np.stack([t.last_box.box for t in tracklets]),
                              np.array(gaps), book, geometry)
    for i, t in enumerate(tracklets):
        at = np.stack([c.path[c.gap - 1] for c in cands if c.tracklet_id == t.tracklet_id])
        edges = np.array([at[:, 0].min(), at[:, 1].min(),
                          (at[:, 0] + at[:, 2]).max(), (at[:, 1] + at[:, 3]).max()])
        np.testing.assert_allclose(edges, extent[i], rtol=0.0, atol=1e-9)


def test_unreachable_tracklet_is_skipped_and_moves_no_other(tiny_model, clean_scene):
    weights, book = tiny_model
    geometry = clean_scene.geometry
    current = 40
    gaps = [2, 3, 1]
    tracklets = [grown_tracklet(clean_scene, weights, obj, current - g) for obj, g in zip((1, 2, 3), gaps)]
    lookahead = [detected(clean_scene, current + f) for f in range(3)]
    # a tracklet whose reachable rectangle misses every current detection
    far = new_tracklet(99, current - 2, np.array([2.0, 2.0, 6.0, 6.0]), cold_start(weights))
    x1, y1, x2, y2 = reachable_extent(far.last_box.box[None], np.array([2]), book, geometry)[0]
    for x, y, w, h in lookahead[0]:
        assert min(x2, x + w) <= max(x1, x) or min(y2, y + h) <= max(y1, y)

    params = InpaintParams(num_samples=15, iou_threshold=0.5, seed=6)
    with_far = inpaint(tracklets + [far], lookahead, params, weights, book, geometry, current)
    without = inpaint(tracklets, lookahead, params, weights, book, geometry, current)
    assert with_far[-1] is None
    assert any(w is not None for w in without)
    for a, b in zip(with_far[:-1], without):
        assert_same_candidate(a, b)
    cands = sample_candidates([far] + tracklets, lookahead, params, weights, book,
                              geometry, current)
    assert 99 not in {c.tracklet_id for c in cands}
    assert len(cands) == 15 * len(tracklets)


def test_winners_do_not_depend_on_tracklet_order(tiny_model, clean_scene):
    weights, book = tiny_model
    geometry = clean_scene.geometry
    current = 33
    gaps = [3, 1, 2, 3, 4, 1]
    tracklets = [grown_tracklet(clean_scene, weights, obj, current - g)
                 for obj, g in zip((1, 2, 3, 4, 5, 6), gaps)]
    lookahead = [detected(clean_scene, current + f) for f in range(3)]
    params = InpaintParams(num_samples=12, iou_threshold=0.3, seed=8)
    base = inpaint(tracklets, lookahead, params, weights, book, geometry, current)
    assert sum(w is not None for w in base) >= 3
    rng = np.random.default_rng(1)
    for perm in ([5, 4, 3, 2, 1, 0], *(rng.permutation(6) for _ in range(3))):
        got = inpaint([tracklets[i] for i in perm], lookahead, params,
                      weights, book, geometry, current)
        for i, winner in zip(perm, got):
            assert_same_candidate(winner, base[i])


def test_branch_draws_depend_only_on_seed_tracklet_and_frame():
    # The programmed model's distribution ignores its inputs bit for bit, so
    # each sampled path can be replayed from the tracklet's own uniforms.
    geometry = FrameGeometry(1000.0, 1000.0)
    book = Codebook(centroids=np.array([
        [-0.01, 0.0, 0.01],
        [-0.01, 0.0, 0.01],
        [-0.001, 0.0, 0.001],
        [-0.001, 0.0, 0.001],
    ]), k=3)
    weights = programmed_weights(book, favored=[(0, 1, 2), (0, 2), 1, 1])
    start = cold_start(weights)
    box = np.array([400.0, 400.0, 60.0, 60.0])
    params = InpaintParams(num_samples=7, iou_threshold=0.0, seed=13)
    lookahead = [box[None]] * 3
    last_seen, gap, steps = 17, 3, 5

    def paths(tracklet_id, others, current=last_seen + gap):
        tracklets = [new_tracklet(tracklet_id, last_seen, box, start)]
        tracklets += [new_tracklet(o, current - g, box, start) for o, g in others]
        cands = sample_candidates(tracklets, lookahead, params, weights, book, geometry, current)
        return np.stack([c.path for c in cands if c.tracklet_id == tracklet_id])

    def replay(u):
        want = np.zeros((params.num_samples, len(u), 4))
        last = np.tile(box, (params.num_samples, 1))
        dist = np.broadcast_to(start[1], (params.num_samples, 4, book.k))
        for s in range(len(u)):
            last = apply_velocity(last, decode(inverse_cdf(dist, u[s]), book), geometry)
            want[:, s] = last
        return want

    # the stream is keyed by the first unobserved frame, not the current one
    u = branch_uniforms(params.seed, 5, last_seen + 1, steps, params.num_samples)
    seq = np.random.SeedSequence(params.seed, spawn_key=(5, last_seen + 1))
    assert np.array_equal(u, np.random.default_rng(seq).random((steps, params.num_samples, 4)))
    want = replay(u)

    alone = paths(5, [])
    assert np.array_equal(alone, want)
    assert np.array_equal(paths(5, [(2, 4), (9, 1), (7, 3)]), want)
    assert np.array_equal(paths(5, [(7, 3), (2, 4)]), want)
    assert not np.array_equal(paths(6, []), want)
    # one frame later the same gap's paths are extended by one step
    longer = paths(5, [(2, 4)], current=last_seen + gap + 1)
    assert np.array_equal(longer[:, :steps], want)
    assert np.array_equal(longer, replay(branch_uniforms(params.seed, 5, last_seen + 1, steps + 1,
                                                         params.num_samples)))

    # A store extended frame by frame over a 6-frame gap draws exactly the
    # rows branch_uniforms gives its steps, also after it is rebuilt: its
    # stream stands at the row after the last step taken.
    kept = new_tracklet(5, last_seen, box, start)
    for gap in range(1, 7):
        if gap == 4:
            kept.branch_store = None
        held = kept.branch_store
        cands = sample_candidates([kept], lookahead, params, weights, book, geometry, last_seen + gap)
        assert (kept.branch_store is held) == (gap not in (1, 4))
        u = branch_uniforms(params.seed, 5, last_seen + 1, gap + 3, params.num_samples)
        assert np.array_equal(np.stack([c.path for c in cands]), replay(u[:-1]))
        assert np.array_equal(copy.deepcopy(kept.branch_store.stream).random(u[-1:].shape), u[-1:])
