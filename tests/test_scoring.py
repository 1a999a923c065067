"""Tracklet scoring: cold start, likelihood costs, advancing."""

import numpy as np
import pytest

from gaptrack import (
    BoundingBox,
    InpaintParams,
    SequencingError,
    advance,
    boxes_to_array,
    new_tracklet,
    sample_candidates,
    score_detection,
)
from gaptrack.motion_model import PROB_FLOOR
from gaptrack.scoring import SOURCE_DETECTED, STATUS_TENTATIVE


def object_boxes(scene, obj_id):
    return [BoundingBox(*row) for row in scene.trajectories[obj_id]]


def grown_tracklet(scene, weights, obj_id, upto):
    """Tracklet following one ground-truth object through frame ``upto``."""
    boxes = object_boxes(scene, obj_id)
    t = new_tracklet(obj_id, 1, boxes[0], weights)
    for frame_index in range(2, upto + 1):
        t = advance(t, boxes[frame_index - 1], frame_index, scene.geometry, SOURCE_DETECTED, weights)
    return t


def score_one(t, det, geometry, book):
    """The pass scorer on a single tracklet-detection pair."""
    got = score_detection(t.last_box.box.as_array()[None], t.dist[None], det.as_array()[None],
                          geometry, book)
    assert got.shape == (1, 1)
    return got[0, 0]


def velocity(prev, nxt, frame):
    """Reference: one pair's velocity, one component at a time."""
    return (
        (nxt.x - prev.x) / frame.width,
        (nxt.y - prev.y) / frame.height,
        (nxt.w - prev.w) / frame.width,
        (nxt.h - prev.h) / frame.height,
    )


def quantize(delta, book):
    """Reference: each component's nearest centroid, midpoint ties to the lower index."""
    cells = []
    for row, value in zip(book.centroids, delta):
        mids = 0.5 * (row[:-1] + row[1:])
        cells.append(int(np.searchsorted(mids, value, side="left")))
    return cells


def log_likelihood(dist, cells):
    """Reference: floored component log-probabilities, added in component order."""
    total = 0.0
    for c, idx in enumerate(cells):
        total += float(np.log(max(dist[c, int(idx)], PROB_FLOOR)))
    return total


def per_pair(origins, dists, detections, geometry, book):
    """Reference: one velocity, one quantize and one log_likelihood per pair."""
    return np.array([
        [log_likelihood(dist, quantize(velocity(BoundingBox(*o), BoundingBox(*d), geometry), book))
         for d in detections]
        for o, dist in zip(origins, dists)
    ]).reshape(len(origins), len(detections))


def test_new_tracklet_consumes_seed_token(tiny_model):
    weights, book = tiny_model
    t = new_tracklet(5, 3, BoundingBox(10.0, 20.0, 30.0, 40.0), weights)
    assert t.tracklet_id == 5
    assert t.status == STATUS_TENTATIVE
    assert len(t.boxes) == 1
    assert t.last_frame == 3
    # the zero seed velocity has been consumed, so a distribution exists
    assert t.state.steps_consumed == 1
    assert t.dist.shape == (4, book.k)
    np.testing.assert_allclose(t.dist.sum(axis=1), 1.0, atol=1e-9)


def test_score_detection_is_pure(tiny_model, clean_scene):
    weights, book = tiny_model
    t = grown_tracklet(clean_scene, weights, obj_id=1, upto=10)
    det = object_boxes(clean_scene, 1)[10]
    before = (t.state, t.dist.copy(), len(t.boxes))
    a = score_one(t, det, clean_scene.geometry, book)
    b = score_one(t, det, clean_scene.geometry, book)
    assert a == b
    assert t.state is before[0]
    np.testing.assert_array_equal(t.dist, before[1])
    assert len(t.boxes) == before[2]


def test_score_detection_matches_log_likelihood(tiny_model, clean_scene):
    weights, book = tiny_model
    t = grown_tracklet(clean_scene, weights, obj_id=2, upto=8)
    det = object_boxes(clean_scene, 2)[8]
    delta = velocity(t.last_box.box, det, clean_scene.geometry)
    want = log_likelihood(t.dist, quantize(delta, book))
    assert score_one(t, det, clean_scene.geometry, book) == want


def test_true_continuation_outscores_jump(tiny_model, clean_scene):
    weights, book = tiny_model
    geometry = clean_scene.geometry
    for obj_id in (1, 2, 3):
        t = grown_tracklet(clean_scene, weights, obj_id, upto=20)
        true_next = object_boxes(clean_scene, obj_id)[20]
        jump = BoundingBox(true_next.x + 200.0, true_next.y + 150.0, true_next.w, true_next.h)
        good = score_one(t, true_next, geometry, book)
        bad = score_one(t, jump, geometry, book)
        assert good > bad


def test_advance_appends_and_validates_frame(tiny_model, clean_scene):
    weights, _ = tiny_model
    boxes = object_boxes(clean_scene, 1)
    t = new_tracklet(1, 1, boxes[0], weights)
    t = advance(t, boxes[1], 2, clean_scene.geometry, SOURCE_DETECTED, weights)
    assert [tb.frame for tb in t.boxes] == [1, 2]
    assert t.state.steps_consumed == 2

    with pytest.raises(SequencingError):
        advance(t, boxes[2], 4, clean_scene.geometry, SOURCE_DETECTED, weights)
    with pytest.raises(SequencingError):
        advance(t, boxes[2], 2, clean_scene.geometry, SOURCE_DETECTED, weights)


def test_advance_updates_distribution(tiny_model, clean_scene):
    weights, book = tiny_model
    t = grown_tracklet(clean_scene, weights, obj_id=4, upto=5)
    dist_before = t.dist.copy()
    boxes = object_boxes(clean_scene, 4)
    advance(t, boxes[5], 6, clean_scene.geometry, SOURCE_DETECTED, weights)
    assert not np.array_equal(t.dist, dist_before)
    np.testing.assert_allclose(t.dist.sum(axis=1), 1.0, atol=1e-9)


def test_pass_scorer_equals_per_pair_scores_on_grown_tracklets(tiny_model, clean_scene):
    # Every tracklet against every detection of the next frame, plus pairs
    # far beyond the codebook's range (they clamp onto the edge cells).
    weights, book = tiny_model
    geometry = clean_scene.geometry
    tracklets = [grown_tracklet(clean_scene, weights, obj, upto=12) for obj in (1, 2, 3, 4, 5)]
    dets = [d.box for d in clean_scene.detections if d.frame == 13]
    dets += [BoundingBox(5.0, 5.0, 300.0, 200.0), BoundingBox(900.0, 500.0, 10.0, 12.0)]
    origins = np.stack([t.last_box.box.as_array() for t in tracklets])
    dists = np.stack([t.dist for t in tracklets])
    det_array = boxes_to_array(dets)

    got = score_detection(origins, dists, det_array, geometry, book)
    assert got.shape == (len(tracklets), len(dets))
    assert np.array_equal(got, per_pair(origins, dists, det_array, geometry, book))
    far = np.abs(velocity(BoundingBox(*origins[0]), dets[-1], geometry))
    assert np.any(far > np.abs(book.centroids).max(axis=1))


def test_pass_scorer_floors_tiny_probabilities(tiny_model, clean_scene):
    weights, book = tiny_model
    geometry = clean_scene.geometry
    rng = np.random.default_rng(0)
    dists = rng.dirichlet(np.ones(book.k), size=(6, 4))
    dists[:, :, ::2] = rng.choice([0.0, 1e-300, 1e-15, PROB_FLOOR], size=(6, 4, (book.k + 1) // 2))
    origins = np.column_stack([rng.uniform(0, 800, 6), rng.uniform(0, 400, 6),
                               rng.uniform(20, 80, 6), rng.uniform(20, 80, 6)])
    det_array = origins[rng.permutation(6)] + rng.normal(0.0, 3.0, size=(6, 4))

    got = score_detection(origins, dists, det_array, geometry, book)
    assert np.array_equal(got, per_pair(origins, dists, det_array, geometry, book))
    assert np.all(np.isfinite(got))
    assert got.min() <= np.log(PROB_FLOOR)


def test_pass_scorer_on_inpainted_candidates(tiny_model, clean_scene):
    # Pass 2 scores each bridge from its box and distribution before the
    # current frame.
    weights, book = tiny_model
    geometry = clean_scene.geometry
    t = grown_tracklet(clean_scene, weights, obj_id=2, upto=20)
    current = 23
    dets = [d.box for d in clean_scene.detections if d.frame == current]
    cands = sample_candidates(t, 3, [dets], InpaintParams(num_samples=10, iou_threshold=0.0),
                              weights, book, geometry, np.random.default_rng(0))
    origins = np.stack([c.origin for c in cands])
    dists = np.stack([c.dist_at_scoring for c in cands])
    det_array = boxes_to_array(dets)

    got = score_detection(origins, dists, det_array, geometry, book)
    assert np.array_equal(got, per_pair(origins, dists, det_array, geometry, book))


def test_pass_scorer_empty_sides(tiny_model, clean_scene):
    weights, book = tiny_model
    t = grown_tracklet(clean_scene, weights, obj_id=1, upto=3)
    one = t.last_box.box.as_array()[None]
    assert score_detection(one, t.dist[None], np.zeros((0, 4)), clean_scene.geometry, book).shape == (1, 0)
    assert score_detection(np.zeros((0, 4)), np.zeros((0, 4, book.k)), one,
                           clean_scene.geometry, book).shape == (0, 1)
