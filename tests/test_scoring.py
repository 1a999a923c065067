"""Tracklet scoring: cold start, likelihood costs, advancing."""

import numpy as np
import pytest

from gaptrack import (
    InpaintParams,
    SequencingError,
    advance,
    cold_start,
    inpaint,
    new_tracklet,
    score_detection,
    step,
)
from gaptrack.motion_model import PROB_FLOOR
from gaptrack.scoring import SOURCE_DETECTED, STATUS_TENTATIVE
from gaptrack.tracker import detection_arrays


def object_boxes(scene, obj_id):
    """One object's (x, y, w, h) rows, frame 1 first."""
    return scene.trajectories[obj_id]


def grown_tracklet(scene, weights, obj_id, upto):
    """Tracklet following one ground-truth object through frame ``upto``."""
    boxes = object_boxes(scene, obj_id)
    t = new_tracklet(obj_id, 1, boxes[0], cold_start(weights))
    for frame_index in range(2, upto + 1):
        advance([t], boxes[frame_index - 1 : frame_index], frame_index, scene.geometry, weights)
    return t


def score_one(t, det, geometry, book):
    """The pass scorer on a single tracklet-detection pair."""
    got = score_detection(t.last_box.box[None], t.dist[None], det[None], geometry, book)
    assert got.shape == (1, 1)
    return got[0, 0]


def velocity(prev, nxt, frame):
    """Reference: one pair's velocity, one (x, y, w, h) component at a time."""
    return (
        (nxt[0] - prev[0]) / frame.width,
        (nxt[1] - prev[1]) / frame.height,
        (nxt[2] - prev[2]) / frame.width,
        (nxt[3] - prev[3]) / frame.height,
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
        [log_likelihood(dist, quantize(velocity(o, d, geometry), book))
         for d in detections]
        for o, dist in zip(origins, dists)
    ]).reshape(len(origins), len(detections))


def test_new_tracklet_consumes_seed_token(tiny_model):
    weights, book = tiny_model
    t = new_tracklet(5, 3, np.array([10.0, 20.0, 30.0, 40.0]), cold_start(weights))
    assert t.tracklet_id == 5
    assert t.status == STATUS_TENTATIVE
    assert len(t.boxes) == 1
    assert t.last_frame == 3
    # the zero seed velocity has been consumed, so a distribution exists
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
        jump = true_next + [200.0, 150.0, 0.0, 0.0]
        good = score_one(t, true_next, geometry, book)
        bad = score_one(t, jump, geometry, book)
        assert good > bad


def test_advance_appends_and_validates_frame(tiny_model, clean_scene):
    weights, _ = tiny_model
    boxes = object_boxes(clean_scene, 1)
    t = new_tracklet(1, 1, boxes[0], cold_start(weights))
    advance([t], boxes[1:2], 2, clean_scene.geometry, weights)
    assert [tb.frame for tb in t.boxes] == [1, 2]
    assert [tb.source for tb in t.boxes] == [SOURCE_DETECTED] * 2

    with pytest.raises(SequencingError):
        advance([t], boxes[2:3], 4, clean_scene.geometry, weights)
    with pytest.raises(SequencingError):
        advance([t], boxes[2:3], 2, clean_scene.geometry, weights)
    with pytest.raises(ValueError):
        advance([t], np.zeros((0, 4)), 3, clean_scene.geometry, weights)
    advance([], np.zeros((0, 4)), 3, clean_scene.geometry, weights)  # nothing to advance
    assert len(t.boxes) == 2


def test_advance_updates_distribution(tiny_model, clean_scene):
    weights, book = tiny_model
    t = grown_tracklet(clean_scene, weights, obj_id=4, upto=5)
    dist_before = t.dist.copy()
    boxes = object_boxes(clean_scene, 4)
    advance([t], boxes[5:6], 6, clean_scene.geometry, weights)
    assert not np.array_equal(t.dist, dist_before)
    np.testing.assert_allclose(t.dist.sum(axis=1), 1.0, atol=1e-9)


def test_advance_steps_every_tracklet_like_the_batched_step(tiny_model, clean_scene):
    # One advance over several tracklets equals one step over their stacked
    # states, row for row.
    weights, _ = tiny_model
    geometry = clean_scene.geometry
    tracklets = [grown_tracklet(clean_scene, weights, obj, upto=6) for obj in (1, 2, 3)]
    nxt = np.stack([object_boxes(clean_scene, obj)[6] for obj in (1, 2, 3)])
    hidden, cell, probs = step(
        weights,
        np.stack([t.state.hidden for t in tracklets]),
        np.stack([t.state.cell for t in tracklets]),
        np.stack([(b - t.last_box.box) / geometry.scale for t, b in zip(tracklets, nxt)]),
    )
    advance(tracklets, nxt, 7, geometry, weights)
    for i, t in enumerate(tracklets):
        assert np.array_equal(t.last_box.box, nxt[i]) and t.last_frame == 7
        assert len(t.boxes) == 7
        assert np.array_equal(t.state.hidden, hidden[i])
        assert np.array_equal(t.state.cell, cell[i])
        assert np.array_equal(t.dist, probs[i])


def test_pass_scorer_equals_per_pair_scores_on_grown_tracklets(tiny_model, clean_scene):
    # Every tracklet against every detection of the next frame, plus pairs
    # far beyond the codebook's range (they clamp onto the edge cells).
    weights, book = tiny_model
    geometry = clean_scene.geometry
    tracklets = [grown_tracklet(clean_scene, weights, obj, upto=12) for obj in (1, 2, 3, 4, 5)]
    dets = np.vstack([detection_arrays(clean_scene.detections, 0.0)[13],
                      [[5.0, 5.0, 300.0, 200.0], [900.0, 500.0, 10.0, 12.0]]])
    origins = np.stack([t.last_box.box for t in tracklets])
    dists = np.stack([t.dist for t in tracklets])

    got = score_detection(origins, dists, dets, geometry, book)
    assert got.shape == (len(tracklets), len(dets))
    assert np.array_equal(got, per_pair(origins, dists, dets, geometry, book))
    far = np.abs(velocity(origins[0], dets[-1], geometry))
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
    # Pass 2 scores each winning bridge from its box and distribution before
    # the current frame; only inpaint's winners carry that distribution.
    weights, book = tiny_model
    geometry = clean_scene.geometry
    tracklets = [grown_tracklet(clean_scene, weights, obj_id=obj, upto=20) for obj in (1, 2, 3)]
    current = 23
    dets = detection_arrays(clean_scene.detections, 0.0)[current]
    winners = inpaint(tracklets, [3] * 3, [dets], InpaintParams(num_samples=10, iou_threshold=0.0),
                      weights, book, geometry, current)
    assert all(w is not None for w in winners)
    origins = np.stack([w.origin for w in winners])
    dists = np.stack([w.dist_at_scoring for w in winners])

    got = score_detection(origins, dists, dets, geometry, book)
    assert np.array_equal(got, per_pair(origins, dists, dets, geometry, book))


def test_pass_scorer_empty_sides(tiny_model, clean_scene):
    weights, book = tiny_model
    t = grown_tracklet(clean_scene, weights, obj_id=1, upto=3)
    one = t.last_box.box[None]
    assert score_detection(one, t.dist[None], np.zeros((0, 4)), clean_scene.geometry, book).shape == (1, 0)
    assert score_detection(np.zeros((0, 4)), np.zeros((0, 4, book.k)), one,
                           clean_scene.geometry, book).shape == (0, 1)
