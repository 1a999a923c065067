"""Boxes, normalized velocities, and IOU."""

import numpy as np
import pytest

from gaptrack import (
    BoundingBox,
    DegenerateBoxError,
    FrameGeometry,
    GeometryError,
    apply_velocity,
    box_iou,
    boxes_to_array,
    iou_matrix,
    velocities_from_boxes,
    velocity,
)

FRAME = FrameGeometry(1000.0, 500.0)


def random_box(rng, frame=FRAME):
    w = rng.uniform(5.0, 200.0)
    h = rng.uniform(5.0, 200.0)
    x = rng.uniform(-50.0, frame.width - w)
    y = rng.uniform(-50.0, frame.height - h)
    return BoundingBox(x, y, w, h)


def scalar_velocity(prev, nxt, frame):
    """Reference: one pair's velocity, one component at a time."""
    return np.array([
        (nxt.x - prev.x) / frame.width,
        (nxt.y - prev.y) / frame.height,
        (nxt.w - prev.w) / frame.width,
        (nxt.h - prev.h) / frame.height,
    ])


def scalar_iou(a, b):
    """Reference: one pair's IOU from its edges, with an explicit no-overlap branch."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.w * a.h + b.w * b.h - inter)


def test_velocity_hand_example():
    # 100 px right on a 1000-wide frame and 50 px down on a 500-tall frame
    # are both a displacement of 0.1 frame units.
    prev = BoundingBox(0.0, 0.0, 10.0, 10.0)
    nxt = BoundingBox(100.0, 50.0, 10.0, 10.0)
    delta = velocity(prev.as_array(), nxt.as_array(), FRAME)
    np.testing.assert_allclose(delta, [0.1, 0.1, 0.0, 0.0], atol=1e-15)


def test_velocity_normalizes_each_axis_by_its_dimension():
    prev = BoundingBox(0.0, 0.0, 10.0, 10.0)
    nxt = BoundingBox(0.0, 0.0, 20.0, 20.0)
    delta = velocity(prev.as_array(), nxt.as_array(), FRAME)
    assert delta[2] == pytest.approx(10.0 / FRAME.width)
    assert delta[3] == pytest.approx(10.0 / FRAME.height)
    np.testing.assert_array_equal(FRAME.scale, [FRAME.width, FRAME.height, FRAME.width, FRAME.height])


def test_apply_velocity_inverts_velocity():
    rng = np.random.default_rng(0)
    prev = boxes_to_array([random_box(rng) for _ in range(200)])
    nxt = boxes_to_array([random_box(rng) for _ in range(200)])
    back = apply_velocity(prev, velocity(prev, nxt, FRAME), FRAME)
    np.testing.assert_allclose(back, nxt, rtol=0, atol=1e-9)


def test_box_validation():
    with pytest.raises(DegenerateBoxError):
        BoundingBox(0.0, 0.0, 0.0, 10.0)
    with pytest.raises(DegenerateBoxError):
        BoundingBox(0.0, 0.0, 10.0, -1.0)
    with pytest.raises(GeometryError):
        BoundingBox(float("nan"), 0.0, 10.0, 10.0)
    with pytest.raises(GeometryError):
        FrameGeometry(0.0, 500.0)


def test_iou_hand_example():
    # Intersection 5x10 = 50, union 100 + 100 - 50 = 150.
    a = np.array([0.0, 0.0, 10.0, 10.0])
    b = np.array([5.0, 0.0, 10.0, 10.0])
    assert box_iou(a, b) == pytest.approx(1.0 / 3.0)
    assert box_iou(b, a) == pytest.approx(1.0 / 3.0)


def test_iou_bounds():
    a = np.array([0.0, 0.0, 10.0, 10.0])
    assert box_iou(a, a) == pytest.approx(1.0)
    assert box_iou(a, [100.0, 100.0, 10.0, 10.0]) == 0.0
    # Boxes that only share an edge do not overlap.
    assert box_iou(a, [10.0, 0.0, 10.0, 10.0]) == 0.0

    rng = np.random.default_rng(1)
    a = boxes_to_array([random_box(rng) for _ in range(300)])
    b = boxes_to_array([random_box(rng) for _ in range(300)])
    v = box_iou(a, b)
    assert np.all((v >= 0.0) & (v <= 1.0))
    np.testing.assert_allclose(v, box_iou(b, a), rtol=1e-12)


def test_iou_matrix_matches_scalar():
    rng = np.random.default_rng(2)
    rows = [random_box(rng) for _ in range(7)]
    cols = [random_box(rng) for _ in range(5)]
    mat = iou_matrix(boxes_to_array(rows), boxes_to_array(cols))
    assert mat.shape == (7, 5)
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            assert mat[i, j] == pytest.approx(scalar_iou(a, b), abs=1e-12)


def test_box_iou_equals_iou_matrix_entries():
    rng = np.random.default_rng(4)
    rows = boxes_to_array([random_box(rng) for _ in range(9)])
    # Overlapping, identical and edge-touching partners besides random ones.
    cols = np.concatenate([
        rows + rng.normal(0.0, 5.0, rows.shape) * [1, 1, 0, 0],
        rows[:3],
        rows[:3] + np.c_[rows[:3, 2], np.zeros((3, 3))],
        boxes_to_array([random_box(rng) for _ in range(5)]),
    ])
    mat = iou_matrix(rows, cols)
    assert (mat > 0).any() and (mat == 0).any() and (mat == 1).any()
    i, j = np.meshgrid(np.arange(len(rows)), np.arange(len(cols)), indexing="ij")
    assert np.array_equal(box_iou(rows[i], cols[j]), mat)
    assert np.array_equal(box_iou(rows[:, None], cols[None, :]), mat)
    assert np.array_equal(box_iou(rows[4], cols), mat[4])


def test_boxes_to_array_layout():
    boxes = [BoundingBox(1.0, 2.0, 3.0, 4.0), BoundingBox(5.0, 6.0, 7.0, 8.0)]
    arr = boxes_to_array(boxes)
    np.testing.assert_array_equal(arr, [[1, 2, 3, 4], [5, 6, 7, 8]])
    assert boxes_to_array([]).shape == (0, 4)


def test_velocities_from_boxes_matches_pairwise():
    rng = np.random.default_rng(3)
    boxes = np.stack([random_box(rng).as_array() for _ in range(10)])
    vel = velocities_from_boxes(boxes, FRAME)
    assert vel.shape == (9, 4)
    for i in range(9):
        expect = scalar_velocity(BoundingBox(*boxes[i]), BoundingBox(*boxes[i + 1]), FRAME)
        np.testing.assert_allclose(vel[i], expect, atol=1e-12)
