"""Boxes, normalized velocities, and IOU."""

import numpy as np
import pytest

from gaptrack import (
    BoundingBox,
    DegenerateBoxError,
    FrameGeometry,
    GeometryError,
    VelocityDelta,
    apply_velocity,
    boxes_to_array,
    iou,
    iou_matrix,
    velocities_from_boxes,
    velocity,
)
from gaptrack.geometry import box_iou

FRAME = FrameGeometry(1000.0, 500.0)


def random_box(rng, frame=FRAME):
    w = rng.uniform(5.0, 200.0)
    h = rng.uniform(5.0, 200.0)
    x = rng.uniform(-50.0, frame.width - w)
    y = rng.uniform(-50.0, frame.height - h)
    return BoundingBox(x, y, w, h)


def test_velocity_hand_example():
    # 100 px right on a 1000-wide frame and 50 px down on a 500-tall frame
    # are both a displacement of 0.1 frame units.
    prev = BoundingBox(0.0, 0.0, 10.0, 10.0)
    nxt = BoundingBox(100.0, 50.0, 10.0, 10.0)
    delta = velocity(prev, nxt, FRAME)
    np.testing.assert_allclose(delta.as_array(), [0.1, 0.1, 0.0, 0.0], atol=1e-15)


def test_velocity_normalizes_each_axis_by_its_dimension():
    prev = BoundingBox(0.0, 0.0, 10.0, 10.0)
    nxt = BoundingBox(0.0, 0.0, 20.0, 20.0)
    delta = velocity(prev, nxt, FRAME)
    assert delta.dw == pytest.approx(10.0 / FRAME.width)
    assert delta.dh == pytest.approx(10.0 / FRAME.height)


def test_apply_velocity_inverts_velocity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        prev = random_box(rng)
        nxt = random_box(rng)
        back = apply_velocity(prev, velocity(prev, nxt, FRAME), FRAME)
        np.testing.assert_allclose(back.as_array(), nxt.as_array(), rtol=0, atol=1e-9)


def test_apply_velocity_rejects_collapse():
    prev = BoundingBox(0.0, 0.0, 10.0, 10.0)
    shrink = VelocityDelta(0.0, 0.0, -10.0 / FRAME.width, 0.0)
    with pytest.raises(DegenerateBoxError):
        apply_velocity(prev, shrink, FRAME)


def test_box_validation():
    with pytest.raises(DegenerateBoxError):
        BoundingBox(0.0, 0.0, 0.0, 10.0)
    with pytest.raises(DegenerateBoxError):
        BoundingBox(0.0, 0.0, 10.0, -1.0)
    with pytest.raises(GeometryError):
        BoundingBox(float("nan"), 0.0, 10.0, 10.0)
    with pytest.raises(GeometryError):
        FrameGeometry(0.0, 500.0)
    with pytest.raises(GeometryError):
        VelocityDelta(float("inf"), 0.0, 0.0, 0.0)


def test_iou_hand_example():
    # Intersection 5x10 = 50, union 100 + 100 - 50 = 150.
    a = BoundingBox(0.0, 0.0, 10.0, 10.0)
    b = BoundingBox(5.0, 0.0, 10.0, 10.0)
    assert iou(a, b) == pytest.approx(1.0 / 3.0)
    assert iou(b, a) == pytest.approx(1.0 / 3.0)


def test_iou_bounds():
    a = BoundingBox(0.0, 0.0, 10.0, 10.0)
    assert iou(a, a) == pytest.approx(1.0)
    assert iou(a, BoundingBox(100.0, 100.0, 10.0, 10.0)) == 0.0
    # Boxes that only share an edge do not overlap.
    assert iou(a, BoundingBox(10.0, 0.0, 10.0, 10.0)) == 0.0

    rng = np.random.default_rng(1)
    for _ in range(300):
        a, b = random_box(rng), random_box(rng)
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(iou(b, a))


def test_iou_matrix_matches_scalar():
    rng = np.random.default_rng(2)
    rows = [random_box(rng) for _ in range(7)]
    cols = [random_box(rng) for _ in range(5)]
    mat = iou_matrix(boxes_to_array(rows), boxes_to_array(cols))
    assert mat.shape == (7, 5)
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            assert mat[i, j] == pytest.approx(iou(a, b), abs=1e-12)


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
        expect = velocity(BoundingBox(*boxes[i]), BoundingBox(*boxes[i + 1]), FRAME)
        np.testing.assert_allclose(vel[i], expect.as_array(), atol=1e-12)
