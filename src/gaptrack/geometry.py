"""Axis-aligned pixel boxes, normalized box velocities, and overlap measures.

Boxes are stored as (left, top, width, height) in float pixels, the layout
used by MOT-style CSV files. A velocity is the per-frame difference between
two boxes normalized by the frame dimensions: x-like components (dx, dw) by
frame width, y-like components (dy, dh) by frame height. Normalization makes
velocities comparable across video resolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBoxError, GeometryError

# Velocity component order used everywhere a component axis appears.
COMPONENTS = ("dx", "dy", "dw", "dh")


@dataclass(frozen=True, slots=True)
class FrameGeometry:
    """Pixel dimensions of the video frame."""

    width: float
    height: float

    def __post_init__(self):
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise GeometryError(f"frame dimensions must be finite, got {self.width}x{self.height}")
        if self.width <= 0 or self.height <= 0:
            raise GeometryError(f"frame dimensions must be positive, got {self.width}x{self.height}")


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """A box as (left, top, width, height) in pixels; width and height are positive."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for v in (self.x, self.y, self.w, self.h):
            if not math.isfinite(v):
                raise GeometryError(f"box coordinates must be finite, got {(self.x, self.y, self.w, self.h)}")
        if self.w <= 0 or self.h <= 0:
            raise DegenerateBoxError(f"box width and height must be positive, got w={self.w}, h={self.h}")

    @property
    def right(self) -> float:
        return self.x + self.w

    @property
    def bottom(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.w, self.h], dtype=np.float64)


@dataclass(frozen=True, slots=True)
class VelocityDelta:
    """Normalized per-frame box velocity (dx, dy, dw, dh)."""

    dx: float
    dy: float
    dw: float
    dh: float

    def __post_init__(self):
        for v in (self.dx, self.dy, self.dw, self.dh):
            if not math.isfinite(v):
                raise GeometryError(f"velocity components must be finite, got {(self.dx, self.dy, self.dw, self.dh)}")

    @classmethod
    def zero(cls) -> "VelocityDelta":
        return cls(0.0, 0.0, 0.0, 0.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dw, self.dh], dtype=np.float64)


def velocity(prev: BoundingBox, nxt: BoundingBox, frame: FrameGeometry) -> VelocityDelta:
    """Normalized velocity taking ``prev`` to ``nxt`` over one frame step."""
    return VelocityDelta(
        dx=(nxt.x - prev.x) / frame.width,
        dy=(nxt.y - prev.y) / frame.height,
        dw=(nxt.w - prev.w) / frame.width,
        dh=(nxt.h - prev.h) / frame.height,
    )


def apply_velocity(prev: BoundingBox, delta: VelocityDelta, frame: FrameGeometry) -> BoundingBox:
    """Advance ``prev`` by one frame step of ``delta``.

    Inverse of :func:`velocity`: ``apply_velocity(prev, velocity(prev, nxt, f), f)``
    recovers ``nxt`` up to floating-point rounding. Raises
    :class:`DegenerateBoxError` if the resulting width or height is not positive.
    """
    return BoundingBox(
        x=prev.x + delta.dx * frame.width,
        y=prev.y + delta.dy * frame.height,
        w=prev.w + delta.dw * frame.width,
        h=prev.h + delta.dh * frame.height,
    )


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ix = min(a.right, b.right) - max(a.x, b.x)
    iy = min(a.bottom, b.bottom) - max(a.y, b.y)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def boxes_to_array(boxes) -> np.ndarray:
    """Stack BoundingBox objects into an (N, 4) float array."""
    if len(boxes) == 0:
        return np.zeros((0, 4), dtype=np.float64)
    return np.stack([b.as_array() for b in boxes])


def velocities_from_boxes(boxes: np.ndarray, frame: FrameGeometry) -> np.ndarray:
    """Normalized velocities for a (T, 4) box array, returned as (T-1, 4).

    Vectorized counterpart of :func:`velocity` for training and scene
    preparation. Columns follow :data:`COMPONENTS`.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise GeometryError(f"expected a (T, 4) box array, got shape {boxes.shape}")
    if not np.all(np.isfinite(boxes)):
        raise GeometryError("box array contains non-finite values")
    deltas = np.diff(boxes, axis=0)
    scale = np.array([frame.width, frame.height, frame.width, frame.height])
    return deltas / scale


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise IOU of (..., 4) box arrays that broadcast against each other.

    Boxes are (left, top, width, height) rows. Pairs that do not overlap, or
    only touch, get 0. :func:`iou_matrix` is this over every (row, column)
    pair, so one pair's IOU has the same bits whichever of the two computes it.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ax1, ay1 = a[..., 0], a[..., 1]
    ax2, ay2 = ax1 + a[..., 2], ay1 + a[..., 3]
    bx1, by1 = b[..., 0], b[..., 1]
    bx2, by2 = bx1 + b[..., 2], by1 + b[..., 3]
    ix = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    iy = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(inter > 0.0, inter / union, 0.0)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IOU between (N, 4) and (M, 4) box arrays, returned as (N, M)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    return box_iou(a[:, None], b[None, :])
