"""Axis-aligned pixel boxes, normalized box velocities, and overlap measures.

Boxes are stored as (left, top, width, height) in float pixels, the layout
used by MOT-style CSV files. A velocity is the per-frame difference between
two boxes normalized by the frame dimensions: x-like components (dx, dw) by
frame width, y-like components (dy, dh) by frame height. Normalization makes
velocities comparable across video resolutions.

Every operation here works on arrays whose last axis holds the four box or
velocity components and broadcasts over the leading axes, so one call
serves a single pair, one pass's (N, M) pairs or a batch of branches.
:class:`BoundingBox` is the validated record for boxes read from files.
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

    @property
    def scale(self) -> np.ndarray:
        """Per-component normalizer (width, height, width, height) of a velocity."""
        return np.array([self.width, self.height, self.width, self.height])


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

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.w, self.h], dtype=np.float64)


def velocity(prev: np.ndarray, nxt: np.ndarray, frame: FrameGeometry) -> np.ndarray:
    """Normalized velocities taking ``prev`` boxes to ``nxt`` boxes over one frame step.

    Both are (..., 4) box arrays that broadcast against each other.
    """
    return (nxt - prev) / frame.scale


def apply_velocity(prev: np.ndarray, delta: np.ndarray, frame: FrameGeometry) -> np.ndarray:
    """Advance (..., 4) ``prev`` boxes by one frame step of (..., 4) velocities.

    Inverse of :func:`velocity` up to floating-point rounding. The result is
    not validated: a width or height may come out non-positive.
    """
    return prev + delta * frame.scale


def boxes_to_array(boxes) -> np.ndarray:
    """Stack BoundingBox objects into an (N, 4) float array."""
    if len(boxes) == 0:
        return np.zeros((0, 4), dtype=np.float64)
    return np.stack([b.as_array() for b in boxes])


def velocities_from_boxes(boxes: np.ndarray, frame: FrameGeometry) -> np.ndarray:
    """Normalized velocities for a (T, 4) box array, returned as (T-1, 4).

    Columns follow :data:`COMPONENTS`.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise GeometryError(f"expected a (T, 4) box array, got shape {boxes.shape}")
    if not np.all(np.isfinite(boxes)):
        raise GeometryError("box array contains non-finite values")
    return velocity(boxes[:-1], boxes[1:], frame)


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
