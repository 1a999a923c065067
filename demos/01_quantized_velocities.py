"""Boxes to velocities to a codebook.

The motion model never sees pixel coordinates. Every frame-to-frame step
of a box becomes a four-component velocity (dx, dy, dw, dh), each component
normalized by the frame width or height, and each component is then snapped
to its own bank of k-means centroids. This script walks one box track
through that whole encoding and back. Boxes are (x, y, w, h) arrays and
velocities (dx, dy, dw, dh) arrays; every step works on one row or many.

Run:  python3 demos/01_quantized_velocities.py
"""

import numpy as np

from gaptrack import (
    FrameGeometry,
    apply_velocity,
    decode,
    fit,
    quantize,
    velocities_from_boxes,
    velocity,
)

frame = FrameGeometry(1920.0, 1080.0)

# one step: 48px right, 6px down, slightly growing
a = np.array([100.0, 200.0, 64.0, 128.0])
b = np.array([148.0, 206.0, 66.0, 126.0])
delta = velocity(a, b, frame)
dx, dy, dw, dh = delta
print(f"one step      dx={dx:+.5f} dy={dy:+.5f} "
      f"dw={dw:+.5f} dh={dh:+.5f}  (fractions of the frame)")

# a noisy drifting track gives the clustering something to chew on
rng = np.random.default_rng(0)
steps = np.array([6.0, 2.0, 0.1, -0.1]) + rng.normal(0.0, 1.5, size=(120, 4))
boxes = np.cumsum(np.vstack([[300.0, 300.0, 80.0, 120.0], steps]), axis=0)
deltas = velocities_from_boxes(boxes, frame)
print(f"track         {len(boxes)} boxes -> {len(deltas)} velocity rows")

book = fit(deltas, k=8, seed=0)
print(f"codebook      k={book.k}, per-component centroid banks:")
for name, row in zip("xywh", book.centroids):
    print(f"  d{name}: " + " ".join(f"{c:+.5f}" for c in row))

# quantize one of the track's own steps, decode the cell centers back,
# and re-apply to the box: the rebuilt step lands within a cell width
prev, true_next = boxes[56], boxes[57]
quad = quantize(velocity(prev, true_next, frame), book)
rebuilt = decode(quad, book)
approx = apply_velocity(prev, rebuilt, frame)
print(f"quantized     step 57 -> cells {tuple(quad.tolist())}")
print(f"decoded       dx={rebuilt[0]:+.5f} dy={rebuilt[1]:+.5f} "
      f"dw={rebuilt[2]:+.5f} dh={rebuilt[3]:+.5f}")
print(f"true next     x={true_next[0]:7.2f} y={true_next[1]:7.2f} "
      f"w={true_next[2]:6.2f} h={true_next[3]:6.2f}")
print(f"via codebook  x={approx[0]:7.2f} y={approx[1]:7.2f} "
      f"w={approx[2]:6.2f} h={approx[3]:6.2f}")

# the same calls take every step of the track at once
cells = quantize(deltas, book)
error = np.abs(decode(cells, book) - deltas).max(axis=0)
print("all steps     worst decode error per component: "
      + " ".join(f"{e:.5f}" for e in error))

# velocities outside the fitted range clip to the nearest edge cell; the
# codebook can only describe motion like what it was fit on
wild = quantize(delta, book)
print(f"out of range  the 48px hand step pins dx to its edge cell: {tuple(wild.tolist())}")
