"""Synthetic scene generator: ground-truth trajectories plus noisy detections.

Scenes are the test bed for the whole pipeline. Every object lives for the
full sequence; trajectories follow one of three motion families, and the
detector is simulated by dropping boxes at random, perturbing survivors with
Gaussian pixel noise, and sprinkling Poisson-distributed false positives.
One seed fixes everything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import BoundingBox, FrameGeometry, box_iou
from .mot_io import Detection, SequenceMeta, write_detections, write_ground_truth, write_seqinfo
from .training import TrainingTrack, TrainSchedule, window_tracks

MOTION_CONSTANT_VELOCITY = "constant-velocity"
MOTION_SINUSOIDAL = "sinusoidal"
MOTION_RANDOM_WALK = "random-walk"
MOTION_FAMILIES = (MOTION_CONSTANT_VELOCITY, MOTION_SINUSOIDAL, MOTION_RANDOM_WALK)

# Peak speeds scale with the short frame side so scenes of any resolution
# produce velocity distributions of similar normalized magnitude.
_SPEED_FRACTION = 0.002
_MIN_SIZE = 40.0
_MAX_SIZE = 120.0
_MAX_GROWTH = 0.2  # total relative size change over the whole sequence
# The largest width or height a box can reach; a frame side must hold it.
_MAX_EXTENT = _MAX_SIZE * (1.0 + _MAX_GROWTH)


@dataclass(frozen=True)
class SceneSpec:
    """Layout of a synthetic sequence; defaults give the standard desk scene."""

    num_objects: int = 10
    num_frames: int = 300
    width: float = 1920.0
    height: float = 1080.0
    frame_rate: float = 30.0
    motion: str = MOTION_CONSTANT_VELOCITY
    detection_dropout: float = 0.1
    detection_jitter: float = 0.5
    false_positive_rate: float = 0.1
    seed: int = 0
    name: str = "synthetic"

    def __post_init__(self):
        if self.motion not in MOTION_FAMILIES:
            raise ConfigError(
                f"unknown motion family {self.motion!r}, expected one of {MOTION_FAMILIES}"
            )
        if self.num_objects < 1 or self.num_frames < 3:
            raise ConfigError("a scene needs at least 1 object and 3 frames")
        if not (0.0 <= self.detection_dropout < 1.0):
            raise ConfigError(f"detection_dropout must be in [0, 1), got {self.detection_dropout}")
        for name in ("detection_jitter", "false_positive_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < float("inf"):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        for name in ("width", "height"):
            value = getattr(self, name)
            if not _MAX_EXTENT <= value < float("inf"):
                raise ConfigError(
                    f"{name} must be finite and hold the largest box ({_MAX_EXTENT:g} px), got {value}"
                )
        if not 0.0 < self.frame_rate < float("inf"):
            raise ConfigError(f"frame_rate must be finite and > 0, got {self.frame_rate}")
        if self.seed < 0:  # numpy seeds must be non-negative
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _sizes(spec: SceneSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-object (w0, h0) and linear per-frame growth, distinct across objects."""
    base = rng.uniform(_MIN_SIZE, _MAX_SIZE, size=(spec.num_objects, 2))
    total = rng.uniform(-_MAX_GROWTH, _MAX_GROWTH, size=(spec.num_objects, 2))
    growth = base * total / (spec.num_frames - 1)
    return base, growth


def _size_track(base: np.ndarray, growth: np.ndarray, num_frames: int) -> np.ndarray:
    t = np.arange(num_frames)[:, None]
    return base[None, :] + growth[None, :] * t


def _cv_positions(spec, rng, size_track):
    """Straight lines; the spawn interval is shrunk so no reflection is needed."""
    T = spec.num_frames - 1
    vmax = _SPEED_FRACTION * min(spec.width, spec.height)
    spans = np.array([spec.width, spec.height])
    v = rng.uniform(-vmax, vmax, size=2)
    pos0 = np.empty(2)
    for axis in range(2):
        d_size = size_track[-1, axis] - size_track[0, axis]
        lo = max(0.0, -v[axis] * T)
        hi = spans[axis] - size_track[0, axis] - max(0.0, v[axis] * T + d_size)
        if hi <= lo:  # degenerate only for huge boxes; fall back to standing still
            v[axis] = 0.0
            lo, hi = 0.0, spans[axis] - size_track[:, axis].max()
        pos0[axis] = rng.uniform(lo, hi)
    t = np.arange(spec.num_frames)[:, None]
    return pos0[None, :] + v[None, :] * t


def _sin_positions(spec, rng, size_track):
    """Center plus bounded sinusoidal swing on each axis."""
    spans = np.array([spec.width, spec.height])
    size_max = size_track.max(axis=0)
    amplitude = rng.uniform(0.02, 0.06, size=2) * spans
    amplitude = np.minimum(amplitude, (spans - size_max) / 2.0 * 0.9)
    cycles = rng.uniform(0.5, 2.0, size=2)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
    center = np.array([
        rng.uniform(amplitude[a], spans[a] - size_max[a] - amplitude[a])
        for a in range(2)
    ])
    t = np.arange(spec.num_frames)[:, None]
    omega = 2.0 * np.pi * cycles / spec.num_frames
    return center[None, :] + amplitude[None, :] * np.sin(omega[None, :] * t + phase[None, :])


def _walk_positions(spec, rng, size_track):
    """AR(1) velocity random walk, reflected off the frame edges."""
    vmax = _SPEED_FRACTION * min(spec.width, spec.height)
    rho = 0.95
    sigma = vmax * np.sqrt(1.0 - rho * rho)  # stationary std close to vmax
    spans = np.array([spec.width, spec.height])
    pos = np.array([
        rng.uniform(0.0, spans[a] - size_track[:, a].max())
        for a in range(2)
    ])
    v = rng.uniform(-vmax, vmax, size=2)
    out = np.empty((spec.num_frames, 2))
    out[0] = pos
    for t in range(1, spec.num_frames):
        v = rho * v + sigma * rng.standard_normal(2)
        pos = pos + v
        for axis in range(2):
            limit = spans[axis] - size_track[t, axis]
            if pos[axis] < 0.0:
                pos[axis] = -pos[axis]
                v[axis] = -v[axis]
            if pos[axis] > limit:
                pos[axis] = 2.0 * limit - pos[axis]
                v[axis] = -v[axis]
            pos[axis] = min(max(pos[axis], 0.0), limit)
        out[t] = pos
    return out


_POSITION_BUILDERS = {
    MOTION_CONSTANT_VELOCITY: _cv_positions,
    MOTION_SINUSOIDAL: _sin_positions,
    MOTION_RANDOM_WALK: _walk_positions,
}


@dataclass
class Scene:
    """A generated sequence: spec, metadata, per-object boxes, and detections."""

    spec: SceneSpec
    meta: SequenceMeta
    trajectories: dict[int, np.ndarray]  # object id -> (num_frames, 4) boxes
    detections: list[Detection]

    @property
    def geometry(self) -> FrameGeometry:
        return self.meta.geometry

    def ground_truth_rows(self) -> list[tuple[int, int, BoundingBox]]:
        """(frame, id, box) rows, frame-major, for writers and metrics."""
        rows = []
        for frame in range(1, self.spec.num_frames + 1):
            for obj_id in sorted(self.trajectories):
                x, y, w, h = self.trajectories[obj_id][frame - 1]
                rows.append((frame, obj_id, BoundingBox(x, y, w, h)))
        return rows

    def training_tracks(
        self, window: int | None = TrainSchedule.window, stride: int | None = None
    ) -> list[TrainingTrack]:
        """Cut trajectories into fixed-length windows for the training loop.

        See :func:`training.window_tracks`; ``window=None`` keeps whole
        trajectories.
        """
        runs = (self.trajectories[obj_id] for obj_id in sorted(self.trajectories))
        return window_tracks(runs, self.geometry, window, stride)

    def write(self, seq_dir) -> None:
        """Lay the scene out as a sequence directory: seqinfo, gt, detections."""
        from pathlib import Path

        seq_dir = Path(seq_dir)
        write_seqinfo(seq_dir / "seqinfo.ini", self.meta)
        write_ground_truth(seq_dir / "gt" / "gt.txt", self.ground_truth_rows())
        write_detections(seq_dir / "det" / "det.txt", self.detections)


def generate(spec: SceneSpec) -> Scene:
    """Build a scene deterministically from its spec."""
    rng = np.random.default_rng(spec.seed)
    base, growth = _sizes(spec, rng)
    build = _POSITION_BUILDERS[spec.motion]

    trajectories = {}
    for obj in range(spec.num_objects):
        size_track = _size_track(base[obj], growth[obj], spec.num_frames)
        pos_track = build(spec, rng, size_track)
        trajectories[obj + 1] = np.concatenate([pos_track, size_track], axis=1)

    detections = []
    for frame in range(1, spec.num_frames + 1):
        for obj_id in sorted(trajectories):
            if rng.random() < spec.detection_dropout:
                continue
            noisy = trajectories[obj_id][frame - 1] + rng.normal(
                0.0, spec.detection_jitter, size=4
            )
            noisy[2] = max(noisy[2], 1.0)
            noisy[3] = max(noisy[3], 1.0)
            detections.append(Detection(frame=frame, box=BoundingBox(*noisy)))
        for _ in range(rng.poisson(spec.false_positive_rate)):
            w = rng.uniform(_MIN_SIZE, _MAX_SIZE)
            h = rng.uniform(_MIN_SIZE, _MAX_SIZE)
            x = rng.uniform(0.0, spec.width - w)
            y = rng.uniform(0.0, spec.height - h)
            detections.append(Detection(frame=frame, box=BoundingBox(x, y, w, h), confidence=0.5))
    meta = SequenceMeta(
        name=spec.name,
        frame_rate=spec.frame_rate,
        length=spec.num_frames,
        width=spec.width,
        height=spec.height,
    )
    return Scene(spec=spec, meta=meta, trajectories=trajectories, detections=detections)


def drop_detections(scene: Scene, frames: range | list[int], object_ids=None) -> Scene:
    """Copy the scene with detections removed on the given frames.

    ``object_ids=None`` clears whole frames; otherwise only detections
    overlapping those objects' ground truth (IOU above a half) are removed.
    Useful for carving controlled occlusion gaps into an otherwise easy scene.
    """
    frames = set(frames)
    kept = []
    for det in scene.detections:
        if det.frame not in frames:
            kept.append(det)
            continue
        if object_ids is None:
            continue
        box = det.box.as_array()
        if any(box_iou(box, scene.trajectories[obj_id][det.frame - 1]) > 0.5 for obj_id in object_ids):
            continue
        kept.append(det)
    return Scene(
        spec=scene.spec,
        meta=scene.meta,
        trajectories=scene.trajectories,
        detections=kept,
    )
