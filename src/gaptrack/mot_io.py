"""Readers and writers for MOT-style sequence data.

Detections and ground truth live in comma-separated files with one box per
row: ``frame, id, bb_left, bb_top, bb_width, bb_height, conf, x, y, z``.
Result files use the same layout with the trailing columns fixed at
``1, -1, -1, -1`` and coordinates rounded to two decimals. Sequence metadata
comes from an INI file with a single ``[Sequence]`` section.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, SchemaError
from .geometry import BoundingBox, FrameGeometry, GeometryError

DET_FILE = Path("det") / "det.txt"
GT_FILE = Path("gt") / "gt.txt"
SEQINFO_FILE = "seqinfo.ini"


@dataclass(frozen=True)
class Detection:
    frame: int
    box: BoundingBox
    confidence: float = 1.0


@dataclass(frozen=True)
class GroundTruthBox:
    frame: int
    track_id: int
    box: BoundingBox
    active: bool = True
    class_id: int = 1
    visibility: float = 1.0


@dataclass(frozen=True)
class SequenceMeta:
    name: str
    frame_rate: float
    length: int
    width: float
    height: float

    def __post_init__(self):
        if self.frame_rate is None or self.frame_rate <= 0:
            raise SchemaError(f"sequence frame rate must be positive, got {self.frame_rate}")
        if self.length is None or self.length < 1:
            raise SchemaError(f"sequence length must be >= 1, got {self.length}")
        if not self.width or not self.height or self.width <= 0 or self.height <= 0:
            raise SchemaError(f"frame dimensions must be positive, got {self.width}x{self.height}")

    @property
    def geometry(self) -> FrameGeometry:
        return FrameGeometry(self.width, self.height)


def _parse_row(path: str, line_number: int, line: str, min_fields: int) -> list[float]:
    fields = line.split(",")
    if len(fields) < min_fields:
        raise ParseError(path, line_number, f"expected at least {min_fields} comma-separated fields, got {len(fields)}")
    try:
        return [float(f) for f in fields]
    except ValueError as exc:
        raise ParseError(path, line_number, f"non-numeric field: {exc}") from None


def _row_int(path: str, line_number: int, value: float, name: str, minimum: float = -math.inf) -> int:
    """A frame or id column as an int; it must be a finite whole number of at least ``minimum``."""
    if not value.is_integer():
        raise ParseError(path, line_number, f"{name} must be a whole number, got {value:g}")
    if value < minimum:
        raise ParseError(path, line_number, f"{name} must be >= {minimum:g}, got {value:g}")
    return int(value)


def _row_box(path: str, line_number: int, values: list[float]) -> BoundingBox:
    try:
        return BoundingBox(values[2], values[3], values[4], values[5])
    except GeometryError as exc:
        raise ParseError(path, line_number, f"invalid box: {exc}") from None


def read_detections(path, min_confidence: float | None = None) -> list[Detection]:
    """Parse a detection file; rows below ``min_confidence`` are dropped."""
    path = Path(path)
    out = []
    for line_number, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        values = _parse_row(str(path), line_number, line, 7)
        frame = _row_int(str(path), line_number, values[0], "frame index", 1)
        conf = values[6]
        if min_confidence is not None and conf < min_confidence:
            continue
        out.append(Detection(frame=frame, box=_row_box(str(path), line_number, values), confidence=conf))
    return out


def read_ground_truth(
    path,
    min_visibility: float = 0.0,
    keep_classes: tuple[int, ...] | None = (1,),
) -> list[GroundTruthBox]:
    """Parse a ground-truth file, filtering inactive rows, classes, and low visibility.

    Rows may omit the trailing active/class/visibility columns, in which case
    they default to active pedestrians with full visibility.
    ``keep_classes=None`` keeps every class.
    """
    path = Path(path)
    out = []
    for line_number, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        values = _parse_row(str(path), line_number, line, 6)
        frame = _row_int(str(path), line_number, values[0], "frame index", 1)
        track_id = _row_int(str(path), line_number, values[1], "id")
        active = bool(int(values[6])) if len(values) > 6 else True
        class_id = int(values[7]) if len(values) > 7 else 1
        visibility = values[8] if len(values) > 8 else 1.0
        if not active:
            continue
        if keep_classes is not None and class_id not in keep_classes:
            continue
        if visibility < min_visibility:
            continue
        out.append(
            GroundTruthBox(
                frame=frame,
                track_id=track_id,
                box=_row_box(str(path), line_number, values),
                active=active,
                class_id=class_id,
                visibility=visibility,
            )
        )
    return out


def read_labeled_boxes(path) -> list[tuple[int, int, BoundingBox]]:
    """Parse (frame, id, box) rows without any filtering; used for result files."""
    path = Path(path)
    out = []
    for line_number, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        values = _parse_row(str(path), line_number, line, 6)
        frame = _row_int(str(path), line_number, values[0], "frame index", 1)
        track_id = _row_int(str(path), line_number, values[1], "id")
        out.append((frame, track_id, _row_box(str(path), line_number, values)))
    return out


def write_results(path, frame_results) -> None:
    """Write tracker output rows, frame-major then id-ascending, 2-decimal coords."""
    lines = []
    for result in frame_results:
        for tracklet_id, box, _ in sorted(result.committed, key=lambda row: row[0]):
            lines.append(
                f"{result.frame},{tracklet_id},{box.x:.2f},{box.y:.2f},{box.w:.2f},{box.h:.2f},1,-1,-1,-1"
            )
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def write_detections(path, detections) -> None:
    lines = [
        f"{d.frame},-1,{d.box.x:.2f},{d.box.y:.2f},{d.box.w:.2f},{d.box.h:.2f},{d.confidence:.4f},-1,-1,-1"
        for d in detections
    ]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + ("\n" if lines else ""))


def write_ground_truth(path, rows) -> None:
    """Write (frame, id, box) triples as active class-1 fully visible entries."""
    lines = [
        f"{frame},{track_id},{box.x:.2f},{box.y:.2f},{box.w:.2f},{box.h:.2f},1,1,1.0"
        for frame, track_id, box in rows
    ]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + ("\n" if lines else ""))


def read_seqinfo(path) -> SequenceMeta:
    """Parse ``seqinfo.ini``; raises SchemaError when required keys are missing."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise SchemaError(f"{path}: not a sequence metadata file: {exc}") from None
    if not read or "Sequence" not in parser:
        raise SchemaError(f"{path}: missing [Sequence] section")
    section = parser["Sequence"]
    missing = [key for key in ("frameRate", "seqLength", "imWidth", "imHeight") if key not in section]
    if missing:
        raise SchemaError(f"{path}: missing sequence keys: {', '.join(missing)}")
    try:
        return SequenceMeta(
            name=section.get("name", Path(path).parent.name),
            frame_rate=section.getfloat("frameRate"),
            length=section.getint("seqLength"),
            width=section.getfloat("imWidth"),
            height=section.getfloat("imHeight"),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed sequence metadata: {exc}") from None


def write_seqinfo(path, meta: SequenceMeta) -> None:
    text = (
        "[Sequence]\n"
        f"name={meta.name}\n"
        "imDir=img1\n"
        f"frameRate={meta.frame_rate:g}\n"
        f"seqLength={meta.length}\n"
        f"imWidth={meta.width:g}\n"
        f"imHeight={meta.height:g}\n"
        "imExt=.jpg\n"
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def discover_sequence(seq_dir):
    """Locate seqinfo, detections, and optional ground truth inside a sequence dir."""
    seq_dir = Path(seq_dir)
    seqinfo = seq_dir / SEQINFO_FILE
    if not seqinfo.is_file():
        raise SchemaError(f"{seq_dir}: missing {SEQINFO_FILE}")
    det = seq_dir / DET_FILE
    if not det.is_file():
        raise SchemaError(f"{seq_dir}: missing {DET_FILE}")
    gt = seq_dir / GT_FILE
    return read_seqinfo(seqinfo), det, (gt if gt.is_file() else None)
