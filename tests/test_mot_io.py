"""Sequence file round trips and strict parsing."""

import pytest

from gaptrack import (
    BoundingBox,
    Detection,
    ParseError,
    SchemaError,
    SequenceMeta,
    read_detections,
    read_ground_truth,
    read_seqinfo,
    write_detections,
    write_ground_truth,
    write_seqinfo,
    write_results,
)
from gaptrack.mot_io import discover_sequence, read_labeled_boxes
from gaptrack.tracker import FrameResult


def test_parse_detection_row(tmp_path):
    path = tmp_path / "det.txt"
    path.write_text("1,-1,100.0,200.0,50.0,120.0,0.9,-1,-1,-1\n")
    dets = read_detections(path)
    assert len(dets) == 1
    d = dets[0]
    assert d.frame == 1
    assert d.box == BoundingBox(100.0, 200.0, 50.0, 120.0)
    assert d.confidence == pytest.approx(0.9)


def test_detection_confidence_filter(tmp_path):
    path = tmp_path / "det.txt"
    path.write_text(
        "1,-1,10,10,5,5,0.9,-1,-1,-1\n"
        "1,-1,20,20,5,5,0.2,-1,-1,-1\n"
        "2,-1,30,30,5,5,0.5,-1,-1,-1\n"
    )
    assert len(read_detections(path)) == 3
    assert len(read_detections(path, min_confidence=0.5)) == 2


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "det.txt"
    path.write_text("\n1,-1,10,10,5,5,1.0,-1,-1,-1\n\n\n")
    assert len(read_detections(path)) == 1


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "det.txt"
    path.write_text("1,-1,10,10,5,5,1.0,-1,-1,-1\n1,-1,10,10\n")
    with pytest.raises(ParseError) as info:
        read_detections(path)
    assert info.value.line_number == 2

    path.write_text("1,-1,10,10,abc,5,1.0,-1,-1,-1\n")
    with pytest.raises(ParseError) as info:
        read_detections(path)
    assert info.value.line_number == 1
    assert str(path) in str(info.value)

    path.write_text("0,-1,10,10,5,5,1.0,-1,-1,-1\n")
    with pytest.raises(ParseError):
        read_detections(path)

    # zero-width box
    path.write_text("1,-1,10,10,0,5,1.0,-1,-1,-1\n")
    with pytest.raises(ParseError):
        read_detections(path)


@pytest.mark.parametrize("reader", [read_detections, read_ground_truth, read_labeled_boxes],
                         ids=lambda reader: reader.__name__)
@pytest.mark.parametrize("frame", ["1.5", "nan", "inf", "0", "-2"])
def test_readers_reject_frames_that_are_not_whole_and_positive(tmp_path, reader, frame):
    path = tmp_path / "rows.txt"
    path.write_text(f"1,1,10,10,5,5,1,1,1.0\n{frame},1,10,10,5,5,1,1,1.0\n")
    with pytest.raises(ParseError, match="frame index") as info:
        reader(path)
    assert info.value.line_number == 2


@pytest.mark.parametrize("reader", [read_ground_truth, read_labeled_boxes],
                         ids=lambda reader: reader.__name__)
@pytest.mark.parametrize("track_id", ["7.9", "nan", "-inf"])
def test_readers_reject_ids_that_are_not_whole(tmp_path, reader, track_id):
    path = tmp_path / "rows.txt"
    path.write_text(f"1,1,10,10,5,5,1,1,1.0\n1,{track_id},10,10,5,5,1,1,1.0\n")
    with pytest.raises(ParseError, match="id must be a whole number") as info:
        reader(path)
    assert info.value.line_number == 2


def test_readers_keep_whole_numbers_written_as_floats(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("2.0,-1.0,10,10,5,5,1,1,1.0\n")
    assert read_labeled_boxes(path) == [(2, -1, BoundingBox(10.0, 10.0, 5.0, 5.0))]
    assert [d.frame for d in read_detections(path)] == [2]


def test_results_row_format(tmp_path):
    path = tmp_path / "out.txt"
    results = [
        FrameResult(frame=3, committed=((7, BoundingBox(1.5, 2.25, 10.0, 20.0), "detected"),)),
    ]
    write_results(path, results)
    assert path.read_text() == "3,7,1.50,2.25,10.00,20.00,1,-1,-1,-1\n"


def test_detections_round_trip(tmp_path):
    dets = [
        Detection(frame=1, box=BoundingBox(10.25, 20.5, 30.0, 40.75), confidence=0.875),
        Detection(frame=2, box=BoundingBox(11.0, 21.0, 30.0, 40.0), confidence=1.0),
    ]
    path = tmp_path / "det" / "det.txt"
    write_detections(path, dets)
    back = read_detections(path)
    assert back == dets


def test_ground_truth_round_trip(tmp_path):
    rows = [
        (1, 1, BoundingBox(10.0, 20.0, 30.0, 40.0)),
        (1, 2, BoundingBox(50.0, 60.0, 30.0, 40.0)),
        (2, 1, BoundingBox(12.0, 22.0, 30.0, 40.0)),
    ]
    path = tmp_path / "gt" / "gt.txt"
    write_ground_truth(path, rows)
    back = read_ground_truth(path)
    assert [(g.frame, g.track_id, g.box) for g in back] == rows
    assert all(g.active and g.class_id == 1 and g.visibility == 1.0 for g in back)
    assert read_labeled_boxes(path) == rows


def test_ground_truth_filters(tmp_path):
    path = tmp_path / "gt.txt"
    path.write_text(
        "1,1,10,10,5,5,1,1,1.0\n"   # kept
        "1,2,20,20,5,5,0,1,1.0\n"   # inactive
        "1,3,30,30,5,5,1,7,1.0\n"   # non-pedestrian class
        "1,4,40,40,5,5,1,1,0.1\n"   # low visibility
    )
    kept = read_ground_truth(path, min_visibility=0.5)
    assert [g.track_id for g in kept] == [1]
    everything = read_ground_truth(path, keep_classes=None)
    assert [g.track_id for g in everything] == [1, 3, 4]


def test_seqinfo_round_trip(tmp_path):
    meta = SequenceMeta(name="seq-01", frame_rate=14.0, length=750, width=1920.0, height=1080.0)
    path = tmp_path / "seqinfo.ini"
    write_seqinfo(path, meta)
    back = read_seqinfo(path)
    assert back == meta
    assert back.geometry.width == 1920.0


def test_seqinfo_missing_keys(tmp_path):
    path = tmp_path / "seqinfo.ini"
    path.write_text("[Sequence]\nname=broken\n")
    with pytest.raises(SchemaError):
        read_seqinfo(path)
    path.write_text("just text\n")
    with pytest.raises(SchemaError):
        read_seqinfo(path)


def test_meta_validates_dimensions():
    with pytest.raises(SchemaError):
        SequenceMeta(name="x", frame_rate=0.0, length=10, width=640.0, height=480.0)
    with pytest.raises(SchemaError):
        SequenceMeta(name="x", frame_rate=30.0, length=0, width=640.0, height=480.0)
    with pytest.raises(SchemaError):
        SequenceMeta(name="x", frame_rate=30.0, length=10, width=-1.0, height=480.0)


def test_discover_sequence(tmp_path):
    seq = tmp_path / "seq-01"
    meta = SequenceMeta(name="seq-01", frame_rate=30.0, length=10, width=640.0, height=480.0)
    write_seqinfo(seq / "seqinfo.ini", meta)
    write_detections(seq / "det" / "det.txt",
                     [Detection(frame=1, box=BoundingBox(1.0, 1.0, 5.0, 5.0))])

    found_meta, det_path, gt_path = discover_sequence(seq)
    assert found_meta == meta
    assert det_path.is_file()
    assert gt_path is None  # no ground truth laid out

    write_ground_truth(seq / "gt" / "gt.txt", [(1, 1, BoundingBox(1.0, 1.0, 5.0, 5.0))])
    _, _, gt_path = discover_sequence(seq)
    assert gt_path is not None and gt_path.is_file()

    with pytest.raises(SchemaError):
        discover_sequence(tmp_path / "nowhere")
