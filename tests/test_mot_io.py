"""Sequence file round trips and strict parsing."""

import numpy as np
import pytest

from gaptrack import (
    BoundingBox,
    Codebook,
    Detection,
    ModelConfig,
    ParseError,
    SchemaError,
    SequenceMeta,
    init_weights,
    read_detections,
    read_ground_truth,
    read_seqinfo,
    save_codebook,
    save_weights,
    write_detections,
    write_ground_truth,
    write_seqinfo,
    write_results,
)
from gaptrack.cli import main
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
    # every row is kept with its confidence; the tracker applies the threshold
    assert [d.confidence for d in read_detections(path)] == pytest.approx([0.9, 0.2, 0.5])


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


def test_ground_truth_rejects_a_fractional_active_flag(tmp_path):
    # truncating 0.5 to 0 would drop the row without a word
    path = tmp_path / "gt.txt"
    path.write_text("1,1,10,10,5,5,1,1,1.0\n1,2,20,20,5,5,0.5,1,1.0\n")
    with pytest.raises(ParseError, match="active flag must be a whole number, got 0.5") as info:
        read_ground_truth(path)
    assert info.value.line_number == 2


def test_ground_truth_rejects_a_nan_class(tmp_path):
    path = tmp_path / "gt.txt"
    path.write_text("1,1,10,10,5,5,1,nan,1.0\n")
    with pytest.raises(ParseError, match="class must be a whole number, got nan") as info:
        read_ground_truth(path)
    assert info.value.line_number == 1


def test_ground_truth_rejects_a_nan_visibility(tmp_path):
    # no visibility threshold drops a NaN row, so it would be kept whatever the threshold
    path = tmp_path / "gt.txt"
    path.write_text("1,1,10,10,5,5,1,1,nan\n2,1,10,10,5,5,1,1,0.2\n")
    with pytest.raises(ParseError, match="visibility must be a number, got nan") as info:
        read_ground_truth(path, min_visibility=0.5)
    assert info.value.line_number == 1


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


@pytest.mark.parametrize("field", ["frame_rate", "width", "height"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_meta_rejects_non_finite_values(field, value):
    fields = {"frame_rate": 30.0, "width": 640.0, "height": 480.0, field: value}
    with pytest.raises(SchemaError, match="finite"):
        SequenceMeta(name="x", length=10, **fields)


@pytest.mark.parametrize("key, value", [("frameRate", "nan"), ("frameRate", "inf"), ("imWidth", "nan")])
def test_seqinfo_rejects_non_finite_values(tmp_path, key, value):
    # a NaN frame rate would otherwise get the 3-frame look-ahead of a sequence at 25 fps or more
    path = tmp_path / "seqinfo.ini"
    keys = {"frameRate": "30", "seqLength": "10", "imWidth": "640", "imHeight": "480", key: value}
    path.write_text("[Sequence]\n" + "".join(f"{k}={v}\n" for k, v in keys.items()))
    with pytest.raises(SchemaError, match="finite"):
        read_seqinfo(path)


def test_detections_reject_a_nan_confidence(tmp_path):
    # no confidence threshold keeps a NaN row, so it would be dropped without a word
    path = tmp_path / "det.txt"
    path.write_text("1,-1,10,10,5,5,0.9,-1,-1,-1\n2,-1,10,10,5,5,nan,-1,-1,-1\n")
    with pytest.raises(ParseError, match="confidence must be a number, got nan") as info:
        read_detections(path)
    assert info.value.line_number == 2


def test_track_reports_non_finite_sequence_input_with_an_error_line(tmp_path, capsys):
    book = Codebook(centroids=np.tile(np.linspace(-0.01, 0.01, 4), (4, 1)), k=4)
    save_codebook(tmp_path / "book.json", book)
    weights = init_weights(ModelConfig(num_clusters=4, hidden_dim=4), np.random.default_rng(0))
    save_weights(tmp_path / "model.npz", weights, book.checksum())
    seq = tmp_path / "seq"
    write_seqinfo(seq / "seqinfo.ini", SequenceMeta(name="seq", frame_rate=30.0, length=2, width=640.0, height=480.0))
    args = ["track", "--model", str(tmp_path / "model.npz"), "--codebook", str(tmp_path / "book.json"),
            "--sequences", str(seq), "--out", str(tmp_path / "out")]

    (seq / "det").mkdir()
    (seq / "det" / "det.txt").write_text("1,-1,10,10,5,5,nan,-1,-1,-1\n")
    assert main(args) == 1
    assert f"error: {seq / 'det' / 'det.txt'}:1: confidence must be a number, got nan" in capsys.readouterr().err

    (seq / "det" / "det.txt").write_text("1,-1,10,10,5,5,0.9,-1,-1,-1\n")
    ini = seq / "seqinfo.ini"
    ini.write_text(ini.read_text().replace("frameRate=30", "frameRate=nan"))
    assert main(args) == 1
    assert f"error: {ini}: malformed sequence metadata: sequence frame rate must be finite and positive, got nan" \
        in capsys.readouterr().err


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
