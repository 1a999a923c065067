"""Synthetic scene generator: noise knobs, bounds, and windowing."""

from dataclasses import replace

import numpy as np
import pytest

from gaptrack import (
    ConfigError,
    SceneSpec,
    drop_detections,
    generate,
    read_detections,
    read_seqinfo,
)

CLEAN = dict(
    num_objects=4,
    num_frames=60,
    width=960.0,
    height=540.0,
    detection_dropout=0.0,
    detection_jitter=0.0,
    false_positive_rate=0.0,
)


def test_noise_free_detections_equal_ground_truth():
    scene = generate(SceneSpec(seed=5, **CLEAN))
    rows = scene.ground_truth_rows()
    assert len(scene.detections) == len(rows) == 4 * 60
    for det, (frame, _, box) in zip(scene.detections, rows):
        assert det.frame == frame
        assert det.box.x == pytest.approx(box.x)
        assert det.box.y == pytest.approx(box.y)
        assert det.box.w == pytest.approx(box.w)
        assert det.box.h == pytest.approx(box.h)
        assert det.confidence == 1.0


def test_dropout_thins_detections_at_the_configured_rate():
    spec = SceneSpec(seed=9, **{**CLEAN, "num_objects": 10, "num_frames": 100,
                                "detection_dropout": 0.1})
    scene = generate(spec)
    # binomial(1000, 0.9): mean 900, std 9.5; a 5-sigma band
    assert 850 <= len(scene.detections) <= 950


def test_false_positives_arrive_at_poisson_rate():
    spec = SceneSpec(seed=13, **{**CLEAN, "num_frames": 200, "false_positive_rate": 0.5})
    scene = generate(spec)
    clutter = [d for d in scene.detections if d.confidence == 0.5]
    assert 60 <= len(clutter) <= 140  # Poisson(100), 4-sigma band
    geom = scene.geometry
    for det in clutter:
        assert 0.0 <= det.box.x and det.box.x + det.box.w <= geom.width
        assert 0.0 <= det.box.y and det.box.y + det.box.h <= geom.height


def test_generation_is_deterministic_in_the_seed():
    spec = SceneSpec(num_objects=5, num_frames=40, seed=21)
    a, b = generate(spec), generate(spec)
    assert len(a.detections) == len(b.detections)
    for da, db in zip(a.detections, b.detections):
        assert (da.frame, da.box, da.confidence) == (db.frame, db.box, db.confidence)
    for obj_id in a.trajectories:
        np.testing.assert_array_equal(a.trajectories[obj_id], b.trajectories[obj_id])

    c = generate(replace(spec, seed=22))
    assert any(
        not np.array_equal(a.trajectories[i], c.trajectories[i])
        for i in a.trajectories
    )


@pytest.mark.parametrize("motion", ["constant-velocity", "sinusoidal", "random-walk"])
def test_trajectories_stay_inside_the_frame(motion):
    spec = SceneSpec(num_objects=8, num_frames=200, motion=motion, seed=31)
    scene = generate(spec)
    for boxes in scene.trajectories.values():
        assert boxes.shape == (200, 4)
        x, y, w, h = boxes.T
        assert np.all(w > 0) and np.all(h > 0)
        assert np.all(x >= -1e-6) and np.all(y >= -1e-6)
        assert np.all(x + w <= spec.width + 1e-6)
        assert np.all(y + h <= spec.height + 1e-6)


def test_training_tracks_windowing():
    scene = generate(SceneSpec(seed=5, **{**CLEAN, "num_frames": 80}))

    whole = scene.training_tracks(window=None)
    assert len(whole) == 4
    assert all(len(t.boxes) == 80 for t in whole)

    # 80 = 25 + 25 + 25 + 5; the 5-box tail is long enough to keep
    tracks = scene.training_tracks(window=25)
    assert len(tracks) == 4 * 4
    assert sorted({len(t.boxes) for t in tracks}) == [5, 25]

    # 77 = 25 + 25 + 25 + 2; a 2-box tail has no transition and is dropped
    short = generate(SceneSpec(seed=5, **{**CLEAN, "num_frames": 77}))
    assert len(short.training_tracks(window=25)) == 4 * 3


def test_drop_detections_clears_whole_frames():
    scene = generate(SceneSpec(seed=5, **CLEAN))
    gapped = drop_detections(scene, range(10, 13))
    assert all(d.frame not in (10, 11, 12) for d in gapped.detections)
    assert len(gapped.detections) == len(scene.detections) - 3 * 4
    # the original scene is untouched
    assert any(d.frame == 10 for d in scene.detections)


def test_drop_detections_targets_one_object():
    scene = generate(SceneSpec(seed=5, **CLEAN))
    gapped = drop_detections(scene, [20, 21], object_ids=[2])
    removed = [d for d in scene.detections if d not in gapped.detections]
    assert len(removed) == 2
    for det in removed:
        assert det.frame in (20, 21)
        truth = scene.trajectories[2][det.frame - 1]
        assert det.box.x == pytest.approx(truth[0])


def test_spec_validation():
    with pytest.raises(ConfigError):
        SceneSpec(motion="teleport")
    with pytest.raises(ConfigError):
        SceneSpec(num_objects=0)
    with pytest.raises(ConfigError):
        SceneSpec(num_frames=2)
    with pytest.raises(ConfigError):
        SceneSpec(detection_dropout=1.0)


def test_write_lays_out_a_sequence_directory(tmp_path):
    scene = generate(SceneSpec(seed=5, **{**CLEAN, "name": "laid-out"}))
    seq = tmp_path / "laid-out"
    scene.write(seq)

    meta = read_seqinfo(seq / "seqinfo.ini")
    assert meta.name == "laid-out"
    assert meta.length == 60
    assert (meta.width, meta.height) == (960.0, 540.0)

    dets = read_detections(seq / "det" / "det.txt")
    assert len(dets) == len(scene.detections)
    assert (seq / "gt" / "gt.txt").exists()
