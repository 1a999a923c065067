"""Run-config validation and the command-line pipeline.

The pipeline smoke test drives synth, fit-codebook, train, track, evaluate,
and inpaint-demo through ``main`` with a deliberately small budget; model
quality under that budget is not asserted here, only that every stage runs,
exits 0, and leaves well-formed artifacts behind.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaptrack import (
    BoundingBox,
    ConfigError,
    InpaintParams,
    ModelConfig,
    RunConfig,
    SceneSpec,
    TrackerConfig,
    TrainSchedule,
    aggregate,
    apply_overrides,
    evaluate,
    format_report,
    from_dict,
    from_file,
    load_codebook,
    load_config,
    read_ground_truth,
    read_labeled_boxes,
    read_seqinfo,
    write_ground_truth,
)
from gaptrack.cli import main
from gaptrack.config import ENV_CONFIG, CodebookSection, ModelSection


def test_defaults():
    cfg = RunConfig()
    assert cfg.seed == 0
    assert cfg.codebook.size == 128
    assert cfg.model.hidden_dim == 48
    assert cfg.training.iterations == 5000
    assert cfg.tracker.gate_factor == 2.0
    assert cfg.tracker.termination_gap == 10
    assert cfg.tracker.inpaint.num_samples == 30
    # the packaged run uses the library defaults
    assert cfg.tracker_config() == TrackerConfig()
    assert cfg.train_schedule() == TrainSchedule()
    assert cfg.scene_spec() == SceneSpec()
    assert cfg.model_config(17) == ModelConfig(num_clusters=17)


def test_sections_inherit_the_global_seed():
    cfg = from_dict({"seed": 42})
    assert cfg.train_schedule().seed == 42
    assert cfg.tracker.inpaint.seed == 42
    assert cfg.scene_spec().seed == 42

    pinned = from_dict({"seed": 42, "training": {"seed": 7}})
    assert pinned.train_schedule().seed == 7
    assert pinned.scene_spec().seed == 42


def test_builders_carry_section_fields():
    cfg = from_dict({
        "model": {"hidden_dim": 12},
        "training": {"iterations": 9, "batch_size": 3},
        "tracker": {"gate_factor": 1.5, "inpaint": {"num_samples": 4, "t_trs": 2}},
        "scene": {"num_objects": 2, "name": "tiny"},
    })
    assert cfg.model_config(17).num_clusters == 17
    assert cfg.model_config(17).hidden_dim == 12
    assert cfg.training.iterations == 9
    assert cfg.tracker.gate_factor == 1.5
    assert cfg.tracker.inpaint.num_samples == 4
    assert cfg.tracker.inpaint.t_trs == 2
    assert (cfg.scene.num_objects, cfg.scene.name) == (2, "tiny")


def test_unknown_keys_fail_loudly():
    with pytest.raises(ConfigError, match="trainig"):
        from_dict({"trainig": {}})
    with pytest.raises(ConfigError, match="training.learning_rte"):
        from_dict({"training": {"learning_rte": 0.1}})
    with pytest.raises(ConfigError, match="tracker.inpaint.samples"):
        from_dict({"tracker": {"inpaint": {"samples": 5}}})
    # the gate is set through gate_factor only
    with pytest.raises(ConfigError, match="tracker.assignment_gate"):
        from_dict({"tracker": {"assignment_gate": 12.5}})


def test_value_types_are_checked():
    with pytest.raises(ConfigError, match="iterations"):
        from_dict({"training": {"iterations": "many"}})
    with pytest.raises(ConfigError, match="iterations"):
        from_dict({"training": {"iterations": 2.5}})
    with pytest.raises(ConfigError, match="gate_factor"):
        from_dict({"tracker": {"gate_factor": True}})
    with pytest.raises(ConfigError, match="emit_inpainted"):
        from_dict({"tracker": {"emit_inpainted": 1}})
    with pytest.raises(ConfigError, match="does not accept null"):
        from_dict({"seed": None})
    # types come from the field annotations, so null defaults check them too
    with pytest.raises(ConfigError, match="t_trs"):
        from_dict({"tracker": {"inpaint": {"t_trs": 2.5}}})
    with pytest.raises(ConfigError, match="scene.seed"):
        from_dict({"scene": {"seed": 2.5}})
    # the sections' own range checks report as config errors
    with pytest.raises(ConfigError, match="termination_gap"):
        from_dict({"tracker": {"termination_gap": 0}})
    # no detector score compares >= NaN, so NaN would drop every detection;
    # the infinities are allowed, since detector scores are unbounded
    with pytest.raises(ConfigError, match="min_detection_confidence"):
        from_dict(json.loads('{"tracker": {"min_detection_confidence": NaN}}'))
    for bound in (float("inf"), -float("inf")):
        assert from_dict({"tracker": {"min_detection_confidence": bound}}).tracker.min_detection_confidence == bound
    for scene in ({"false_positive_rate": -0.5}, {"false_positive_rate": float("nan")},
                  {"detection_jitter": -1.0}, {"detection_jitter": float("nan")},
                  {"detection_jitter": float("inf")}, {"width": -100}, {"width": 1e-9},
                  {"height": float("nan")}, {"height": float("inf")}, {"frame_rate": 0},
                  {"frame_rate": float("inf")}):
        [field] = scene
        with pytest.raises(ConfigError, match=f"scene: {field}"):
            from_dict({"scene": scene})
    assert from_dict({"scene": {"false_positive_rate": 0, "detection_jitter": 0}})
    # a frame side that just holds the largest box is fine
    assert from_dict({"scene": {"width": 144, "height": 144}})
    # ints are fine where floats are expected
    assert from_dict({"training": {"learning_rate": 1}}).training.learning_rate == 1
    # numpy takes only non-negative seeds; each seeded section checks its own
    for data, message in (({"seed": -1}, "seed must be >= 0, got -1"),
                          ({"codebook": {"seed": -1}}, "codebook: seed must be >= 0"),
                          ({"training": {"seed": -2}}, "training: seed must be >= 0"),
                          ({"tracker": {"inpaint": {"seed": -5}}}, "tracker.inpaint: seed must be >= 0"),
                          ({"scene": {"seed": -3}}, "scene: seed must be >= 0")):
        with pytest.raises(ConfigError, match=message):
            from_dict(data)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        RunConfig(seed=-1)
    assert from_dict({"seed": 0, "tracker": {"inpaint": {"seed": 0}}}).tracker.inpaint.seed == 0


@pytest.mark.parametrize("inpaint, field", [
    ({"sampling": "Top1"}, "sampling"),
    ({"num_samples": -3}, "num_samples"),
    ({"iou_threshold": 7.5}, "iou_threshold"),
    ({"iou_threshold": -0.1}, "iou_threshold"),
    ({"t_trs": -2}, "t_trs"),
])
def test_inpaint_params_are_range_checked(inpaint, field):
    with pytest.raises(ConfigError, match=f"tracker.inpaint: {field}"):
        from_dict({"tracker": {"inpaint": inpaint}})


def test_inpaint_params_accept_their_edges():
    inpaint = from_dict({"tracker": {"inpaint": {
        "sampling": "top1", "num_samples": 0, "iou_threshold": 1, "t_trs": 0,
    }}}).tracker.inpaint
    assert (inpaint.num_samples, inpaint.iou_threshold, inpaint.t_trs) == (0, 1, 0)
    inpaint = from_dict({"tracker": {"inpaint": {"iou_threshold": 0.0}}}).tracker.inpaint
    assert inpaint.iou_threshold == 0.0


@pytest.mark.parametrize("size", [0, -4])
def test_codebook_section_is_range_checked(size):
    with pytest.raises(ConfigError, match="codebook: size"):
        from_dict({"codebook": {"size": size}})


@pytest.mark.parametrize("hidden_dim", [0, -1])
def test_model_section_is_range_checked(hidden_dim):
    with pytest.raises(ConfigError, match="model: hidden_dim"):
        from_dict({"model": {"hidden_dim": hidden_dim}})


@pytest.mark.parametrize("training, field", [
    ({"batch_size": 0}, "batch_size"),
    ({"learning_rate": 0}, "learning_rate"),
    ({"learning_rate": -1e-3}, "learning_rate"),
    ({"iterations": -1}, "iterations"),
    ({"jitter_fraction": -0.01}, "jitter_fraction"),
    ({"teacher_forcing_prob": 1.5}, "teacher_forcing_prob"),
    ({"teacher_forcing_prob": -0.1}, "teacher_forcing_prob"),
    ({"teacher_forcing_onset": 1.01}, "teacher_forcing_onset"),
    ({"teacher_forcing_onset": -0.5}, "teacher_forcing_onset"),
    ({"window": 2}, "window"),
    ({"clip_norm": 0}, "clip_norm"),
    ({"clip_norm": -1.0}, "clip_norm"),
])
def test_training_section_is_range_checked(training, field):
    with pytest.raises(ConfigError, match=f"training: {field}"):
        from_dict({"training": training})


def test_training_section_accepts_its_edges():
    schedule = from_dict({"training": {
        "iterations": 0, "batch_size": 1, "jitter_fraction": 0, "teacher_forcing_prob": 1,
        "teacher_forcing_onset": 0, "window": 3, "clip_norm": 1e-9,
    }}).training
    assert (schedule.iterations, schedule.batch_size, schedule.window) == (0, 1, 3)
    assert from_dict({"training": {"teacher_forcing_prob": 0, "teacher_forcing_onset": 1}})


@pytest.mark.parametrize("tracker_section, field", [
    ({"gate_factor": 0}, "gate_factor"),
    ({"gate_factor": -2.0}, "gate_factor"),
])
def test_tracker_section_is_range_checked(tracker_section, field):
    with pytest.raises(ConfigError, match=f"tracker: {field}"):
        from_dict({"tracker": tracker_section})
    # detector scores are not confined to [0, 1], so the threshold is free
    assert from_dict({"tracker": {"min_detection_confidence": -5.0}})


# Sizes, counts and seeds that are not integers, built in code rather than
# read from a JSON config (which rejects them by type).
NON_INTEGER_SETTINGS = [
    (ModelConfig, {"num_clusters": 3.0}, ValueError),
    (ModelConfig, {"num_clusters": 4, "hidden_dim": 8.0}, ValueError),
    (ModelConfig, {"num_clusters": True}, ValueError),
    (TrainSchedule, {"window": 3.5}, ValueError),
    (TrainSchedule, {"batch_size": 2.5}, ValueError),
    (TrainSchedule, {"jitter_fraction": float("inf")}, ValueError),
    (InpaintParams, {"t_trs": 1.5}, ValueError),
    (InpaintParams, {"num_samples": 2.5}, ValueError),
    (TrackerConfig, {"termination_gap": 2.5}, ValueError),
    (CodebookSection, {"size": 2.5}, ValueError),
    (ModelSection, {"hidden_dim": 16.0}, ValueError),
    (SceneSpec, {"num_objects": 2.5}, ConfigError),
]


@pytest.mark.parametrize("cls, kwargs, error", [
    pytest.param(*case, id=f"{case[0].__name__}.{list(case[1])[-1]}={list(case[1].values())[-1]}")
    for case in NON_INTEGER_SETTINGS
])
def test_settings_built_in_code_reject_non_integer_sizes(cls, kwargs, error):
    field = list(kwargs)[-1]
    with pytest.raises(error, match=f"^{field} must be"):
        cls(**kwargs)


def test_settings_accept_numpy_integers_and_null_where_allowed():
    assert ModelConfig(np.int64(3), hidden_dim=np.int32(8)).hidden_dim == 8
    assert TrainSchedule(window=None, seed=np.uint8(4)).window is None
    assert InpaintParams(t_trs=None).t_trs is None


def test_nullable_fields_accept_null():
    cfg = from_dict({"training": {"clip_norm": None, "window": None}})
    assert cfg.training.clip_norm is None
    assert cfg.training.window is None


def test_file_round_trip(tmp_path):
    cfg = from_dict({"seed": 3, "training": {"iterations": 7, "clip_norm": None}})
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert from_file(path) == cfg
    assert from_dict(cfg.to_dict()) == cfg


def test_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        from_file(bad)
    nonobject = tmp_path / "list.json"
    nonobject.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        from_file(nonobject)


def test_load_config_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    assert load_config() == RunConfig()

    env_file = tmp_path / "env.json"
    env_file.write_text(json.dumps({"seed": 99}))
    monkeypatch.setenv(ENV_CONFIG, str(env_file))
    assert load_config().seed == 99

    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps({"seed": 5}))
    assert load_config(explicit).seed == 5


def test_apply_overrides():
    cfg = RunConfig()
    out = apply_overrides(cfg, {
        "seed": 8,
        "training.iterations": 100,
        "tracker.inpaint.num_samples": 5,
    })
    assert out.seed == 8
    assert out.training.iterations == 100
    assert out.tracker.inpaint.num_samples == 5
    assert cfg.training.iterations == 5000  # original untouched

    with pytest.raises(ConfigError, match="training.lr"):
        apply_overrides(cfg, {"training.lr": 0.1})
    with pytest.raises(ConfigError, match="nope.x"):
        apply_overrides(cfg, {"nope.x": 1})
    with pytest.raises(ConfigError):
        apply_overrides(cfg, {"training.iterations": "many"})


# ---------------------------------------------------------------------------
# command line


PIPELINE_CONFIG = {
    "seed": 3,
    "codebook": {"size": 16},
    "model": {"hidden_dim": 16},
    "training": {"iterations": 300, "batch_size": 8, "learning_rate": 3e-3, "window": 20},
    "tracker": {"inpaint": {"num_samples": 8}},
    "scene": {
        "num_objects": 4,
        "num_frames": 60,
        "width": 960.0,
        "height": 540.0,
        "detection_dropout": 0.05,
        "detection_jitter": 0.2,
        "false_positive_rate": 0.05,
        "name": "pipe",
    },
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Config file plus synth/fit-codebook/train artifacts, built once."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(PIPELINE_CONFIG))
    seq = root / "seq"
    book = root / "book.npz"
    model = root / "model.npz"
    assert main(["synth", "--config", str(cfg_path), "--out", str(seq)]) == 0
    assert main(["fit-codebook", "--config", str(cfg_path), "--out", str(book)]) == 0
    assert main(["train", "--config", str(cfg_path), "--codebook", str(book),
                 "--out", str(model)]) == 0
    return {"root": root, "config": cfg_path, "seq": seq, "book": book, "model": model}


def test_synth_writes_a_complete_sequence(tmp_path, capsys):
    out = tmp_path / "scene"
    rc = main(["synth", "--out", str(out), "--objects", "3", "--frames", "40",
               "--name", "smoke", "--seed", "5"])
    assert rc == 0
    assert "wrote scene" in capsys.readouterr().out
    meta = read_seqinfo(out / "seqinfo.ini")
    assert meta.name == "smoke"
    assert meta.length == 40
    assert (out / "det" / "det.txt").exists()
    assert (out / "gt" / "gt.txt").exists()


def test_synth_seed_flag_changes_the_scene(tmp_path):
    outs = []
    for seed in (5, 5, 6):
        out = tmp_path / f"s{len(outs)}"
        assert main(["synth", "--out", str(out), "--objects", "2", "--frames", "30",
                     "--seed", str(seed)]) == 0
        outs.append((out / "det" / "det.txt").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_train_reports_log_likelihood_against_uniform(pipeline, tmp_path, capsys):
    rc = main(["train", "--config", str(pipeline["config"]), "--codebook", str(pipeline["book"]),
               "--out", str(tmp_path / "model.npz"), "--iterations", "2"])
    assert rc == 0
    line = capsys.readouterr().out
    k = load_codebook(pipeline["book"]).k
    assert re.search(r"next-step accuracy \d\.\d{3}, log-likelihood -\d+\.\d{3} vs uniform ", line)
    assert f"vs uniform {-math.log(k):.3f} -> " in line


def test_track_and_evaluate(pipeline, tmp_path, capsys):
    results = tmp_path / "results"
    rc = main(["track", "--config", str(pipeline["config"]),
               "--model", str(pipeline["model"]), "--codebook", str(pipeline["book"]),
               "--sequences", str(pipeline["seq"]), "--out", str(results)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "MOTA" in out and "overall" in out
    result_file = results / "pipe.txt"
    assert result_file.exists()
    assert (results / "metrics.txt").exists()

    rc = main(["evaluate", "--gt", str(pipeline["seq"]), "--results", str(result_file),
               "--out", str(tmp_path / "report.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mota=" in out and "idf1=" in out
    assert "mota=" in (tmp_path / "report.txt").read_text()


def test_track_pools_sequences_into_overall_metrics(pipeline, tmp_path):
    seqs = []
    for name, seed in (("left", 11), ("right", 12)):
        seqs.append(tmp_path / name)
        assert main(["synth", "--config", str(pipeline["config"]), "--out", str(seqs[-1]),
                     "--name", name, "--seed", str(seed)]) == 0
    results = tmp_path / "results"
    rc = main(["track", "--config", str(pipeline["config"]),
               "--model", str(pipeline["model"]), "--codebook", str(pipeline["book"]),
               "--sequences", *map(str, seqs), "--out", str(results)])
    assert rc == 0
    reports = [
        evaluate(read_ground_truth(seq / "gt" / "gt.txt"), read_labeled_boxes(results / f"{seq.name}.txt"))
        for seq in seqs
    ]
    expected = format_report(aggregate(reports), "overall") + "\n"
    assert (results / "metrics.txt").read_text() == expected


def test_track_rejects_repeated_sequence_names(pipeline, tmp_path, capsys):
    results = tmp_path / "results"
    seq = str(pipeline["seq"])
    rc = main(["track", "--config", str(pipeline["config"]),
               "--model", str(pipeline["model"]), "--codebook", str(pipeline["book"]),
               "--sequences", seq, seq, "--out", str(results)])
    assert rc == 1
    assert "error: duplicate sequence name: pipe" in capsys.readouterr().err
    assert not results.exists()


def test_track_can_suppress_inpainted_boxes(pipeline, tmp_path):
    results = tmp_path / "no-bridges"
    rc = main(["track", "--config", str(pipeline["config"]),
               "--model", str(pipeline["model"]), "--codebook", str(pipeline["book"]),
               "--sequences", str(pipeline["seq"]), "--out", str(results),
               "--suppress-inpainted"])
    assert rc == 0
    assert (results / "pipe.txt").exists()


def test_inpaint_demo_writes_branch_csv(pipeline, tmp_path, capsys):
    out = tmp_path / "branches.csv"
    rc = main(["inpaint-demo", "--config", str(pipeline["config"]),
               "--model", str(pipeline["model"]), "--codebook", str(pipeline["book"]),
               "--out", str(out), "--object", "1", "--prefix", "10", "--gap", "2",
               "--samples", "6"])
    assert rc == 0
    assert "sampled 6 branches" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("branch,rejected,reason,iou_score")
    assert len(lines) == 1 + 6


def test_inpaint_demo_honours_a_zero_lookahead(pipeline, tmp_path):
    # t_trs 0 scores each branch on the rejoin frame alone, as the tracker does
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(
        {**PIPELINE_CONFIG, "tracker": {"inpaint": {"num_samples": 8, "t_trs": 0}}}
    ))
    out = tmp_path / "branches.csv"
    rc = main(["inpaint-demo", "--config", str(cfg_path),
               "--model", str(pipeline["model"]), "--codebook", str(pipeline["book"]),
               "--out", str(out), "--object", "1", "--prefix", "10", "--gap", "2"])
    assert rc == 0
    header, *rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    scores = [float(row[header.index("iou_score")]) for row in rows]
    assert len(scores) == 8
    # one IoU per lookahead frame, so a single frame caps the score at 1
    assert max(scores) <= 1.0


def test_inpaint_demo_ranks_against_the_tracker_s_detections(pipeline, tmp_path, capsys):
    # synthetic detections score 1.0 (false positives 0.5): above a threshold
    # of 1.5 the tracker sees none, so no branch can rejoin one
    survived = {}
    for threshold in (0.0, 1.5):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {**PIPELINE_CONFIG, "tracker": {"min_detection_confidence": threshold}}
        ))
        out = tmp_path / "branches.csv"
        rc = main(["inpaint-demo", "--config", str(cfg_path),
                   "--model", str(pipeline["model"]), "--codebook", str(pipeline["book"]),
                   "--out", str(out), "--object", "1", "--prefix", "10", "--gap", "2",
                   "--samples", "6"])
        assert rc == 0
        header, *rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        survived[threshold] = sum(row[header.index("rejected")] == "0" for row in rows)
        assert f"; {survived[threshold]} survived" in capsys.readouterr().out
    assert survived[0.0] > 0 and survived[1.5] == 0


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["synth", "--out", "x", "--frames", "0"])
    assert info.value.code == 2


def test_config_errors_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"training": {"lerning_rate": 0.1}}))
    rc = main(["synth", "--config", str(bad), "--out", str(tmp_path / "scene")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err
    # a scene's own range checks stop before numpy sees the value
    for scene in ({"false_positive_rate": -0.5}, {"width": -100}, {"width": 1e-9}, {"frame_rate": 0}):
        bad.write_text(json.dumps({"scene": scene}))
        rc = main(["synth", "--config", str(bad), "--out", str(tmp_path / "scene")])
        assert rc == 3
        assert "error:" in capsys.readouterr().err and not (tmp_path / "scene").exists()
    bad.write_text('{"tracker": {"min_detection_confidence": NaN}}')
    rc = main(["synth", "--config", str(bad), "--out", str(tmp_path / "scene")])
    assert rc == 3
    assert "min_detection_confidence" in capsys.readouterr().err and not (tmp_path / "scene").exists()
    # a negative seed stops at load time, not in numpy mid-run
    for data in ({"seed": -1}, {"tracker": {"inpaint": {"seed": -5}}}):
        bad.write_text(json.dumps(data))
        rc = main(["synth", "--config", str(bad), "--out", str(tmp_path / "scene")])
        assert rc == 3
        assert "seed must be >= 0" in capsys.readouterr().err and not (tmp_path / "scene").exists()
    rc = main(["synth", "--seed", "-1", "--out", str(tmp_path / "scene")])
    assert rc == 3
    assert "seed must be >= 0" in capsys.readouterr().err and not (tmp_path / "scene").exists()


def test_invalid_inpaint_settings_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tracker": {"inpaint": {"sampling": "Top1"}}}))
    rc = main(["synth", "--config", str(bad), "--out", str(tmp_path / "scene")])
    assert rc == 3
    assert "sampling" in capsys.readouterr().err
    # the flag goes through the same check
    rc = main(["inpaint-demo", "--model", "m.npz", "--codebook", "b.npz",
               "--out", str(tmp_path / "b.csv"), "--samples", "-3"])
    assert rc == 3
    assert "num_samples" in capsys.readouterr().err


def test_out_of_range_codebook_size_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"codebook": {"size": 0}}))
    rc = main(["fit-codebook", "--config", str(bad), "--out", str(tmp_path / "book.npz")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_runtime_errors_exit_1(tmp_path, capsys):
    rc = main(["train", "--codebook", str(tmp_path / "missing.npz"),
               "--out", str(tmp_path / "model.npz")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_rejects_iou_threshold_outside_unit_interval(tmp_path, capsys):
    gt, results = tmp_path / "gt.txt", tmp_path / "results.txt"
    write_ground_truth(gt, [(1, 1, BoundingBox(0.0, 0.0, 20.0, 40.0))])
    write_ground_truth(results, [(1, 7, BoundingBox(500.0, 0.0, 20.0, 40.0))])
    rc = main(["evaluate", "--gt", str(gt), "--results", str(results), "--iou-threshold", "0"])
    assert rc == 1
    assert "error: iou_threshold must lie in (0, 1], got 0.0" in capsys.readouterr().err


def test_evaluate_rejects_a_nan_frame_with_an_error_line(tmp_path, capsys):
    gt, results = tmp_path / "gt.txt", tmp_path / "results.txt"
    write_ground_truth(gt, [(1, 1, BoundingBox(0.0, 0.0, 20.0, 40.0))])
    results.write_text("nan,7,0,0,20,40,1,-1,-1,-1\n")
    rc = main(["evaluate", "--gt", str(gt), "--results", str(results)])
    assert rc == 1
    assert f"error: {results}:1: frame index must be a whole number, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("1,1,0,0,20,40,0.5,1,1.0", "active flag must be a whole number, got 0.5"),
    ("1,1,0,0,20,40,1,nan,1.0", "class must be a whole number, got nan"),
    ("1,1,0,0,20,40,1,1,nan", "visibility must be a number, got nan"),
])
def test_evaluate_rejects_a_malformed_gt_column_with_an_error_line(tmp_path, capsys, row, message):
    gt, results = tmp_path / "gt.txt", tmp_path / "results.txt"
    gt.write_text(row + "\n")
    write_ground_truth(results, [(1, 7, BoundingBox(0.0, 0.0, 20.0, 40.0))])
    rc = main(["evaluate", "--gt", str(gt), "--results", str(results)])
    assert rc == 1
    assert f"error: {gt}:1: {message}" in capsys.readouterr().err


def _checkout_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_points_run_from_a_checkout(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, "-m", *args], env=_checkout_env(), cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)

    helped = run("gaptrack", "--help")
    assert helped.returncode == 0 and "inpaint-demo" in helped.stdout
    # the module form parses its arguments too: synth without --out is a usage error
    usage = run("gaptrack.cli", "synth")
    assert usage.returncode == 2 and "--out" in usage.stderr
    made = run("gaptrack", "synth", "--out", "scene", "--objects", "2", "--frames", "10")
    assert made.returncode == 0 and (tmp_path / "scene" / "det" / "det.txt").exists()


def test_readme_config_block_is_the_packaged_settings():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [block] = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    packaged = RunConfig().to_dict()

    def check(documented: dict, actual: dict, path: str) -> None:
        for key, value in documented.items():
            assert key in actual, f"README config key {path}{key} is not a config key"
            if isinstance(value, dict):
                check(value, actual[key], f"{path}{key}.")
            else:
                assert value == actual[key], f"README says {path}{key} = {value}, default is {actual[key]}"

    check(json.loads(block), packaged, "")


def test_package_and_cli_import_without_scipy():
    # scipy is a test-only oracle; the package and its entry points must not load it
    code = (
        "import sys, gaptrack, gaptrack.cli, gaptrack.config; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_checkout_env(), capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
