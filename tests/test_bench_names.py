"""The benchmark wraps and calls gaptrack names; each one must still exist.

A traced run whose wrapped name is gone still exits 0, but its result lacks
that per-layer metric, so a rename would only show up as a malformed result.
A name the workloads call directly would instead break every benchmark run.
So would a changed return shape that a layer hook or the workloads read, so
the hooks also run here on real return values.
"""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gaptrack import TrainSchedule, metrics, motion_model, tracker, training
from gaptrack.config import RunConfig
from gaptrack.synth import drop_detections

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS = BENCH / "layers.py"
WORKLOADS = BENCH / "workloads.py"

# Names the benchmark's meter patches for its own timing, besides the wraps.
METERED = ("gaptrack.tracker:process_frame", "gaptrack.training:loss_and_gradients")

# gaptrack modules the workloads import by name.
MODULES = ("codebook", "geometry", "metrics", "motion_model", "synth", "tracker", "training")

# RunConfig accessors the workloads call on their config.
RUN_CONFIG_ACCESSORS = ("scene_spec", "tracker_config", "train_schedule", "model_config")


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _wrapped_targets():
    return [target for target, *_ in _layers().WRAPS]


def _workload_targets():
    """Every ``<module>.<attr>`` the workloads reference, as ``gaptrack.<module>:<attr>``."""
    tree = ast.parse(WORKLOADS.read_text())
    return sorted({
        f"gaptrack.{node.value.id}:{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    })


@pytest.mark.parametrize("target", list(dict.fromkeys([*_wrapped_targets(), *METERED])))
def test_bench_target_resolves(target):
    module_name, attr = target.split(":")
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{target} no longer resolves"


@pytest.mark.parametrize("target", _workload_targets())
def test_bench_workload_name_resolves(target):
    module_name, attr = target.split(":")
    module = importlib.import_module(module_name)
    assert hasattr(module, attr), f"{target} no longer resolves"


def test_workloads_reference_the_library():
    # guards the scan itself: an empty parametrization would pass vacuously
    assert "gaptrack.tracker:run_sequence" in _workload_targets()


@pytest.mark.parametrize("accessor", RUN_CONFIG_ACCESSORS)
def test_bench_run_config_accessor_resolves(accessor):
    assert callable(getattr(RunConfig, accessor, None)), f"RunConfig.{accessor} no longer resolves"


class HookTracer:
    """Stands in for the bench's tracer: each wrapped call hands its real
    arguments and result to the layer hook, which counts into ``counters``."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.counters = Counter()
        self.calls = Counter()

    def count(self, key, n=1):
        self.counters[key] += n

    def wrap(self, target, name, hook=None):
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            self.calls[target] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        self.monkeypatch.setattr(module, attr, wrapper)


def test_layer_hooks_read_real_return_values(tiny_model, clean_scene, monkeypatch):
    weights, book = tiny_model
    layers = _layers()
    tracer = HookTracer(monkeypatch)
    layers.install(tracer)

    scene = drop_detections(clean_scene, frames=range(30, 33), object_ids=[1, 2])
    result = tracker.run_sequence(scene.detections, scene.meta, weights, book)
    rows = [(fr.frame, tid, box) for fr in result.frame_results for tid, box, _ in fr.committed]
    metrics.evaluate(scene.ground_truth_rows(), rows)
    training.train(clean_scene.training_tracks(window=20), book, weights.config,
                   TrainSchedule(iterations=2, batch_size=4, seed=0))

    hooked = [target for target, _, hook, _ in layers.WRAPS if hook is not None]
    assert all(tracer.calls[target] > 0 for target in hooked), tracer.calls
    assert tracer.counters["training.iterations"] == 2
    assert tracer.counters["births"] >= clean_scene.spec.num_objects
    assert "terminations" in tracer.counters
    assert tracer.counters["branches_sampled"] > 0
    assert "inpaint_no_survivor" in tracer.counters
    assert tracer.counters["track_solve_cells"] > 0
    assert "id_switches" in tracer.counters


def test_every_training_wrap_is_called_by_train(tiny_model, clean_scene, monkeypatch):
    # a wrapped name that still resolves but is never called reads 0 in the bench
    weights, book = tiny_model
    layers = _layers()
    tracer = HookTracer(monkeypatch)
    layers.install(tracer)
    training.train(clean_scene.training_tracks(window=20), book, weights.config,
                   TrainSchedule(iterations=2, batch_size=4, teacher_forcing_prob=1.0, seed=0))
    targets = [target for target, *_ in layers.WRAPS if target.startswith("gaptrack.training:")]
    assert "gaptrack.training:_teacher_force_inputs" in targets
    assert all(tracer.calls[target] > 0 for target in targets), tracer.calls


def test_every_tracker_wrap_is_called_by_tracking(tiny_model, clean_scene, monkeypatch):
    # a branch loop or advance routed around cell_forward or step would read 0 in the bench
    weights, book = tiny_model
    layers = _layers()
    tracer = HookTracer(monkeypatch)
    layers.install(tracer)
    scene = drop_detections(clean_scene, frames=range(30, 33), object_ids=[1, 2])
    tracker.run_sequence(scene.detections, scene.meta, weights, book)
    targets = [target for target, *_ in layers.WRAPS
               if target.startswith(("gaptrack.scoring:", "gaptrack.tracker:"))]
    assert {"gaptrack.scoring:cell_forward", "gaptrack.scoring:step"} <= set(targets)
    assert all(tracer.calls[target] > 0 for target in targets), tracer.calls


def test_cell_forward_returns_what_the_workloads_read(tiny_model):
    weights, book = tiny_model
    h = np.zeros((1, weights.config.hidden_dim))
    out = motion_model.cell_forward(weights, np.zeros((1, 4)), h, h)
    assert {"h", "c", "probs", "log_probs"} <= set(out)
    assert out["h"].shape == out["c"].shape == h.shape
    assert out["log_probs"].shape == out["probs"].shape == (1, 4, book.k)
