"""The benchmark wraps and calls gaptrack names; each one must still exist.

A traced run whose wrapped name is gone still exits 0, but its result lacks
that per-layer metric, so a rename would only show up as a malformed result.
A name the workloads call directly would instead break every benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from gaptrack.config import RunConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS = BENCH / "layers.py"
WORKLOADS = BENCH / "workloads.py"

# Names the benchmark's meter patches for its own timing, besides the wraps.
METERED = ("gaptrack.tracker:process_frame", "gaptrack.training:loss_and_gradients")

# gaptrack modules the workloads import by name.
MODULES = ("codebook", "geometry", "metrics", "motion_model", "synth", "tracker", "training")

# RunConfig accessors the workloads call on their config.
RUN_CONFIG_ACCESSORS = ("scene_spec", "tracker_config", "train_schedule", "model_config")


def _wrapped_targets():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [target for target, *_ in layers.WRAPS]


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
