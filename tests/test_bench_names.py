"""The benchmark's traced run wraps gaptrack names; each one must still exist.

A traced run whose wrapped name is gone still exits 0, but its result lacks
that per-layer metric, so a rename would only show up as a malformed result.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

# Names the benchmark's meter patches for its own timing, besides the wraps.
METERED = ("gaptrack.tracker:process_frame", "gaptrack.training:loss_and_gradients")


def _wrapped_targets():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [target for target, *_ in layers.WRAPS]


@pytest.mark.parametrize("target", list(dict.fromkeys([*_wrapped_targets(), *METERED])))
def test_bench_target_resolves(target):
    module_name, attr = target.split(":")
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{target} no longer resolves"
