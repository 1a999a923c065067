"""Benchmark of gaptrack's training, tracking and evaluation, from one command.

    python3 bench/run.py --workload track-desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; gaptrack is imported from its ``src``
directory. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
traced run also writes its spans to ``bench/out/``. Check failures and
absent per-layer metrics are reported on standard error. See README.md.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the hot paths are small matrix products that a second
# thread only slows down, and a fixed count keeps runs comparable. These
# must be set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import gaptrack from this checkout's sources, never from elsewhere."""
    package = SRC / "gaptrack"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no gaptrack sources at {package}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import gaptrack

    if Path(gaptrack.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported gaptrack from {gaptrack.__file__}, not {package}")


def _declared(trace: int):
    """Workload names and the metric names BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {w["name"] for w in spec["workloads"]}, {m["name"] for m in metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    workloads_declared, metrics_declared = _declared(args.trace)
    if args.workload not in workloads_declared:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    _import_program()
    import workloads

    import_span = (_STARTED, time.perf_counter())
    trace_path = BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.npz"
    result, errors, absent = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_span, trace_path
    )
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    if absent:
        print(f"absent per-layer metrics: {', '.join(absent)}", file=sys.stderr)
    reported = set(result["metrics"]) | set(absent)
    if reported != metrics_declared:
        raise SystemExit(
            f"error: reported metrics differ from BENCHMARK.json: {sorted(reported ^ metrics_declared)}"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
