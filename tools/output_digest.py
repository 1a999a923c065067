"""Digests of everything one benchmark round outputs, to show that a change keeps outputs identical.

    python3 tools/output_digest.py --workload track-desk --seed 1

Run from the root of a checkout, once on each of two trees; equal lines mean
equal outputs. The script sets up the workload and runs one round through
``bench/workloads.py``'s ``set_up`` and ``run_round``, which it imports as
they are, and prints one sha256 digest per output:

- ``rows``: the final tracker rows, as frame, id and ``repr`` of x, y, w, h;
- ``online``: the boxes committed online, frame by frame, as ``float.hex``;
- ``report``: ``repr`` of the round's ``MetricsReport``;
- ``loss``: the training loss trace, as ``float.hex``;
- ``branches``: every branch ``sample_candidates`` returns in the round (its
  tracklet, branch index, gap, rejection reason, and ``float.hex`` of its IOU
  score and log-likelihood), and each ``inpaint`` winner (the same fields
  plus its path, origin and scoring distribution).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave bench/ as it is
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from gaptrack import scoring, tracker  # noqa: E402


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _hex(*values) -> str:
    return " ".join(float.hex(float(v)) for v in values)


def _branch(cand) -> str:
    return (f"{cand.tracklet_id} {cand.branch_index} {cand.gap} {cand.rejection_reason!r} "
            f"{_hex(cand.iou_score, cand.sample_log_likelihood)}")


def _winner(cand) -> str:
    if cand is None:
        return "none"
    arrays = (cand.path, cand.origin, cand.dist_at_scoring)
    return f"{_branch(cand)} " + " ".join(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)


def digests(workload: str, seed: int) -> dict[str, str]:
    """sha256 of each output of one round of ``workload`` at ``seed``."""
    sequences, branches = [], []
    run_sequence, sample_candidates, inpaint = tracker.run_sequence, scoring.sample_candidates, tracker.inpaint

    def kept(*args, **kwargs):
        sequences.append(run_sequence(*args, **kwargs))
        return sequences[-1]

    def sampled(*args, **kwargs):
        table = sample_candidates(*args, **kwargs)
        branches.append(f"sampled {len(table)}")
        branches.extend(_branch(cand) for cand in table)
        return table

    def won(*args, **kwargs):
        winners = inpaint(*args, **kwargs)
        branches.append(f"won {len(winners)}")
        branches.extend(_winner(cand) for cand in winners)
        return winners

    inputs = workloads.set_up(workload, seed)
    tracker.run_sequence, scoring.sample_candidates, tracker.inpaint = kept, sampled, won
    try:
        out = workloads.run_round(workload, inputs, None)
    finally:
        tracker.run_sequence, scoring.sample_candidates, tracker.inpaint = run_sequence, sample_candidates, inpaint
    [result] = sequences
    return {
        "rows": _digest(f"{frame} {tid} {box.x!r} {box.y!r} {box.w!r} {box.h!r}"
                        for frame, tid, box in out.pred_rows),
        "online": _digest(f"{fr.frame} {tid} {_hex(box.x, box.y, box.w, box.h)} {source}"
                          for fr in result.online_results for tid, box, source in fr.committed),
        "report": _digest([repr(out.report)]),
        "loss": _digest(_hex(v) for v in out.loss_trace),
        "branches": _digest(branches),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "track-desk", "track-crowded"))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for name, value in digests(args.workload, args.seed).items():
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
