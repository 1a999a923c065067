"""Command-line front end.

Subcommands cover the full pipeline: ``synth`` writes a synthetic sequence,
``fit-codebook`` clusters velocities, ``train`` fits the motion model,
``track`` runs sequences and scores them against ground truth when present,
``evaluate`` compares a result file to a ground-truth file, and
``inpaint-demo`` dumps the sampled gap-bridging branches for one track.

Exit codes: 0 success, 1 runtime failure, 2 usage error (from argparse),
3 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from . import config as config_mod
from .codebook import load_codebook, save_codebook
from .errors import ConfigError, GaptrackError
from .metrics import IOU_THRESHOLD, aggregate, evaluate, format_report, write_report
from .mot_io import (
    discover_sequence,
    read_detections,
    read_ground_truth,
    read_labeled_boxes,
    write_results,
)
from .motion_model import load_weights, save_weights
from .scoring import advance, cold_start, new_tracklet, sample_candidates
from .synth import generate
from .tracker import detection_arrays, run_sequence
from .training import TrainingTrack, fit_codebook, next_step_accuracy, next_step_log_likelihood, train, window_tracks


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="JSON run config; defaults to $GAPTRACK_CONFIG or built-in settings",
    )
    parser.add_argument("--seed", type=int, metavar="N", help="override the global seed")


def _add_sources(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sequences",
        nargs="+",
        metavar="DIR",
        help="sequence directories with ground truth; omitted: a synthetic scene from the config",
    )


def _overrides(args, mapping: dict[str, str]) -> dict:
    out = {}
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    for attr, dotted in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            out[dotted] = value
    return out


def _split_contiguous(frames: np.ndarray, boxes: np.ndarray):
    """Yield maximal runs of consecutive frames."""
    start = 0
    for i in range(1, len(frames) + 1):
        if i == len(frames) or frames[i] != frames[i - 1] + 1:
            yield boxes[start:i]
            start = i


def _sequence_tracks(seq_dirs, window: int | None) -> list[TrainingTrack]:
    tracks = []
    for seq_dir in seq_dirs:
        meta, _, gt_path = discover_sequence(seq_dir)
        if gt_path is None:
            raise GaptrackError(f"{seq_dir}: training needs gt/gt.txt")
        by_id: dict[int, list] = {}
        for row in read_ground_truth(gt_path):
            by_id.setdefault(row.track_id, []).append(row)
        for rows in by_id.values():
            rows.sort(key=lambda r: r.frame)
            frames = np.array([r.frame for r in rows])
            boxes = np.stack([r.box.as_array() for r in rows])
            tracks += window_tracks(_split_contiguous(frames, boxes), meta.geometry, window)
    return tracks


def _training_tracks(args, cfg: config_mod.RunConfig) -> list[TrainingTrack]:
    if args.sequences:
        return _sequence_tracks(args.sequences, cfg.training.window)
    scene = generate(cfg.scene)
    return scene.training_tracks(window=cfg.training.window)


def cmd_synth(args, cfg: config_mod.RunConfig) -> int:
    spec = cfg.scene
    scene = generate(spec)
    out_dir = Path(args.out)
    scene.write(out_dir)
    print(
        f"wrote scene {spec.name!r}: {spec.num_objects} objects, {spec.num_frames} frames, "
        f"{len(scene.detections)} detections -> {out_dir}"
    )
    return 0


def cmd_fit_codebook(args, cfg: config_mod.RunConfig) -> int:
    tracks = _training_tracks(args, cfg)
    book = fit_codebook(tracks, cfg.codebook.size, cfg.codebook.seed, cfg.training.jitter_fraction)
    save_codebook(args.out, book)
    note = "" if book.k == cfg.codebook.size else f" (reduced from {cfg.codebook.size})"
    velocities = sum(len(t.boxes) - 1 for t in tracks)
    print(f"fit codebook on {velocities} velocities: k={book.k}{note} -> {args.out}")
    return 0


def cmd_train(args, cfg: config_mod.RunConfig) -> int:
    book = load_codebook(args.codebook)
    tracks = _training_tracks(args, cfg)
    model_config = cfg.model_config(book.k)
    schedule = cfg.training
    started = time.perf_counter()
    weights, trace = train(tracks, book, model_config, schedule)
    elapsed = time.perf_counter() - started
    save_weights(args.out, weights, book.checksum())
    accuracy = next_step_accuracy(weights, tracks, book)
    log_lik = next_step_log_likelihood(weights, tracks, book)
    print(
        f"trained {schedule.iterations} iterations on {len(tracks)} tracks in {elapsed:.1f}s: "
        f"loss {trace[0]:.3f} -> {trace[-1]:.3f}, next-step accuracy {accuracy:.3f}, "
        f"log-likelihood {log_lik:.3f} vs uniform {-np.log(book.k):.3f} -> {args.out}"
    )
    return 0


def cmd_track(args, cfg: config_mod.RunConfig) -> int:
    book = load_codebook(args.codebook)
    weights = load_weights(args.model, codebook=book)
    sequences = [discover_sequence(seq_dir) for seq_dir in args.sequences]
    # Each sequence writes <name>.txt, so a repeated name would overwrite a result.
    names = [meta.name for meta, _, _ in sequences]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise GaptrackError(f"duplicate sequence name: {', '.join(repeated)} (each writes <name>.txt)")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    reports = []
    for meta, det_path, gt_path in sequences:
        # The tracker drops detections under min_detection_confidence itself.
        result = run_sequence(read_detections(det_path), meta, weights, book, cfg.tracker)
        result_path = out_dir / f"{meta.name}.txt"
        write_results(result_path, result.frame_results)
        line = f"{meta.name}: {len(result.tracklets)} tracks -> {result_path}"
        if gt_path is not None:
            gt_rows = read_ground_truth(gt_path)
            report = evaluate(gt_rows, read_labeled_boxes(result_path))
            reports.append((meta.name, report))
            line += f" | MOTA {report.mota:.4f} IDF1 {report.idf1:.4f} IDs {report.id_switches}"
        print(line)
    if reports:
        overall = aggregate(r for _, r in reports)
        write_report(out_dir / "metrics.txt", overall, name="overall")
        print(f"overall: MOTA {overall.mota:.4f} IDF1 {overall.idf1:.4f}")
    return 0


def _resolve_gt(path) -> Path:
    """Accept either a gt file or a sequence directory holding gt/gt.txt."""
    path = Path(path)
    return path / "gt" / "gt.txt" if path.is_dir() else path


def cmd_evaluate(args, cfg: config_mod.RunConfig) -> int:
    gt_rows = read_ground_truth(_resolve_gt(args.gt))
    pred_rows = read_labeled_boxes(args.results)
    report = evaluate(gt_rows, pred_rows, iou_threshold=args.iou_threshold)
    print(format_report(report))
    if args.out:
        write_report(args.out, report)
    return 0


def cmd_inpaint_demo(args, cfg: config_mod.RunConfig) -> int:
    book = load_codebook(args.codebook)
    weights = load_weights(args.model, codebook=book)
    scene = generate(cfg.scene)
    if args.object not in scene.trajectories:
        raise GaptrackError(f"scene has no object {args.object}")
    boxes = scene.trajectories[args.object]
    prefix = args.prefix
    gap = args.gap
    t_trs = cfg.tracker.inpaint.lookahead_frames(scene.meta.frame_rate)
    if prefix + gap + t_trs > len(boxes):
        raise GaptrackError("prefix + gap + lookahead exceeds the scene length")

    tracklet = new_tracklet(1, 1, boxes[0], cold_start(weights))
    for i in range(1, prefix):
        advance([tracklet], boxes[i : i + 1], scene.geometry, weights)
    current = prefix + gap  # 1-based frame the tracklet tries to rejoin
    by_frame = detection_arrays(scene.detections, cfg.tracker.min_detection_confidence)
    lookahead = [by_frame.get(current + off, np.zeros((0, 4))) for off in range(t_trs + 1)]

    candidates = sample_candidates(
        [tracklet], lookahead, cfg.tracker.inpaint, weights, book, scene.geometry, current
    )
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["branch", "rejected", "reason", "iou_score", "log_likelihood", "x", "y", "w", "h"]
        )
        for cand in candidates:
            at_current = cand.path[gap - 1] if len(cand.path) >= gap else [float("nan")] * 4
            writer.writerow([
                cand.branch_index,
                int(cand.rejected),
                cand.rejection_reason,
                f"{cand.iou_score:.4f}",
                f"{cand.sample_log_likelihood:.4f}",
                *(f"{v:.2f}" for v in at_current),
            ])
    survivors = [c for c in candidates if not c.rejected]
    print(
        f"sampled {len(candidates)} branches for a {gap}-frame gap of object {args.object}; "
        f"{len(survivors)} survived -> {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaptrack",
        description="probabilistic multi-object tracking with gap inpainting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic sequence directory")
    _add_config(p)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--motion", choices=("constant-velocity", "sinusoidal", "random-walk"))
    p.add_argument("--objects", type=_positive_int, metavar="N")
    p.add_argument("--frames", type=_positive_int, metavar="N")
    p.add_argument("--name", metavar="NAME")
    p.set_defaults(func=cmd_synth, mapping={
        "motion": "scene.motion", "objects": "scene.num_objects",
        "frames": "scene.num_frames", "name": "scene.name",
    })

    p = sub.add_parser("fit-codebook", help="cluster track velocities into a codebook")
    _add_config(p)
    _add_sources(p)
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--size", type=_positive_int, metavar="K")
    p.set_defaults(func=cmd_fit_codebook, mapping={"size": "codebook.size"})

    p = sub.add_parser("train", help="train the motion model against a codebook")
    _add_config(p)
    _add_sources(p)
    p.add_argument("--codebook", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--iterations", type=_positive_int, metavar="N")
    p.add_argument("--batch-size", type=_positive_int, metavar="N")
    p.add_argument("--hidden", type=_positive_int, metavar="N")
    p.add_argument("--window", type=_positive_int, metavar="N")
    p.set_defaults(func=cmd_train, mapping={
        "iterations": "training.iterations", "batch_size": "training.batch_size",
        "hidden": "model.hidden_dim", "window": "training.window",
    })

    p = sub.add_parser("track", help="run the tracker over sequence directories")
    _add_config(p)
    p.add_argument("--model", required=True, metavar="PATH")
    p.add_argument("--codebook", required=True, metavar="PATH")
    p.add_argument("--sequences", nargs="+", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--samples", type=int, metavar="S", help="gap-bridging branch count; 0 disables")
    p.add_argument("--sampling", choices=("multinomial", "top1"))
    p.add_argument("--gate-factor", type=float, metavar="X")
    p.add_argument(
        "--suppress-inpainted", action="store_false", default=None, dest="emit_inpainted",
        help="emit only detection-backed boxes, skipping bridged gap boxes",
    )
    p.set_defaults(func=cmd_track, mapping={
        "samples": "tracker.inpaint.num_samples", "sampling": "tracker.inpaint.sampling",
        "gate_factor": "tracker.gate_factor", "emit_inpainted": "tracker.emit_inpainted",
    })

    p = sub.add_parser("evaluate", help="score a result file against ground truth")
    _add_config(p)
    p.add_argument("--gt", required=True, metavar="PATH")
    p.add_argument("--results", required=True, metavar="PATH")
    p.add_argument("--iou-threshold", type=float, default=IOU_THRESHOLD, metavar="X")
    p.add_argument("--out", metavar="PATH", help="also write the report to a file")
    p.set_defaults(func=cmd_evaluate, mapping={})

    p = sub.add_parser("inpaint-demo", help="dump sampled gap-bridging branches as CSV")
    _add_config(p)
    p.add_argument("--model", required=True, metavar="PATH")
    p.add_argument("--codebook", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--object", type=_positive_int, default=1, metavar="ID")
    p.add_argument("--prefix", type=_positive_int, default=10, metavar="N")
    p.add_argument("--gap", type=_positive_int, default=3, metavar="N")
    p.add_argument("--samples", type=int, metavar="S")
    p.set_defaults(func=cmd_inpaint_demo, mapping={"samples": "tracker.inpaint.num_samples"})

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_mod.load_config(args.config)
        cfg = config_mod.apply_overrides(cfg, _overrides(args, args.mapping))
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GaptrackError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
