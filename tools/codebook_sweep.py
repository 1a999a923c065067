"""Sweep the velocity codebook size K, or the branch count: what a cheaper setting costs in quality.

    PYTHONPATH=src python3 tools/codebook_sweep.py --out sweep.json --workers 2
    PYTHONPATH=src python3 tools/codebook_sweep.py --axis samples --out samples.json --workers 2
    PYTHONPATH=src python3 tools/codebook_sweep.py --table sweep.json

The K axis (the default): for every K in ``KS`` and two training recipes,
the script fits a codebook and trains a model, then reports:

- training time (wall seconds and ms per iteration, one BLAS thread);
- held-out log-density per velocity component: the model's log-probability
  of the target cell minus the log of that cell's width, so a coarser
  codebook is not rewarded for wider bins. A cell spans the midpoints to its
  neighbouring centroids; an edge cell, which is open on one side, is given
  twice the distance from its centroid to its one midpoint;
- MOTA, IDF1, ID switches and FN of ``run_sequence`` over ``SEEDS``
  inpainting seeds, with and without the support mask, on six scenes;
- A4's bridge-IoU margin (multinomial minus top-1, the acceptance test's
  set-up with its codebook size replaced by K), once per K.

Recipes. "packaged" is ``RunConfig()`` as acceptance test A3 runs it (5,000
iterations, trained on the scene it tracks). "bench" is the benchmark's
``track-*`` set-up (``RunConfig(seed=1)``, 50 iterations on the desk scene of
seed 1). Both fit the codebook with ``training.fit_codebook``.

Scenes. desk (the packaged scene), crowded (the benchmark's 20-object random
walk at 20 % dropout), short (the benchmark's 60-frame ``train`` scene),
hidden-15 and hidden-30 (desk with objects 1-3 undetected from frame 100 for
15 and 30 frames, ``termination_gap`` 40 so patience outlasts the gap), and
fast (the crowded layout with ``synth._SPEED_FRACTION`` scaled by
``FAST_SPEED``). A desk-fitted codebook puts most fast moves outside its
support, so the fast scene is tracked by models of the same recipes fitted on
a fast random walk of seed 1 (10 objects, 300 frames).

The support mask is the measurement device of ROADMAP item 1, applied here
only: it wraps ``tracker.score_detection`` and gives a pair log-likelihood
-inf when any velocity component lies more than one span (the distance
between a component's extreme centroids) beyond the extreme centroids.

Decision rule, fixed before the sweep was run. The reference is K 256.
A K keeps quality when, for the packaged recipe with the support mask, on
each of the six scenes, its mean MOTA and mean IDF1 over the seeds are both
at least the reference's mean minus max(0.01, 2 standard errors of the
reference's mean), and A4's margin at that K is positive. The default is
the smallest K that keeps quality. Unmasked runs and the bench recipe are
reported but do not decide: without the mask, identity is set by the edge
cells' clamping (ROADMAP item 1), not by K, and 50 iterations leave the
model close to its initialisation.

The branch-count axis (``--axis samples``): the packaged recipe at K
``SAMPLES_K``, with ``InpaintParams.num_samples`` set to each count in
``SAMPLES``, tracks the same six scenes over the same seeds, with and
without the mask. Decision rule, fixed before the sweep was run: the
reference is 30 branches, today's default. A count keeps quality when, with
the mask, on each of the six scenes, its mean MOTA and mean IDF1 over the
seeds are both at least the reference's mean minus max(0.01, 2 standard
errors of the reference's mean), the floor rule of the K axis. The default
is the smallest count that keeps quality. A4's margin is not part of this
rule: A4 fixes its own branch count.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from gaptrack import geometry, synth, tracker  # noqa: E402
from gaptrack.codebook import quantize  # noqa: E402
from gaptrack.config import RunConfig  # noqa: E402
from gaptrack.metrics import evaluate  # noqa: E402
from gaptrack.motion_model import ModelConfig  # noqa: E402
from gaptrack.scoring import InpaintParams, advance, cold_start, inpaint, new_tracklet  # noqa: E402
from gaptrack.training import TrainSchedule, fit_codebook, next_step_log_likelihood, train  # noqa: E402

KS = (16, 32, 64, 128, 256)
REFERENCE_K = 256
SAMPLES = (5, 10, 15, 20, 30)
REFERENCE_SAMPLES = 30
SAMPLES_K = 128
SEEDS = range(5)
RECIPES = {"packaged": (0, 5000), "bench": (1, 50)}  # (RunConfig seed, iterations)
FAST_SPEED = 5.0
HIDDEN_OBJECTS = (1, 2, 3)
HIDDEN_FROM = 100
HIDDEN_PATIENCE = 40
SCENES = ("desk", "crowded", "short", "hidden-15", "hidden-30", "fast")


@contextlib.contextmanager
def _speed(factor: float):
    saved = synth._SPEED_FRACTION
    synth._SPEED_FRACTION = saved * factor
    try:
        yield
    finally:
        synth._SPEED_FRACTION = saved


@contextlib.contextmanager
def _support_mask(book):
    lo, hi = book.centroids[:, 0], book.centroids[:, -1]
    lo, hi = lo - (hi - lo), hi + (hi - lo)
    plain = tracker.score_detection

    def masked(origins, dists, detections, frame, codebook):
        ll = plain(origins, dists, detections, frame, codebook)
        deltas = geometry.velocity(origins[:, None, :], detections[None, :, :], frame)
        ll[((deltas < lo) | (deltas > hi)).any(axis=-1)] = -np.inf
        return ll

    tracker.score_detection = masked
    try:
        yield
    finally:
        tracker.score_detection = plain


def _desk() -> synth.SceneSpec:
    return RunConfig().scene


def _crowded() -> synth.SceneSpec:
    return replace(_desk(), num_objects=20, num_frames=150, motion="random-walk",
                   detection_dropout=0.2, name="crowded")


def _training_scene(family: str, cfg_seed: int) -> synth.Scene:
    if family == "fast":
        with _speed(FAST_SPEED):
            return synth.generate(replace(_desk(), motion="random-walk", seed=1))
    return synth.generate(replace(_desk(), seed=cfg_seed))


def _tracked_scenes(family: str):
    """(name, scene, termination_gap override or None) for the family's scenes."""
    if family == "fast":
        with _speed(FAST_SPEED):
            fast = synth.generate(_crowded())
        yield "fast", fast, None
        return
    desk = synth.generate(_desk())
    yield "desk", desk, None
    yield "crowded", synth.generate(_crowded()), None
    yield "short", synth.generate(replace(_desk(), num_frames=60, seed=1, name="short")), None
    for gap in (15, 30):
        frames = range(HIDDEN_FROM, HIDDEN_FROM + gap)
        yield f"hidden-{gap}", synth.drop_detections(desk, frames, HIDDEN_OBJECTS), HIDDEN_PATIENCE


def _heldout_scene(family: str) -> synth.Scene:
    spec = replace(_desk(), seed=2)
    if family == "fast":
        with _speed(FAST_SPEED):
            return synth.generate(replace(spec, motion="random-walk"))
    return synth.generate(spec)


def _cell_widths(book) -> np.ndarray:
    """(4, K) widths of the cells between centroid midpoints; edge cells mirror their inner half."""
    mids = 0.5 * (book.centroids[:, :-1] + book.centroids[:, 1:])
    widths = np.empty_like(book.centroids)
    widths[:, 1:-1] = np.diff(mids, axis=1)
    widths[:, 0] = 2.0 * (mids[:, 0] - book.centroids[:, 0])
    widths[:, -1] = 2.0 * (book.centroids[:, -1] - mids[:, -1])
    return widths


def heldout_density(weights, book, scene: synth.Scene) -> dict:
    """Mean per-component log-probability and log-density of clean held-out next steps.

    The log-probability is ``training.next_step_log_likelihood``'s; the
    log-density subtracts the mean log width of the clean cells from it.
    """
    tracks = scene.training_tracks(window=None)
    vel = np.concatenate([geometry.velocities_from_boxes(t.boxes, t.frame) for t in tracks])
    log_width = np.log(_cell_widths(book))[np.arange(4), quantize(vel, book)]
    outside = (vel < book.centroids[:, 0]) | (vel > book.centroids[:, -1])
    log_p = next_step_log_likelihood(weights, tracks, book)
    return {"log_prob": log_p, "log_density": log_p - float(log_width.mean()),
            "outside_support": float(outside.mean())}


def _track(weights, book, cfg: RunConfig, scene, patience, seed: int, masked: bool, samples: int) -> dict:
    tc = replace(cfg.tracker, inpaint=replace(cfg.tracker.inpaint, seed=seed, num_samples=samples))
    if patience is not None:
        tc = replace(tc, termination_gap=patience)
    mask = _support_mask(book) if masked else contextlib.nullcontext()
    started = time.perf_counter()
    with mask:
        result = tracker.run_sequence(scene.detections, scene.meta, weights, book, tc)
    elapsed = time.perf_counter() - started
    rows = [(fr.frame, tid, box) for fr in result.frame_results for tid, box, _ in fr.committed]
    report = evaluate(scene.ground_truth_rows(), rows)
    return {"mota": report.mota, "idf1": report.idf1, "id_switches": report.id_switches,
            "fn": report.false_negatives, "track_s": elapsed}


def model_job(job: tuple[int, str, str, tuple]) -> list[dict]:
    """Train one model, then track its family's scenes at each branch count in ``job``."""
    k, family, recipe, branch_counts = job
    cfg_seed, iterations = RECIPES[recipe]
    cfg = RunConfig(seed=cfg_seed)
    cfg = replace(cfg, codebook=replace(cfg.codebook, size=k),
                  training=replace(cfg.training, iterations=iterations))
    tracks = _training_scene(family, cfg_seed).training_tracks(window=cfg.training.window)
    book = fit_codebook(tracks, cfg.codebook.size, cfg.codebook.seed, cfg.training.jitter_fraction)
    started = time.perf_counter()
    weights, trace = train(tracks, book, cfg.model_config(book.k), cfg.training)
    train_s = time.perf_counter() - started
    base = {"k": k, "k_fitted": book.k, "family": family, "recipe": recipe}
    rows = [{**base, "kind": "model", "train_s": train_s, "train_iter_ms": 1e3 * train_s / iterations,
             "loss_tail": float(np.mean(trace[-10:])),
             **heldout_density(weights, book, _heldout_scene(family))}]
    for name, scene, patience in _tracked_scenes(family):
        for samples in branch_counts:
            for masked in (False, True):
                for seed in SEEDS:
                    rows.append({**base, "kind": "track", "scene": name, "masked": masked, "seed": seed,
                                 "samples": samples,
                                 **_track(weights, book, cfg, scene, patience, seed, masked, samples)})
    return rows


def a4_job(k: int) -> list[dict]:
    """Acceptance test A4's bridge-IoU comparison with a K-cell codebook."""
    t_trs, gap = 2, 4
    spec = synth.SceneSpec(num_objects=10, num_frames=300, motion=synth.MOTION_SINUSOIDAL, seed=500,
                           detection_dropout=0.0, detection_jitter=0.0, false_positive_rate=0.0)
    tracks = synth.generate(spec).training_tracks(window=25)
    book = fit_codebook(tracks, k, seed=0, jitter_fraction=0.02)
    started = time.perf_counter()
    weights, _ = train(tracks, book, ModelConfig(num_clusters=book.k, hidden_dim=48),
                       TrainSchedule(iterations=2000, batch_size=24, seed=0))
    train_s = time.perf_counter() - started
    start = cold_start(weights)

    def bridge_iou(scene, noisy, obj, t_last, params):
        prefix = noisy[obj]
        tracklet = new_tracklet(obj, 1, prefix[0], start)
        for t in range(1, t_last + 1):
            advance([tracklet], prefix[t:t + 1], scene.geometry, weights)
        lookahead = [np.stack([noisy[o][f] for o in noisy if f < len(noisy[o])])
                     for f in range(t_last + gap, t_last + gap + t_trs + 1)]
        [winner] = inpaint([tracklet], lookahead, params, weights, book,
                           scene.geometry, t_last + 1 + gap)
        if winner is None:
            return 0.0
        truth = scene.trajectories[obj]
        return float(np.mean([geometry.box_iou(winner.path[j], truth[t_last + 1 + j])
                              for j in range(gap - 1)]))

    multi, top1 = [], []
    for s in range(10):
        scene = synth.generate(replace(spec, seed=600 + s))
        noise_rng = np.random.default_rng(900 + s)
        noisy = {obj: boxes + noise_rng.normal(0.0, 3.0, size=boxes.shape)
                 for obj, boxes in scene.trajectories.items()}
        for sampling, out in (("multinomial", multi), ("top1", top1)):
            params = InpaintParams(num_samples=30, t_trs=t_trs, sampling=sampling, seed=42 + s)
            out += [bridge_iou(scene, noisy, obj, t_last, params)
                    for obj in scene.trajectories for t_last in (60, 150, 240)]
    return [{"k": k, "k_fitted": book.k, "kind": "a4", "train_s": train_s,
             "multinomial": float(np.mean(multi)), "top1": float(np.mean(top1)),
             "margin": float(np.mean(multi) - np.mean(top1))}]


def _run(job):
    kind, arg = job
    return model_job(arg) if kind == "model" else a4_job(arg)


def sweep(workers: int, axis: str) -> list[dict]:
    if axis == "samples":
        jobs = [("model", (SAMPLES_K, family, "packaged", SAMPLES)) for family in ("desk", "fast")]
    else:
        default = (InpaintParams.num_samples,)
        jobs = [("model", (k, family, recipe, default)) for recipe in ("packaged", "bench")
                for family in ("desk", "fast") for k in sorted(KS, reverse=True)]
        jobs[4:4] = [("a4", k) for k in sorted(KS, reverse=True)]  # long jobs first
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        return [row for rows in pool.imap_unordered(_run, jobs) for row in rows]


def _mean_se(values) -> tuple[float, float]:
    values = list(values)
    se = statistics.stdev(values) / len(values) ** 0.5 if len(values) > 1 else 0.0
    return statistics.fmean(values), se


def summarize(rows: list[dict]) -> str:
    """Markdown tables and the decision the rule above takes on ``rows``, on the axis they sweep."""
    tracks = [r for r in rows if r["kind"] == "track"]
    if len({r.get("samples") for r in tracks}) > 1:
        axis, values, reference, label = "samples", SAMPLES, REFERENCE_SAMPLES, "{} branches"
    else:
        axis, values, reference, label = "k", KS, REFERENCE_K, "K {}"
    lines = ["| recipe | K | train s (ms/iter) | held-out log-prob | log-density | outside support |",
             "| --- | --- | --- | --- | --- | --- |"]
    models = sorted((r for r in rows if r["kind"] == "model"), key=lambda r: (r["recipe"], r["family"], r["k"]))
    for r in models:
        lines.append(f"| {r['recipe']}, {r['family']} | {r['k']} | {r['train_s']:.1f} ({r['train_iter_ms']:.1f}) "
                     f"| {r['log_prob']:.3f} | {r['log_density']:.3f} | {r['outside_support']:.3f} |")
    a4 = {r["k"]: r for r in rows if r["kind"] == "a4"}
    if a4:
        lines += ["", "| K | A4 multinomial | A4 top-1 | margin |", "| --- | --- | --- | --- |"]
        lines += [f"| {k} | {a4[k]['multinomial']:.4f} | {a4[k]['top1']:.4f} | {a4[k]['margin']:+.4f} |"
                  for k in sorted(a4)]
    cells: dict[tuple, dict] = {}
    for r in tracks:
        cell = cells.setdefault((r["recipe"], r["masked"], r["scene"], r[axis]), {})
        for key in ("mota", "idf1", "id_switches", "track_s"):
            cell.setdefault(key, []).append(r[key])
    for recipe in sorted({r["recipe"] for r in tracks}, reverse=True):
        for masked in (True, False):
            lines += ["", f"{recipe} recipe, {'mask' if masked else 'no mask'}: "
                      f"MOTA / IDF1 / ID switches / track s, means over {len(SEEDS)} seeds", "",
                      "| scene | " + " | ".join(label.format(v) for v in values) + " |",
                      "| --- |" + " --- |" * len(values)]
            for scene in SCENES:
                row = []
                for v in values:
                    c = cells.get((recipe, masked, scene, v))
                    row.append("—" if c is None else
                               f"{statistics.fmean(c['mota']):.3f} / {statistics.fmean(c['idf1']):.3f} / "
                               f"{statistics.fmean(c['id_switches']):.1f} / {statistics.fmean(c['track_s']):.2f}")
                lines.append(f"| {scene} | " + " | ".join(row) + " |")
    keeps = {}
    for v in values:
        ok = axis == "samples" or (v in a4 and a4[v]["margin"] > 0.0)
        for scene in SCENES:
            for metric in ("mota", "idf1"):
                ref_mean, ref_se = _mean_se(cells[("packaged", True, scene, reference)][metric])
                mean, _ = _mean_se(cells[("packaged", True, scene, v)][metric])
                ok = ok and mean >= ref_mean - max(0.01, 2.0 * ref_se)
        keeps[v] = ok
    chosen = min(v for v in values if keeps[v])
    lines += ["", "keeps quality: " + ", ".join(f"{label.format(v)} {'yes' if ok else 'no'}"
                                                 for v, ok in keeps.items()),
              f"chosen: {label.format(chosen)}"]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write every row as JSON here, then print the tables")
    parser.add_argument("--table", help="print the tables of an earlier --out file")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--axis", choices=("k", "samples"), default="k",
                        help="sweep the codebook size or, at K %d, the branch count" % SAMPLES_K)
    args = parser.parse_args(argv)
    if args.table:
        with open(args.table) as handle:
            rows = json.load(handle)
    elif args.out:
        rows = sweep(args.workers, args.axis)
        with open(args.out, "w") as handle:
            json.dump(rows, handle, indent=1)
    else:
        parser.error("give --out or --table")
    print(summarize(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
