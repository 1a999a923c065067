"""Acceptance gate: nine checks covering the package's load-bearing claims.

Each test prints one PASS/FAIL line with the measured numbers (visible under
``pytest -rA`` or ``-s``) and then asserts. The checks are self-contained;
nothing here depends on fixtures or helpers from the unit modules.

A1 assignment optimality against exhaustive enumeration
A2 training gradients against central finite differences
A3 gap inpainting strictly improves MOTA and FN on the default scene
A4 multinomial sampling with rejection beats greedy top-1 on curved motion
A5 uniform model scores exactly 4*log(1/K)
A6 hand-evaluated metric scenarios reproduce exactly
A7 codebook SSE equals the exhaustive contiguous-partition optimum
A8 the full pipeline is byte-deterministic
A9 trained model predicts held-out next-step clusters at 99%+
"""

import itertools
import json
import math
import time

import numpy as np

from gaptrack import (
    BoundingBox,
    ModelConfig,
    RunConfig,
    SceneSpec,
    TrainSchedule,
    apply_overrides,
    evaluate,
    fit,
    fit_codebook,
    generate,
    init_weights,
    log_likelihood,
    new_tracklet,
    score_detection,
    solve,
    train,
    velocities_from_boxes,
)
from gaptrack.cli import main
from gaptrack.scoring import SOURCE_DETECTED, InpaintParams, advance, inpaint
from gaptrack.synth import MOTION_SINUSOIDAL
from gaptrack.geometry import box_iou
from gaptrack.tracker import run_sequence
from gaptrack.training import loss_and_gradients, next_step_accuracy


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# A1: assignment vs exhaustive enumeration


def _enumerated_minimum(costs: np.ndarray) -> float:
    n, m = costs.shape
    if n > m:
        costs = costs.T
        n, m = m, n
    perms = np.array(list(itertools.permutations(range(m), n)))
    totals = costs[np.arange(n)[None, :], perms].sum(axis=1)
    return float(totals.min())


def test_a1_assignment_matches_enumeration():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for trial in range(1000):
        n, m = rng.integers(1, 8, size=2)
        costs = rng.uniform(0.0, 10.0, size=(n, m))
        pairs = solve(costs)
        best = _enumerated_minimum(costs)
        # identical entries summed in identical order, so == is exact
        if n <= m:
            got = float(np.sum([costs[r, c] for r, c in sorted(pairs)]))
        else:
            got = float(np.sum([costs[r, c] for c, r in sorted((c, r) for r, c in pairs)]))
        assert got == best, f"trial {trial}: {got!r} != {best!r}"
    elapsed = time.perf_counter() - started
    _report("A1", elapsed < 5.0, f"1000 matrices exact, {elapsed:.2f}s < 5s")


# ---------------------------------------------------------------------------
# A2: analytic gradients vs central finite differences


def _gradient_error(weights, groups, eps=1e-6) -> float:
    """Worst per-tensor norm ratio between analytic and numeric gradients."""
    _, grads = loss_and_gradients(weights, groups)
    worst = 0.0
    for name in weights.PARAM_NAMES:
        tensor = getattr(weights, name)
        analytic = grads[name]
        numeric = np.zeros_like(analytic)
        it = np.nditer(tensor, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + eps
            up, _ = loss_and_gradients(weights, groups)
            tensor[idx] = orig - eps
            down, _ = loss_and_gradients(weights, groups)
            tensor[idx] = orig
            numeric[idx] = (up - down) / (2.0 * eps)
            it.iternext()
        denom = max(np.linalg.norm(numeric), np.linalg.norm(analytic), 1e-12)
        worst = max(worst, np.linalg.norm(numeric - analytic) / denom)
    return worst


def test_a2_gradients_match_finite_differences():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        hidden = int(rng.integers(3, 9))
        k = int(rng.integers(2, 6))
        steps = int(rng.integers(2, 6))
        weights = init_weights(ModelConfig(num_clusters=k, hidden_dim=hidden), rng)
        groups = [(
            rng.normal(0.0, 0.02, size=(2, steps, 4)),
            rng.integers(0, k, size=(2, steps, 4)),
            rng.normal(0.0, 0.02, size=(2, steps, 4)),
        )]
        worst = max(worst, _gradient_error(weights, groups))
    elapsed = time.perf_counter() - started
    _report(
        "A2",
        worst < 1e-4 and elapsed < 30.0,
        f"20 models, worst relative error {worst:.2e} < 1e-4, {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# A3: inpainting strictly improves the default scene


def _result_rows(result):
    return [
        (fr.frame, tid, box)
        for fr in result.frame_results
        for tid, box, _source in fr.committed
    ]


def test_a3_inpainting_improves_mota_and_fn():
    started = time.perf_counter()
    cfg = RunConfig()
    scene = generate(cfg.scene)
    tracks = scene.training_tracks(window=cfg.training.window)

    book = fit_codebook(tracks, cfg.codebook.size, cfg.codebook.seed, cfg.training.jitter_fraction)
    weights, _ = train(tracks, book, cfg.model_config(book.k), cfg.training)

    gt_rows = scene.ground_truth_rows()
    with_inpaint = run_sequence(scene.detections, scene.meta, weights, book, cfg.tracker)
    no_inpaint_cfg = apply_overrides(cfg, {"tracker.inpaint.num_samples": 0})
    without = run_sequence(scene.detections, scene.meta, weights, book, no_inpaint_cfg.tracker)
    on = evaluate(gt_rows, _result_rows(with_inpaint))
    off = evaluate(gt_rows, _result_rows(without))
    elapsed = time.perf_counter() - started
    _report(
        "A3",
        on.mota > off.mota and on.false_negatives < off.false_negatives and elapsed < 600.0,
        f"MOTA {off.mota:.4f} -> {on.mota:.4f}, FN {off.false_negatives} -> "
        f"{on.false_negatives}, {elapsed:.0f}s < 600s",
    )


# ---------------------------------------------------------------------------
# A4: multinomial sampling with rejection vs greedy top-1


def test_a4_multinomial_sampling_beats_top1_on_curves():
    t_trs = 2
    gap = 4  # three missing frames, then the rejoin frame

    train_spec = SceneSpec(
        num_objects=10, num_frames=300, motion=MOTION_SINUSOIDAL, seed=500,
        detection_dropout=0.0, detection_jitter=0.0, false_positive_rate=0.0,
    )
    train_scene = generate(train_spec)
    tracks = train_scene.training_tracks(window=25)
    book = fit_codebook(tracks, 128, seed=0, jitter_fraction=0.02)
    weights, _ = train(
        tracks, book, ModelConfig(num_clusters=book.k, hidden_dim=48),
        TrainSchedule(iterations=2000, batch_size=24, seed=0),
    )

    multi_params = InpaintParams(num_samples=30, t_trs=t_trs, sampling="multinomial")
    top1_params = InpaintParams(num_samples=30, t_trs=t_trs, sampling="top1")

    def bridge_iou(scene, noisy, obj, t_last, params, rng):
        truth = scene.trajectories[obj]
        prefix = noisy[obj]
        tracklet = new_tracklet(1, 1, BoundingBox(*prefix[0]), weights)
        for t in range(1, t_last + 1):
            advance(tracklet, BoundingBox(*prefix[t]), t + 1, scene.geometry,
                    SOURCE_DETECTED, weights)
        lookahead = [
            [BoundingBox(*noisy[o][f]) for o in noisy if f < len(noisy[o])]
            for f in range(t_last + gap, t_last + gap + t_trs + 1)
        ]
        winner = inpaint(tracklet, gap, lookahead, params, weights, book,
                         scene.geometry, rng)
        if winner is None:
            return 0.0
        return float(np.mean([
            box_iou(winner.path[j], truth[t_last + 1 + j])
            for j in range(gap - 1)
        ]))

    multi, top1 = [], []
    for s in range(10):
        scene = generate(SceneSpec(
            num_objects=10, num_frames=300, motion=MOTION_SINUSOIDAL, seed=600 + s,
            detection_dropout=0.0, detection_jitter=0.0, false_positive_rate=0.0,
        ))
        noise_rng = np.random.default_rng(900 + s)
        noisy = {
            obj: boxes + noise_rng.normal(0.0, 3.0, size=boxes.shape)
            for obj, boxes in scene.trajectories.items()
        }
        rng_m = np.random.default_rng(42 + s)
        rng_g = np.random.default_rng(42 + s)
        for obj in scene.trajectories:
            for t_last in (60, 150, 240):
                multi.append(bridge_iou(scene, noisy, obj, t_last, multi_params, rng_m))
                top1.append(bridge_iou(scene, noisy, obj, t_last, top1_params, rng_g))

    multi = np.array(multi).reshape(10, -1)
    top1 = np.array(top1).reshape(10, -1)
    wins = int(np.sum(multi.mean(axis=1) > top1.mean(axis=1)))
    _report(
        "A4",
        multi.mean() > top1.mean(),
        f"bridge IOU multinomial {multi.mean():.4f} > top1 {top1.mean():.4f} "
        f"(per-seed wins {wins}/10)",
    )


# ---------------------------------------------------------------------------
# A5: uniform model log-likelihood


def test_a5_uniform_model_log_likelihood():
    from gaptrack.codebook import Codebook
    from gaptrack.geometry import FrameGeometry

    worst = 0.0
    for k in (4, 256, 1024):
        rng = np.random.default_rng(5)
        # a zero-weight network emits logits of zero: uniform over every axis
        weights = init_weights(ModelConfig(num_clusters=k, hidden_dim=4), rng)
        for name in weights.PARAM_NAMES:
            getattr(weights, name)[:] = 0.0
        tracklet = new_tracklet(1, 1, BoundingBox(10.0, 10.0, 20.0, 20.0), weights)
        book = Codebook(centroids=np.tile(np.linspace(-0.1, 0.1, k), (4, 1)), k=k)
        got = score_detection(
            tracklet.last_box.box.as_array()[None], tracklet.dist[None],
            np.array([[12.0, 11.0, 20.0, 20.0]]), FrameGeometry(640.0, 480.0), book,
        )[0, 0]
        want = 4.0 * math.log(1.0 / k)
        worst = max(worst, abs(got - want))
        check = log_likelihood(np.full((4, k), 1.0 / k), (0, k - 1, k // 2, 1))
        worst = max(worst, abs(check - want))
    _report("A5", worst < 1e-9, f"K in (4, 256, 1024), worst error {worst:.2e} < 1e-9")


# ---------------------------------------------------------------------------
# A6: hand-evaluated metric scenarios


def _rows(track_id, frames, x0=0.0):
    return [(f, track_id, BoundingBox(x0 + 5.0 * f, 0.0, 20.0, 40.0)) for f in frames]


def test_a6_metric_scenarios_reproduce_exactly():
    gt = _rows(1, range(1, 11))

    perfect = evaluate(gt, gt)
    empty = evaluate(gt, [])
    split = evaluate(gt, _rows(8, range(1, 6)) + _rows(9, range(6, 11)))

    ok = (
        perfect.mota == 1.0 and perfect.idf1 == 1.0
        and empty.mota == 0.0 and empty.idf1 == 0.0
        and split.mota == 0.9 and split.idf1 == 0.5 and split.id_switches == 1
    )
    _report(
        "A6",
        ok,
        f"MOTA {perfect.mota}/{empty.mota}/{split.mota} == 1.0/0.0/0.9, "
        f"IDF1 {perfect.idf1}/{empty.idf1}/{split.idf1} == 1.0/0.0/0.5",
    )


# ---------------------------------------------------------------------------
# A7: codebook SSE vs exhaustive contiguous partitions


def _exhaustive_sse(values, counts, k):
    n = len(values)
    best = np.inf
    for cuts in itertools.combinations(range(1, n), min(k, n) - 1):
        bounds = [0, *cuts, n]
        total = 0.0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            v, w = values[lo:hi], counts[lo:hi]
            mean = np.sum(v * w) / np.sum(w)
            total += np.sum(w * (v - mean) ** 2)
        best = min(best, total)
    return float(best)


def test_a7_codebook_matches_exhaustive_optimum():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, 4))
        # one decimal place makes duplicates common, exercising the weighting
        points = np.round(rng.uniform(-1.0, 1.0, size=n), 1)
        book = fit(np.tile(points[:, None], (1, 4)), k, seed=int(rng.integers(1000)))
        values, counts = np.unique(points, return_counts=True)
        best = _exhaustive_sse(values, counts.astype(float), k)
        centroids = book.centroids[0]
        idx = np.argmin(np.abs(values[:, None] - centroids[None, :]), axis=1)
        got = float(np.sum(counts * (values - centroids[idx]) ** 2))
        worst = max(worst, abs(got - best) / max(best, 1e-12))
    _report("A7", worst < 1e-9, f"100 instances, worst SSE mismatch {worst:.2e} < 1e-9")


# ---------------------------------------------------------------------------
# A8: byte-identical pipeline runs


def test_a8_pipeline_is_byte_deterministic(tmp_path):
    cfg = {
        "seed": 3,
        "codebook": {"size": 16},
        "model": {"hidden_dim": 16},
        "training": {"iterations": 300, "batch_size": 8, "learning_rate": 3e-3, "window": 20},
        "tracker": {"inpaint": {"num_samples": 8}},
        "scene": {
            "num_objects": 4, "num_frames": 60, "width": 960.0, "height": 540.0,
            "detection_dropout": 0.05, "detection_jitter": 0.2,
            "false_positive_rate": 0.05, "name": "twin",
        },
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))

    outputs = []
    for run in ("one", "two"):
        root = tmp_path / run
        seq, book, model, results = (
            root / "seq", root / "book.npz", root / "model.npz", root / "results"
        )
        assert main(["synth", "--config", str(cfg_path), "--out", str(seq)]) == 0
        assert main(["fit-codebook", "--config", str(cfg_path), "--out", str(book)]) == 0
        assert main(["train", "--config", str(cfg_path), "--codebook", str(book),
                     "--out", str(model)]) == 0
        assert main(["track", "--config", str(cfg_path), "--model", str(model),
                     "--codebook", str(book), "--sequences", str(seq),
                     "--out", str(results)]) == 0
        outputs.append({
            "det": (seq / "det" / "det.txt").read_bytes(),
            "gt": (seq / "gt" / "gt.txt").read_bytes(),
            "result": (results / "twin.txt").read_bytes(),
            "metrics": (results / "metrics.txt").read_bytes(),
        })

    same = {name: outputs[0][name] == outputs[1][name] for name in outputs[0]}
    _report(
        "A8",
        all(same.values()),
        "byte-identical " + ", ".join(sorted(same)) if all(same.values())
        else "differs: " + ", ".join(n for n, ok in sorted(same.items()) if not ok),
    )


# ---------------------------------------------------------------------------
# A9: trained model quality gate


def test_a9_next_step_accuracy_gate():
    spec = SceneSpec(
        num_objects=10, num_frames=300, seed=11,
        detection_dropout=0.0, detection_jitter=0.0, false_positive_rate=0.0,
    )
    scene = generate(spec)
    train_tracks = scene.training_tracks(window=25)
    held_out = scene.training_tracks(window=spec.num_frames)  # full trajectories

    samples = np.concatenate([
        velocities_from_boxes(t.boxes, t.frame) for t in train_tracks
    ])
    book = fit(samples, 32, seed=0)
    schedule = TrainSchedule(iterations=5000, batch_size=24, jitter_fraction=0.0, seed=0)
    weights, _ = train(
        train_tracks, book, ModelConfig(num_clusters=book.k, hidden_dim=32), schedule
    )
    accuracy = next_step_accuracy(weights, held_out, book)
    _report("A9", accuracy >= 0.99, f"held-out next-step accuracy {accuracy:.4f} >= 0.99")
