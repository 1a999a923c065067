"""The three workloads: inputs made from the seed, set-up, measured rounds, checks.

A run sets up ``SETUPS`` times (the last set-up's inputs are used), then
repeats whole rounds of identical work until ``seconds`` have passed, so
every round yields the same outputs and counts. Every workload runs all
three stages, so every end-to-end metric is measured on each; what differs
is where the time goes:

- ``train``: a round trains a fresh model on the packaged default scene,
  then tracks a short scene with it. Training takes most of the round.
- ``track-desk``: the packaged default scene, tracked and evaluated. The
  model is trained in set-up, on a desk scene of another seed.
- ``track-crowded``: twice the objects on a random walk with twice the
  dropout, so assignments and pass-2 bidding grow.

The scenes and the training streams are fixed; the seed draws the
held-out scene of the training check and, on ``track-desk`` only, the
inpainting stream. From one scene, trained model or (on the short and the
crowded scene) inpainting stream to the next, per-frame cost and identity
quality move by more than the bounds, while a user tracks fixed sequences
with one model.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

import checks
import layers
from gaptrack import codebook, geometry, metrics, motion_model, synth, tracker, training
from gaptrack.config import RunConfig
from speed import SpeedProbe
from tracing import Tracer

SETUPS = 3
SETUP_ITERATIONS = 50   # training iterations of the set-up model (track-*)
ROUND_ITERATIONS = 60   # training iterations per round (train)
SHORT_FRAMES = 60       # frames of the scene a train round tracks
EVAL_REPEATS = 5        # evaluate calls per round
LOSS_TAIL = 10          # losses averaged into train_loss_tail
MODEL_SEED = 1          # training scene and random streams of the track-* model


@dataclass
class Inputs:
    cfg: RunConfig
    tracker_config: tracker.TrackerConfig
    train_tracks: list
    heldout_tracks: list
    scene: synth.Scene
    gt_rows: list
    detections_by_frame: dict
    book: codebook.Codebook | None = None
    weights: motion_model.ModelWeights | None = None
    loss_trace: list | None = None
    train_span: tuple[float, float] = (0.0, 0.0)


def _tracked_spec(workload: str) -> synth.SceneSpec:
    desk = RunConfig().scene_spec()
    if workload == "track-crowded":
        return replace(desk, num_objects=20, num_frames=150, motion="random-walk",
                       detection_dropout=0.2, name="crowded")
    if workload == "train":
        return replace(desk, num_frames=SHORT_FRAMES, seed=desk.seed + 1, name="short")
    return desk


def _jittered_velocities(tracks, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Velocities of boxes jittered as training jitters them, for the codebook fit."""
    chunks = []
    for track in tracks:
        boxes = track.boxes
        eps = rng.uniform(-fraction, fraction, size=boxes.shape)
        jittered = boxes.copy()
        jittered[:, 0] += eps[:, 0] * boxes[:, 2]
        jittered[:, 1] += eps[:, 1] * boxes[:, 3]
        jittered[:, 2:] *= 1.0 + eps[:, 2:]
        chunks.append(geometry.velocities_from_boxes(jittered, track.frame))
    return np.concatenate(chunks, axis=0)


def set_up(workload: str, seed: int) -> Inputs:
    """Generate the scenes and fit the codebook; for track-* also train the model."""
    inpaint_seed, heldout_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    cfg = RunConfig(seed=0 if workload == "train" else MODEL_SEED)
    train_spec = cfg.scene_spec()
    tracker_config = cfg.tracker_config()
    # Only track-desk lets the seed draw the inpainting stream. On the crowded
    # scene the stream changes the ID structure of the output so much that one
    # evaluate call takes 210-280 ms depending on the seed (the solver on tied
    # co-occurrence counts). On train's 60-frame scene it moved the median
    # frame latency between 14 and 21 ms over eight seeds.
    if workload == "track-desk":
        tracker_config = replace(tracker_config, inpaint=replace(tracker_config.inpaint, seed=inpaint_seed))
    train_scene = synth.generate(train_spec)
    heldout = synth.generate(replace(train_spec, seed=heldout_seed))
    scene = synth.generate(_tracked_spec(workload))
    by_frame: dict[int, list] = {}
    for det in scene.detections:
        box = det.box
        by_frame.setdefault(det.frame, []).append(np.array([box.x, box.y, box.w, box.h]))
    inputs = Inputs(
        cfg=cfg,
        tracker_config=tracker_config,
        train_tracks=train_scene.training_tracks(window=cfg.training.window),
        heldout_tracks=heldout.training_tracks(window=None),
        scene=scene,
        gt_rows=scene.ground_truth_rows(),
        detections_by_frame=by_frame,
    )
    rng = np.random.default_rng(cfg.seed)
    samples = _jittered_velocities(inputs.train_tracks, cfg.training.jitter_fraction, rng)
    inputs.book = codebook.fit(samples, cfg.codebook.size, cfg.seed)
    if workload != "train":
        _train(inputs, SETUP_ITERATIONS)
    return inputs


def _train(inputs: Inputs, iterations: int) -> None:
    schedule = replace(inputs.cfg.train_schedule(), iterations=iterations)
    started = time.perf_counter()
    inputs.weights, inputs.loss_trace = training.train(
        inputs.train_tracks, inputs.book, inputs.cfg.model_config(inputs.book.k), schedule
    )
    inputs.train_span = (started, time.perf_counter())


class Meter:
    """Probes machine speed between gaptrack calls and times each ``process_frame``.

    While active it patches two names that gaptrack looks up at call time:
    ``tracker.process_frame`` (called once per frame by ``run_sequence``) and
    ``training.loss_and_gradients`` (once per iteration by ``train``), so
    probes also land inside those long calls, between frames and iterations.
    """

    def __init__(self):
        self.speed = SpeedProbe()
        self.frames: list[tuple[float, float]] = []

    def __enter__(self):
        self._saved = (tracker.process_frame, training.loss_and_gradients)
        process_frame, loss_and_gradients = self._saved
        speed, frames = self.speed, self.frames

        def timed_frame(*args, **kwargs):
            speed.maybe_probe("step")
            started = time.perf_counter()
            result = process_frame(*args, **kwargs)
            frames.append((started, time.perf_counter()))
            return result

        def probed_iteration(*args, **kwargs):
            speed.maybe_probe("batch")
            return loss_and_gradients(*args, **kwargs)

        tracker.process_frame = timed_frame
        training.loss_and_gradients = probed_iteration
        self.speed.probe_all()
        return self

    def __exit__(self, *exc):
        self.speed.probe_all()
        tracker.process_frame, training.loss_and_gradients = self._saved


@dataclass
class RoundOutput:
    span: tuple[float, float]
    train_span: tuple[float, float] | None
    track_span: tuple[float, float]
    eval_spans: list
    frames: int
    frame_results: list
    report: metrics.MetricsReport
    pred_rows: list
    loss_trace: list


def run_round(workload: str, inputs: Inputs, speed: SpeedProbe | None) -> RoundOutput:
    started = time.perf_counter()
    train_span = None
    if workload == "train":
        _train(inputs, ROUND_ITERATIONS)
        train_span = inputs.train_span
    scene = inputs.scene
    t0 = time.perf_counter()
    result = tracker.run_sequence(scene.detections, scene.meta, inputs.weights,
                                  inputs.book, inputs.tracker_config)
    track_span = (t0, time.perf_counter())
    pred_rows = [(fr.frame, tid, box) for fr in result.frame_results for tid, box, _ in fr.committed]
    eval_spans = []
    for _ in range(EVAL_REPEATS):
        if speed is not None:
            speed.probe("step")
        t0 = time.perf_counter()
        report = metrics.evaluate(inputs.gt_rows, pred_rows)
        eval_spans.append((t0, time.perf_counter()))
    return RoundOutput(
        span=(started, time.perf_counter()),
        train_span=train_span,
        track_span=track_span,
        eval_spans=eval_spans,
        frames=len(result.online_results),
        frame_results=result.frame_results,
        report=report,
        pred_rows=pred_rows,
        loss_trace=list(inputs.loss_trace),
    )


def heldout_log_likelihood(inputs: Inputs) -> float:
    """Mean per-component log-probability of clean held-out next steps."""
    weights, book = inputs.weights, inputs.book
    total, terms = 0.0, 0
    for track in inputs.heldout_tracks:
        vel = geometry.velocities_from_boxes(track.boxes, track.frame)
        targets = codebook.quantize_array(vel, book)
        x = np.vstack([np.zeros((1, 4)), vel[:-1]])
        h = np.zeros((1, weights.config.hidden_dim))
        c = np.zeros_like(h)
        for t in range(len(vel)):
            out = motion_model.cell_forward(weights, x[None, t], h, c)
            h, c = out["h"], out["c"]
            total += float(out["log_probs"][0, np.arange(4), targets[t]].sum())
            terms += 4
    return total / terms


def _check(inputs: Inputs, rounds: list[RoundOutput]) -> list[str]:
    first = rounds[0]
    errors = checks.check_training(first.loss_trace, heldout_log_likelihood(inputs),
                                   inputs.book.k, LOSS_TAIL)
    errors += checks.check_tracks(first.frame_results, inputs.detections_by_frame)
    errors += checks.check_evaluation(first.report, inputs.gt_rows, first.pred_rows)
    for later in rounds[1:]:
        if later.pred_rows != first.pred_rows or later.report != first.report:
            errors.append("a round's output differs from the first round's")
            break
    return errors


def run(workload: str, seed: int, seconds: float, trace: bool, import_span, trace_path):
    """One benchmark run; returns (result, check failures, absent per-layer metrics).

    ``import_span`` is (process start, end of imports) on ``time.perf_counter``.
    """
    meter = Meter()
    speed = meter.speed
    tracer = Tracer() if trace else None

    setup_spans, setup_train_spans = [], []
    for _ in range(SETUPS):
        if tracer is not None:
            layers.install(tracer)
            with tracer.span("bench.setup"):
                inputs = set_up(workload, seed)
            tracer.unwrap_all()
        else:
            with meter:
                started = time.perf_counter()
                inputs = set_up(workload, seed)
                setup_spans.append((started, time.perf_counter()))
            setup_train_spans.append(inputs.train_span)

    # Traced runs alternate untraced and traced rounds, so both see the same
    # machine state and their difference is the tracing overhead. The first
    # round is slower (caches, first allocations) and is left out of it.
    rounds: list[RoundOutput] = []
    traced = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds or (trace and len(rounds) < 3):
        if trace and len(rounds) % 2 == 1:
            speed.probe_all()
            layers.install(tracer)
            with tracer.span("bench.round"):
                rounds.append(run_round(workload, inputs, None))
            tracer.unwrap_all()
            speed.probe_all()
            traced.append(True)
        else:
            with meter:
                rounds.append(run_round(workload, inputs, speed))
            traced.append(False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    errors = _check(inputs, rounds)
    per_round_ops = rounds[0].frames + EVAL_REPEATS + (ROUND_ITERATIONS if workload == "train" else 0)
    result = {"correct": not errors, "attempted": per_round_ops * len(rounds), "failed": 0}

    if trace:
        values, absent = layers.layer_metrics(tracer)
        kind = "batch" if workload == "train" else "step"
        round_s = {flag: statistics.fmean(speed.scaled(*r.span, kind) for r, t in zip(rounds[1:], traced[1:])
                                          if t == flag)
                   for flag in (True, False)}
        values["trace.overhead_pct"] = {"value": 100.0 * (round_s[True] / round_s[False] - 1.0), "unit": "%"}
        tracer.write(trace_path)
        result["metrics"] = values
        return result, errors, absent

    if workload == "train":
        train_spans, iterations = [r.train_span for r in rounds], ROUND_ITERATIONS
        loss_trace = rounds[0].loss_trace
    else:
        train_spans, iterations = setup_train_spans, SETUP_ITERATIONS
        loss_trace = inputs.loss_trace
    frame_ms = 1e3 * np.array([speed.scaled(*f, "step") for f in meter.frames])
    report = rounds[0].report
    values = {
        "setup_s": (speed.scaled(*import_span, "step")
                    + statistics.median(speed.scaled(*s, "batch") for s in setup_spans), "s"),
        "train_iter_ms": (1e3 * statistics.median(speed.scaled(*s, "batch") for s in train_spans) / iterations, "ms"),
        "train_loss_tail": (float(np.mean(loss_trace[-LOSS_TAIL:])), "nats"),
        "track_fps": (sum(r.frames for r in rounds) / sum(speed.scaled(*r.track_span, "step") for r in rounds), "1/s"),
        "frame_ms_p50": (float(np.percentile(frame_ms, 50)), "ms"),
        "frame_ms_p90": (float(np.percentile(frame_ms, 90)), "ms"),
        "eval_ms": (1e3 * statistics.median(speed.scaled(*s, "step") for r in rounds for s in r.eval_spans), "ms"),
        "mota": (report.mota, "ratio"),
        "idf1": (report.idf1, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    return result, errors, []
