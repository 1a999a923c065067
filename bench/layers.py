"""Which gaptrack names the traced run wraps, and the per-layer metrics built on them.

Every per-layer figure is for one set-up plus one measured round: totals
over the set-ups divided by their number, plus totals over the traced
rounds divided by theirs. Counts therefore repeat exactly for a given seed.
Times are self times (a span's duration minus its wrapped children), in
milliseconds. The ``training.*`` times are per training iteration.
"""

from __future__ import annotations

ROOTS = ("bench.setup", "bench.round")


def _iterations(tracer, args, result):
    tracer.count("training.iterations", len(result[1]))


def _lifecycle(tracer, args, result):
    tracer.count("births", len(result.born))
    tracer.count("terminations", len(result.terminated))


def _no_survivor(tracer, args, result):
    tracer.count("inpaint_no_survivor", result is None)


def _branches(tracer, args, result):
    tracer.count("branches_sampled", len(result))
    for cand in result:
        if cand.rejected and cand.rejection_reason.startswith("degenerate"):
            tracer.count("branches_rejected_degenerate")
        elif cand.rejected and cand.rejection_reason.startswith("no overlap"):
            tracer.count("branches_rejected_no_overlap")


def _cells(tracer, args, result):
    rows, cols = args[0].shape
    tracer.count("track_solve_cells", rows * cols)


def _switches(tracer, args, result):
    tracer.count("id_switches", result.id_switches)


# (target as "module:attr" in the caller's namespace, span name or None, hook, counters the hook makes)
WRAPS = (
    ("gaptrack.synth:generate", "synth.generate", None, ()),
    ("gaptrack.codebook:fit", "codebook.fit", None, ()),
    ("gaptrack.training:train", "training.train", _iterations, ("training.iterations",)),
    ("gaptrack.training:loss_and_gradients", "training.loss_and_gradients", None, ()),
    ("gaptrack.training:_teacher_force_inputs", "training.teacher_force", None, ()),
    ("gaptrack.training:lstm_core", "motion_model.lstm_core", None, ()),
    ("gaptrack.training:head_outputs", "motion_model.head_outputs", None, ()),
    ("gaptrack.tracker:run_sequence", "tracker.run_sequence", None, ()),
    ("gaptrack.tracker:process_frame", "tracker.process_frame", _lifecycle, ("births", "terminations")),
    ("gaptrack.tracker:score_detection", "scoring.score_detection", None, ()),
    ("gaptrack.scoring:quantize", "codebook.quantize", None, ()),
    ("gaptrack.tracker:advance", "scoring.advance", None, ()),
    ("gaptrack.scoring:step", "motion_model.step", None, ()),
    ("gaptrack.tracker:inpaint", "scoring.inpaint", _no_survivor, ("inpaint_no_survivor",)),
    ("gaptrack.scoring:sample_candidates", None, _branches,
     ("branches_sampled", "branches_rejected_degenerate", "branches_rejected_no_overlap")),
    ("gaptrack.scoring:cell_forward", "motion_model.cell_forward", None, ()),
    ("gaptrack.tracker:reattach", "scoring.reattach", None, ()),
    ("gaptrack.tracker:solve", "assignment.track_solve", _cells, ("track_solve_cells",)),
    ("gaptrack.metrics:evaluate", "metrics.evaluate", _switches, ("id_switches",)),
    ("gaptrack.metrics:_match_frame", "metrics.match_frame", None, ()),
    ("gaptrack.metrics:_identity_true_positives", "metrics.identity", None, ()),
    ("gaptrack.metrics:solve", "assignment.eval_solve", None, ()),
)

# (metric, unit, kind, span name or counter): kind "calls" counts spans,
# "ms" sums self time, "ms/iter" sums self time per training iteration,
# "count" reads a counter, "count/evaluate" a counter per evaluate call.
METRICS = (
    ("synth.generate_ms", "ms", "ms", "synth.generate"),
    ("codebook.fit_ms", "ms", "ms", "codebook.fit"),
    ("codebook.quantize_calls", "count", "calls", "codebook.quantize"),
    ("codebook.quantize_ms", "ms", "ms", "codebook.quantize"),
    ("motion_model.step_calls", "count", "calls", "motion_model.step"),
    ("motion_model.step_ms", "ms", "ms", "motion_model.step"),
    ("motion_model.cell_forward_calls", "count", "calls", "motion_model.cell_forward"),
    ("motion_model.cell_forward_ms", "ms", "ms", "motion_model.cell_forward"),
    ("motion_model.lstm_core_ms", "ms", "ms", "motion_model.lstm_core"),
    ("motion_model.head_outputs_ms", "ms", "ms", "motion_model.head_outputs"),
    ("training.loss_and_gradients_ms", "ms", "ms/iter", "training.loss_and_gradients"),
    ("training.teacher_force_ms", "ms", "ms/iter", "training.teacher_force"),
    ("training.rest_ms", "ms", "ms/iter", "training.train"),
    ("scoring.score_detection_calls", "count", "calls", "scoring.score_detection"),
    ("scoring.score_detection_ms", "ms", "ms", "scoring.score_detection"),
    ("scoring.advance_ms", "ms", "ms", "scoring.advance"),
    ("scoring.inpaint_calls", "count", "calls", "scoring.inpaint"),
    ("scoring.inpaint_ms", "ms", "ms", "scoring.inpaint"),
    ("scoring.branches_sampled", "count", "count", "branches_sampled"),
    ("scoring.branches_rejected_degenerate", "count", "count", "branches_rejected_degenerate"),
    ("scoring.branches_rejected_no_overlap", "count", "count", "branches_rejected_no_overlap"),
    ("scoring.inpaint_no_survivor", "count", "count", "inpaint_no_survivor"),
    ("scoring.bridges_committed", "count", "calls", "scoring.reattach"),
    ("assignment.track_solve_calls", "count", "calls", "assignment.track_solve"),
    ("assignment.track_solve_ms", "ms", "ms", "assignment.track_solve"),
    ("assignment.track_solve_cells", "count", "count", "track_solve_cells"),
    ("assignment.eval_solve_calls", "count", "calls", "assignment.eval_solve"),
    ("assignment.eval_solve_ms", "ms", "ms", "assignment.eval_solve"),
    ("tracker.process_frame_self_ms", "ms", "ms", "tracker.process_frame"),
    ("tracker.births", "count", "count", "births"),
    ("tracker.terminations", "count", "count", "terminations"),
    ("metrics.evaluate_ms", "ms", "ms", "metrics.evaluate"),
    ("metrics.match_frame_ms", "ms", "ms", "metrics.match_frame"),
    ("metrics.identity_ms", "ms", "ms", "metrics.identity"),
    ("metrics.id_switches", "count", "count/evaluate", "id_switches"),
)


def install(tracer) -> None:
    for target, name, hook, _ in WRAPS:
        tracer.wrap(target, name, hook)


def layer_metrics(tracer) -> tuple[dict, list[str]]:
    """Per-layer values, and the names of metrics whose wrapped function is gone."""
    source = {}
    for target, name, _, counters in WRAPS:
        for key in (name, *counters):
            if key is not None:
                source[key] = target
    roots, spans = tracer.summary()
    units = {root: n for root, n in roots.items() if root in ROOTS}
    iterations = sum(tracer.counters[(root, "training.iterations")] for root in units)

    values, absent = {}, []
    for metric, unit, kind, key in METRICS:
        if source[key] in tracer.missing:
            absent.append(metric)
            continue
        if kind == "count":
            value = sum(tracer.counters[(root, key)] / n for root, n in units.items())
        elif kind == "calls":
            value = sum(spans.get((root, key), (0, 0.0, 0.0))[0] / n for root, n in units.items())
        elif kind == "ms":
            value = 1e3 * sum(spans.get((root, key), (0, 0.0, 0.0))[2] / n for root, n in units.items())
        elif kind == "count/evaluate":
            calls = sum(spans.get((root, "metrics.evaluate"), (0, 0.0, 0.0))[0] for root in units)
            value = sum(tracer.counters[(root, key)] for root in units) / calls if calls else 0.0
        else:
            total = sum(spans.get((root, key), (0, 0.0, 0.0))[2] for root in units)
            value = 1e3 * total / iterations if iterations else 0.0
        values[metric] = {"value": value, "unit": unit}
    return values, absent
