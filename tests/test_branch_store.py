"""The per-tracklet branch store: an exact cache that holds little memory.

A gapped tracklet keeps its sampled branches from frame to frame, so a call
samples only the steps its store lacks. Dropping the store before a call
must change nothing but the work done. Exactness relies on every row of a
model call of two or more rows being bit-stable whatever else the batch
holds, so these tests sample multinomially with many branches; top-1 can
run one-row batches.
"""

import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gaptrack import (
    BoundingBox,
    InpaintParams,
    ModelConfig,
    NumericOverflowError,
    SceneSpec,
    TrackerConfig,
    TrainSchedule,
    evaluate,
    fit_codebook,
    generate,
    inpaint,
    run_sequence,
    sample_candidates,
    scoring,
    tracker,
    train,
)
from gaptrack.scoring import SAMPLING_TOP1, SOURCE_DETECTED, SOURCE_INPAINTED
from gaptrack.synth import drop_detections

from test_inpaint import assert_same_candidate, gap_setup, object_boxes


def drop_stores(monkeypatch):
    """From now on, start every ``sample_candidates`` call from empty branch stores."""
    original = scoring.sample_candidates

    def fresh(tracklets, *args, **kwargs):
        for t in tracklets:
            t.branch_store = None
        return original(tracklets, *args, **kwargs)

    monkeypatch.setattr(scoring, "sample_candidates", fresh)


def model_rows(monkeypatch):
    """Count the rows of every model step the sampler takes."""
    rows = []
    original = scoring.cell_forward

    def counted(weights, x, h, c):
        rows.append(x.shape[0])
        return original(weights, x, h, c)

    monkeypatch.setattr(scoring, "cell_forward", counted)
    return rows


def carved_scene(clean_scene):
    """The clean scene with some clutter and 6- and 7-frame gaps carved for four objects.

    Clutter leaves detections unclaimed during the gaps, so gapped tracklets
    are sampled on consecutive frames, not only where their object returns.
    """
    scene = generate(replace(clean_scene.spec, false_positive_rate=0.3))
    scene = drop_detections(scene, frames=range(20, 26), object_ids=[1, 2])
    return drop_detections(scene, frames=range(45, 52), object_ids=[3, 5])


def output(scene, weights, book):
    result = run_sequence(scene.detections, scene.meta, weights, book, TrackerConfig())
    rows = [(fr.frame, tid, box) for fr in result.frame_results for tid, box, _ in fr.committed]
    return result.frame_results, evaluate(scene.ground_truth_rows(), rows)


def test_run_is_identical_with_the_store_dropped_before_every_call(tiny_model, clean_scene, monkeypatch):
    weights, book = tiny_model
    scene = carved_scene(clean_scene)
    reused = []
    original = scoring.sample_candidates

    def watched(tracklets, *args, **kwargs):
        reused.extend(t.tracklet_id for t in tracklets if t.branch_store is not None)
        return original(tracklets, *args, **kwargs)

    monkeypatch.setattr(scoring, "sample_candidates", watched)
    rows = model_rows(monkeypatch)
    kept = output(scene, weights, book)
    kept_rows = sum(rows)
    assert reused, "no call found a stored population to extend"

    drop_stores(monkeypatch)
    rows.clear()
    dropped = output(scene, weights, book)
    assert kept == dropped
    assert kept_rows < sum(rows)


def test_extending_a_gap_matches_sampling_it_fresh(tiny_model, clean_scene, monkeypatch):
    weights, book = tiny_model
    geometry = clean_scene.geometry
    t, _, _ = gap_setup(clean_scene, weights, obj_id=2, last_seen=20)
    fresh = replace(t, branch_store=None)
    params = InpaintParams(num_samples=30, iou_threshold=0.3, seed=7)

    def lookahead(current):
        return [np.stack([object_boxes(clean_scene, o)[current - 1 + f] for o in clean_scene.trajectories])
                for f in range(3)]

    rows = model_rows(monkeypatch)
    for gap in (3, 4, 5):
        rows.clear()
        got = sample_candidates([t], lookahead(20 + gap), params, weights, book, geometry, 20 + gap)
        # past the first frame of the gap, each branch takes one step
        assert sum(rows) == (30 * (gap + 2 - 1) if gap == 3 else 30)
    want = sample_candidates([fresh], lookahead(25), params, weights, book, geometry, 25)
    assert len(got) == len(want) == 30
    assert any(not c.rejected for c in want)
    for a, b in zip(got, want):
        assert_same_candidate(a, b)

    # Reading an older scoring state, or a state further behind the frontier
    # than the ring keeps, rebuilds the population with the same draws.
    for gap, window in ((4, 3), (2, 1), (4, 3)):
        ahead = lookahead(20 + gap)[:window]
        got = sample_candidates([t], ahead, params, weights, book, geometry, 20 + gap)
        want = sample_candidates([replace(t, branch_store=None)], ahead, params, weights, book,
                                 geometry, 20 + gap)
        for a, b in zip(got, want):
            assert_same_candidate(a, b)


@pytest.mark.parametrize("change", ["seed", "num_samples", "sampling", "weights"])
def test_a_changed_call_rebuilds_the_store(tiny_model, clean_scene, change):
    weights, book = tiny_model
    geometry = clean_scene.geometry
    t, current, lookahead = gap_setup(clean_scene, weights, obj_id=3, gap=3)
    params = InpaintParams(num_samples=20, iou_threshold=0.3, seed=4)
    sample_candidates([t], lookahead, params, weights, book, geometry, current)
    assert t.branch_store is not None

    if change == "seed":
        params = replace(params, seed=5)
    elif change == "num_samples":
        params = replace(params, num_samples=24)
    elif change == "sampling":
        params = replace(params, sampling=SAMPLING_TOP1)
    else:
        weights = replace(weights, head_b=weights.head_b + np.linspace(0.0, 1.0, book.k))
    fresh = replace(t, branch_store=None)
    got = sample_candidates([t], lookahead, params, weights, book, geometry, current)
    want = sample_candidates([fresh], lookahead, params, weights, book, geometry, current)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert_same_candidate(a, b)
    [a], [b] = (inpaint([x], lookahead, params, weights, book, geometry, current) for x in (t, fresh))
    assert_same_candidate(a, b)
    assert (a is None) or np.array_equal(a.dist_at_scoring, b.dist_at_scoring)


def test_a_failed_extension_leaves_no_store(tiny_model, clean_scene):
    # A store's stream moves on as soon as it draws, so a call that raises
    # mid-extension must not leave the store for the next call to read.
    weights, book = tiny_model
    geometry = clean_scene.geometry
    t, current, lookahead = gap_setup(clean_scene, weights, obj_id=2, gap=3)
    params = InpaintParams(num_samples=20, iou_threshold=0.3, seed=4)
    fresh = replace(t, branch_store=None)
    broken = replace(weights, input_scale=np.zeros_like(weights.input_scale))  # non-finite steps
    with np.errstate(all="ignore"), pytest.raises(NumericOverflowError):
        sample_candidates([t], lookahead, params, broken, book, geometry, current)
    assert t.branch_store is None
    got = sample_candidates([t], lookahead, params, weights, book, geometry, current)
    want = sample_candidates([fresh], lookahead, params, weights, book, geometry, current)
    assert len(got) == len(want) == 20
    for a, b in zip(got, want):
        assert_same_candidate(a, b)


class CountedDetection:
    """A detection record that counts how often its box is read."""

    def __init__(self, det, reads):
        self.frame, self.confidence, self._box, self._reads = det.frame, det.confidence, det.box, reads

    @property
    def box(self):
        self._reads[id(self)] += 1
        return self._box


def test_each_frame_is_grouped_into_one_array_once(tiny_model, clean_scene, monkeypatch):
    # run_sequence turns every detection record into an array row once; the
    # frame's array then serves that frame and the lookahead of the frames
    # before it, and no box goes back and forth through BoundingBox.as_array.
    weights, book = tiny_model
    scene = carved_scene(clean_scene)
    reads = Counter()
    detections = [CountedDetection(d, reads) for d in scene.detections]
    as_array_calls = []
    original_as_array = BoundingBox.as_array

    def counted_as_array(box):
        as_array_calls.append(box)
        return original_as_array(box)

    monkeypatch.setattr(BoundingBox, "as_array", counted_as_array)
    passed = {}  # frame -> every array handed to process_frame for it
    original = tracker.process_frame

    def recorded(state, frame_index, current, future=()):
        for offset, dets in enumerate([current, *future]):
            passed.setdefault(frame_index + offset, []).append(dets)
        return original(state, frame_index, current, future)

    monkeypatch.setattr(tracker, "process_frame", recorded)
    result = run_sequence(detections, scene.meta, weights, book, TrackerConfig())

    assert as_array_calls == []
    assert len(reads) == len(detections) and set(reads.values()) == {1}
    assert set(passed) == set(range(1, scene.meta.length + 1))
    for frame, arrays in passed.items():
        assert all(dets is arrays[0] for dets in arrays[1:])
        rows = [[d.box.x, d.box.y, d.box.w, d.box.h] for d in scene.detections if d.frame == frame]
        assert np.array_equal(arrays[0], np.array(rows).reshape(-1, 4))
    assert max(len(arrays) for arrays in passed.values()) == 4  # the frame plus a 3-frame lookahead
    assert result.frame_results == output(scene, weights, book)[0]
    # the final emission hands back the input's own records for detected
    # boxes and builds new ones only for inpainted boxes
    inputs = {id(d.box) for d in scene.detections}
    kinds = {(id(box) in inputs, source) for fr in result.frame_results for _, box, source in fr.committed}
    assert kinds == {(True, SOURCE_DETECTED), (False, SOURCE_INPAINTED)}


def test_only_gapped_tracklets_hold_a_store(tiny_model, clean_scene, monkeypatch):
    weights, book = tiny_model
    scene = carved_scene(clean_scene)
    held = []
    original = tracker.process_frame

    def checked(state, frame_index, *args, **kwargs):
        result = original(state, frame_index, *args, **kwargs)
        holders = [t for t in state.tracklets if t.branch_store is not None]
        # a holder is gapped: confirmed, and missed on the frame just processed
        assert all(len(t.boxes) >= state.config.birth_confirmation and t.last_frame < frame_index
                   for t in holders)
        assert all(t.branch_store is None for t in state.finished)
        held.extend(holders)
        return result

    monkeypatch.setattr(tracker, "process_frame", checked)
    result = run_sequence(scene.detections, scene.meta, weights, book, TrackerConfig())
    assert held, "no tracklet held a store during the run"
    assert all(t.branch_store is None for t in result.tracklets)


def test_the_store_adds_at_most_a_megabyte_to_the_traced_peak(monkeypatch):
    # 20 random-walk objects with a fifth of the detections dropped, a
    # 256-cell codebook and a model trained for 50 iterations.
    train_scene = generate(SceneSpec(num_objects=20, num_frames=60, motion="random-walk", seed=5))
    tracks = train_scene.training_tracks(window=25)
    book = fit_codebook(tracks, k=256, seed=0, jitter_fraction=0.02)
    weights, _ = train(tracks, book, ModelConfig(num_clusters=book.k),
                       TrainSchedule(iterations=50, batch_size=16, seed=0))
    scene = generate(SceneSpec(num_objects=20, num_frames=60, motion="random-walk",
                               detection_dropout=0.2, seed=6))

    def traced_peak():
        tracemalloc.start()
        try:
            result = run_sequence(scene.detections, scene.meta, weights, book, TrackerConfig())
            return tracemalloc.get_traced_memory()[1], result.frame_results
        finally:
            tracemalloc.stop()

    rows = model_rows(monkeypatch)
    kept, kept_results = traced_peak()
    kept_rows, rows[:] = sum(rows), []
    drop_stores(monkeypatch)
    dropped, dropped_results = traced_peak()
    assert kept_results == dropped_results
    assert kept_rows < sum(rows)
    assert kept <= dropped + 1_000_000
