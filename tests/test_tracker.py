"""Two-pass tracking loop: lifecycle, gap bridging, emission, determinism."""

import numpy as np
import pytest

from gaptrack import (
    BoundingBox,
    Detection,
    SequencingError,
    TrackerConfig,
    InpaintParams,
    make_state,
    process_frame,
    run_sequence,
)
from gaptrack.scoring import SOURCE_DETECTED, SOURCE_INPAINTED, STATUS_TERMINATED
from gaptrack.synth import drop_detections

def id_map(result):
    """frame -> {tracklet id: (box, source)} over final emission."""
    out = {}
    for fr in result.frame_results:
        out[fr.frame] = {tid: (box, source) for tid, box, source in fr.committed}
    return out


def test_perfect_detections_one_tracklet_per_object(tiny_model, clean_scene):
    weights, book = tiny_model
    result = run_sequence(clean_scene.detections, clean_scene.meta, weights, book,
                          TrackerConfig())
    assert len(result.tracklets) == clean_scene.spec.num_objects
    # every confirmed tracklet covers almost the whole sequence
    for t in result.tracklets:
        assert len(t.boxes) >= clean_scene.spec.num_frames - 1
    # no frame commits the same id twice
    for fr in result.frame_results:
        ids = [tid for tid, _, _ in fr.committed]
        assert len(ids) == len(set(ids))


def test_no_detections_no_tracklets(tiny_model, clean_scene):
    weights, book = tiny_model
    result = run_sequence([], clean_scene.meta, weights, book, TrackerConfig())
    assert result.tracklets == []
    assert all(fr.committed == () for fr in result.frame_results)
    assert len(result.frame_results) == clean_scene.meta.length


def test_determinism(tiny_model, clean_scene):
    weights, book = tiny_model
    scene = drop_detections(clean_scene, frames=range(40, 43), object_ids=[2])
    a = run_sequence(scene.detections, scene.meta, weights, book, TrackerConfig())
    b = run_sequence(scene.detections, scene.meta, weights, book, TrackerConfig())
    assert len(a.frame_results) == len(b.frame_results)
    for fa, fb in zip(a.frame_results, b.frame_results):
        assert fa == fb


def test_gap_is_bridged_with_sampling_but_splits_without(tiny_model, clean_scene):
    weights, book = tiny_model
    scene = drop_detections(clean_scene, frames=range(30, 33), object_ids=[1])

    with_inpaint = run_sequence(scene.detections, scene.meta, weights, book,
                                TrackerConfig())
    without = run_sequence(scene.detections, scene.meta, weights, book,
                           TrackerConfig(inpaint=InpaintParams(num_samples=0)))

    assert len(with_inpaint.tracklets) == clean_scene.spec.num_objects
    assert len(without.tracklets) == clean_scene.spec.num_objects + 1

    # the bridged identity fills the gap with sampled boxes
    bridged = [t for t in with_inpaint.tracklets
               if any(tb.source == SOURCE_INPAINTED for tb in t.boxes)]
    assert len(bridged) == 1
    gap_sources = {tb.frame: tb.source for tb in bridged[0].boxes if 30 <= tb.frame <= 33}
    assert gap_sources == {
        30: SOURCE_INPAINTED, 31: SOURCE_INPAINTED, 32: SOURCE_INPAINTED,
        33: SOURCE_DETECTED,
    }


def test_emit_inpainted_false_hides_bridged_boxes(tiny_model, clean_scene):
    weights, book = tiny_model
    scene = drop_detections(clean_scene, frames=range(30, 33), object_ids=[1])
    shown = run_sequence(scene.detections, scene.meta, weights, book,
                         TrackerConfig(emit_inpainted=True))
    hidden = run_sequence(scene.detections, scene.meta, weights, book,
                          TrackerConfig(emit_inpainted=False))

    def sources(result):
        return {src for fr in result.frame_results for _, _, src in fr.committed}

    assert SOURCE_INPAINTED in sources(shown)
    assert sources(hidden) == {SOURCE_DETECTED}


def test_final_emission_includes_pre_confirmation_boxes(tiny_model, clean_scene):
    weights, book = tiny_model
    result = run_sequence(clean_scene.detections, clean_scene.meta, weights, book,
                          TrackerConfig())
    # online results at frame 1 commit nothing (all tracklets tentative),
    # but the assembled emission recovers those first boxes
    assert result.online_results[0].committed == ()
    first = id_map(result)[1]
    assert len(first) == clean_scene.spec.num_objects


def test_single_frame_clutter_never_emits(tiny_model, clean_scene):
    weights, book = tiny_model
    clutter = Detection(frame=10, box=BoundingBox(850.0, 20.0, 40.0, 40.0), confidence=0.9)
    dets = list(clean_scene.detections) + [clutter]
    dets.sort(key=lambda d: d.frame)
    result = run_sequence(dets, clean_scene.meta, weights, book, TrackerConfig())
    assert len(result.tracklets) == clean_scene.spec.num_objects
    committed_at_10 = id_map(result)[10].values()
    assert all(box != clutter.box for box, _ in committed_at_10)


def test_terminated_id_never_returns(tiny_model, clean_scene):
    weights, book = tiny_model
    # cut one object out entirely after frame 20; its tracklet must
    # terminate and the id must not be reused by later births
    scene = drop_detections(clean_scene, frames=range(20, 81), object_ids=[3])
    result = run_sequence(scene.detections, scene.meta, weights, book, TrackerConfig())
    seen_after_termination = set()
    terminated = set()
    for fr in result.online_results:
        for tid in fr.terminated:
            terminated.add(tid)
        for tid, _, _ in fr.committed:
            assert tid not in terminated, f"id {tid} reappeared after termination"
        for tid in fr.born:
            assert tid not in seen_after_termination
            seen_after_termination.add(tid)
    assert terminated, "expected at least one termination"


def test_low_confidence_detections_are_dropped(tiny_model, clean_scene):
    weights, book = tiny_model
    weak = [Detection(d.frame, d.box, confidence=0.1) for d in clean_scene.detections]
    result = run_sequence(weak, clean_scene.meta, weights, book,
                          TrackerConfig(min_detection_confidence=0.5))
    assert result.tracklets == []


def test_process_frame_rejects_out_of_order_frames(tiny_model, clean_scene):
    weights, book = tiny_model
    state = make_state(weights, book, clean_scene.geometry, TrackerConfig())
    process_frame(state, 1, [BoundingBox(10.0, 10.0, 40.0, 40.0)])
    with pytest.raises(SequencingError):
        process_frame(state, 3, [])


def test_instant_birth_confirmation(tiny_model, clean_scene):
    weights, book = tiny_model
    state = make_state(weights, book, clean_scene.geometry,
                       TrackerConfig(birth_confirmation=1))
    fr = process_frame(state, 1, [BoundingBox(10.0, 10.0, 40.0, 40.0)])
    assert len(fr.committed) == 1
    assert fr.born == (1,)


def test_gate_blocks_expensive_matches(tiny_model, clean_scene):
    weights, book = tiny_model
    # an absurdly tight gate forbids every match, so each frame's detections
    # spawn fresh tentative tracklets that die unconfirmed
    result = run_sequence(clean_scene.detections, clean_scene.meta, weights, book,
                          TrackerConfig(gate_factor=1e-12))
    assert result.tracklets == []
