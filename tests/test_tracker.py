"""Two-pass tracking loop: lifecycle, gap bridging, emission, determinism."""

import numpy as np
import pytest

from gaptrack import (
    BoundingBox,
    Detection,
    SequencingError,
    TrackerConfig,
    InpaintParams,
    advance,
    make_state,
    process_frame,
    run_sequence,
    scoring,
    step,
)
from gaptrack.scoring import SOURCE_DETECTED, SOURCE_INPAINTED, STATUS_TERMINATED
from gaptrack.synth import drop_detections
from gaptrack.tracker import detection_arrays


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


def test_low_confidence_detections_are_dropped(tiny_model, clean_scene, monkeypatch):
    weights, book = tiny_model
    config = TrackerConfig(min_detection_confidence=0.5)
    weak = [Detection(d.frame, d.box, confidence=0.1) for d in clean_scene.detections]
    result = run_sequence(weak, clean_scene.meta, weights, book, config)
    assert result.tracklets == []

    # Lookahead frames are filtered too: object 1 rejoins on frame 33, and
    # weak boxes next to it on frames 34-36 must not move the ranking of
    # that frame's branches.
    scene = drop_detections(clean_scene, frames=range(30, 33), object_ids=[1])
    truth = clean_scene.trajectories[1]
    decoys = [Detection(f, BoundingBox(*(truth[f - 1] + [8.0, 5.0, 0.0, 0.0])), confidence=0.1)
              for f in (34, 35, 36)]
    ranked = []
    original = scoring.sample_candidates

    def recorded(tracklets, gaps, lookahead, *args):
        candidates = original(tracklets, gaps, lookahead, *args)
        if args[-1] == 33:
            ranked.append([(c.tracklet_id, c.branch_index, c.iou_score, c.rejected) for c in candidates])
        return candidates

    monkeypatch.setattr(scoring, "sample_candidates", recorded)

    def run(detections, config):
        ranked.clear()
        result = run_sequence(detections, scene.meta, weights, book, config)
        return result.frame_results, list(ranked)

    plain = run(scene.detections, config)
    assert plain[1], "no branches were ranked on frame 33"
    assert run(scene.detections + decoys, config) == plain
    # kept, the decoys do move the ranking, so the check above can fail
    admitted = run(scene.detections + decoys, TrackerConfig(min_detection_confidence=0.0))
    assert admitted[1] != plain[1]


def test_process_frame_rejects_out_of_order_frames(tiny_model, clean_scene):
    weights, book = tiny_model
    state = make_state(weights, book, clean_scene.geometry, TrackerConfig(),
                       frame_rate=clean_scene.meta.frame_rate)
    process_frame(state, 1, np.array([[10.0, 10.0, 40.0, 40.0]]))
    with pytest.raises(SequencingError):
        process_frame(state, 3, np.zeros((0, 4)))


def test_lookahead_comes_from_the_config_or_the_frame_rate(tiny_model, clean_scene):
    weights, book = tiny_model

    def lookahead(t_trs, frame_rate):
        config = TrackerConfig(inpaint=InpaintParams(t_trs=t_trs))
        return make_state(weights, book, clean_scene.geometry, config, frame_rate=frame_rate).t_trs

    # a configured 0 means no lookahead; only null derives it from the frame rate
    assert lookahead(0, 30.0) == 0 == InpaintParams(t_trs=0).lookahead_frames(30.0)
    assert lookahead(5, 10.0) == 5
    assert lookahead(None, 30.0) == 3 and lookahead(None, 10.0) == 2


def test_instant_birth_confirmation(tiny_model, clean_scene):
    weights, book = tiny_model
    state = make_state(weights, book, clean_scene.geometry, TrackerConfig(birth_confirmation=1),
                       frame_rate=clean_scene.meta.frame_rate)
    fr = process_frame(state, 1, np.array([[10.0, 10.0, 40.0, 40.0]]))
    assert len(fr.committed) == 1
    assert fr.born == (1,)


def test_gate_blocks_expensive_matches(tiny_model, clean_scene):
    weights, book = tiny_model
    # an absurdly tight gate forbids every match, so each frame's detections
    # spawn fresh tentative tracklets that die unconfirmed
    result = run_sequence(clean_scene.detections, clean_scene.meta, weights, book,
                          TrackerConfig(gate_factor=1e-12))
    assert result.tracklets == []


def test_births_share_the_cold_start_without_aliasing(tiny_model, clean_scene):
    # A newborn holds the bits of the zero velocity stepped from the zero
    # state; advancing one newborn leaves another's state and dist untouched.
    weights, book = tiny_model
    geometry = clean_scene.geometry
    state = make_state(weights, book, geometry, TrackerConfig(), frame_rate=clean_scene.meta.frame_rate)
    fr = process_frame(state, 1, np.array([[100.0, 100.0, 40.0, 40.0], [600.0, 300.0, 40.0, 40.0]]))
    assert fr.born == (1, 2)
    a, b = state.tracklets
    zero = np.zeros((1, weights.config.hidden_dim))
    hidden, cell, probs = step(weights, zero, zero, np.zeros((1, 4)))
    for t in (a, b):
        assert np.array_equal(t.state.hidden, hidden[0])
        assert np.array_equal(t.state.cell, cell[0])
        assert np.array_equal(t.dist, probs[0])
        assert len(t.boxes) == 1
        assert not t.dist.flags.writeable and not t.state.hidden.flags.writeable

    kept = (b.state, b.state.hidden.copy(), b.state.cell.copy(), b.dist.copy())
    advance([a], np.array([[104.0, 102.0, 40.0, 40.0]]), 2, geometry, weights)
    assert not np.array_equal(a.dist, kept[3])
    assert b.state is kept[0]
    assert np.array_equal(b.state.hidden, kept[1])
    assert np.array_equal(b.state.cell, kept[2])
    assert np.array_equal(b.dist, kept[3])
    assert np.array_equal(state.cold_start[1], probs[0])


def test_one_model_step_per_frame_and_none_for_births(tiny_model, clean_scene, monkeypatch):
    weights, book = tiny_model
    scene = drop_detections(clean_scene, frames=range(30, 33), object_ids=[1, 4])
    state = make_state(weights, book, scene.geometry, TrackerConfig(), frame_rate=scene.meta.frame_rate)
    rows = []
    real_step = scoring.step

    def counted(weights, hidden, cell, deltas):
        rows.append(hidden.shape[0])
        return real_step(weights, hidden, cell, deltas)

    monkeypatch.setattr(scoring, "step", counted)
    by_frame = detection_arrays(scene.detections, 0.0)
    fr = process_frame(state, 1, by_frame[1])
    assert len(fr.born) == 6 and rows == []  # births make no model call
    for frame_index in range(2, scene.meta.length + 1):
        future = [by_frame.get(frame_index + k, np.zeros((0, 4))) for k in (1, 2, 3)]
        fr = process_frame(state, frame_index, by_frame.get(frame_index, np.zeros((0, 4))), future)
        # one step, over every tracklet matched in either pass
        matched = [t for t in state.tracklets
                   if t.last_frame == frame_index and t.tracklet_id not in fr.born]
        assert rows[frame_index - 2:] == [len(matched)]
        if frame_index == 33:
            assert any(t.boxes[-2].source == SOURCE_INPAINTED for t in matched)


def _object_boxes(scene, obj):
    """Ground-truth (x, y, w, h) rows of one object, frame 1 first (clean scenes detect them exactly)."""
    return scene.trajectories[obj]


@pytest.mark.parametrize("termination_gap", [1, 4, 10])
def test_confirmed_tracklet_terminates_after_exactly_the_allowed_gap(tiny_model, clean_scene,
                                                                     termination_gap):
    weights, book = tiny_model
    state = make_state(weights, book, clean_scene.geometry, TrackerConfig(termination_gap=termination_gap),
                       frame_rate=clean_scene.meta.frame_rate)
    boxes = _object_boxes(clean_scene, 1)
    last = 8
    terminated_on = []
    for frame_index in range(1, last + termination_gap + 4):
        dets = boxes[frame_index - 1 : frame_index] if frame_index <= last else np.zeros((0, 4))
        fr = process_frame(state, frame_index, dets)
        if frame_index <= last:
            assert [tid for tid, _, _ in fr.committed] == ([1] if frame_index >= 2 else [])
        terminated_on += [frame_index] * len(fr.terminated)
        assert fr.terminated in ((), (1,))
    assert terminated_on == [last + termination_gap + 1]
    assert [t.tracklet_id for t in state.finished] == [1]
    assert state.finished[0].status == STATUS_TERMINATED and state.tracklets == []


def test_first_online_commit_comes_on_the_confirming_detection(tiny_model, clean_scene):
    weights, book = tiny_model
    state = make_state(weights, book, clean_scene.geometry, TrackerConfig(birth_confirmation=3),
                       frame_rate=clean_scene.meta.frame_rate)
    boxes = _object_boxes(clean_scene, 2)
    results = [process_frame(state, f, boxes[f - 1 : f]) for f in range(1, 6)]
    assert [fr.born for fr in results] == [(1,), (), (), (), ()]
    assert [fr.committed for fr in results[:2]] == [(), ()]
    for frame_index, fr in enumerate(results[2:], start=3):
        assert fr.committed == ((1, BoundingBox(*boxes[frame_index - 1]), SOURCE_DETECTED),)


def test_tentative_tracklet_that_misses_once_never_emits(tiny_model, clean_scene):
    weights, book = tiny_model
    config = TrackerConfig(birth_confirmation=3)
    state = make_state(weights, book, clean_scene.geometry, config, frame_rate=clean_scene.meta.frame_rate)
    boxes = _object_boxes(clean_scene, 1)
    clutter = np.array([850.0, 20.0, 40.0, 40.0])
    clutter_frames = {3, 4, 6}  # matched once on frame 4, missed on frame 5
    online = []
    for frame_index in range(1, 12):
        dets = np.array([boxes[frame_index - 1]] + ([clutter] if frame_index in clutter_frames else []))
        online.append(process_frame(state, frame_index, dets))
    assert online[2].born == (2,) and online[3].born == ()  # frame 4 extends tracklet 2
    assert 2 not in [t.tracklet_id for t in state.tracklets]
    assert online[5].born == (3,)
    assert all(tid == 1 for fr in online for tid, _, _ in fr.committed)

    detections = [Detection(f, BoundingBox(*box), 1.0)
                  for f in range(1, 12)
                  for box in [boxes[f - 1]] + ([clutter] if f in clutter_frames else [])]
    result = run_sequence(detections, clean_scene.meta, weights, book, config)
    assert [t.tracklet_id for t in result.tracklets] == [1]
    assert all(box != BoundingBox(*clutter) for fr in result.frame_results for _, box, _ in fr.committed)


def test_pass_two_reattach_commits_its_detection_online(tiny_model, clean_scene):
    weights, book = tiny_model
    scene = drop_detections(clean_scene, frames=range(30, 33), object_ids=[1])
    result = run_sequence(scene.detections, scene.meta, weights, book, TrackerConfig())
    [bridged] = [t for t in result.tracklets
                 if any(tb.source == SOURCE_INPAINTED for tb in t.boxes)]
    tid = bridged.tracklet_id
    by_frame = {tb.frame: tb for tb in bridged.boxes}
    assert by_frame[33].source == SOURCE_DETECTED
    online = {fr.frame: fr for fr in result.online_results}
    assert (tid, BoundingBox(*by_frame[33].box), SOURCE_DETECTED) in online[33].committed
    for frame_index in (30, 31, 32):
        assert tid not in [row[0] for row in online[frame_index].committed]
    assert tid not in online[33].born


@pytest.mark.parametrize("emit_inpainted", [True, False])
def test_final_emission_born_and_terminated_follow_the_emitted_boxes(tiny_model, clean_scene,
                                                                     emit_inpainted):
    weights, book = tiny_model
    scene = drop_detections(clean_scene, frames=range(30, 33), object_ids=[1, 4])
    scene = drop_detections(scene, frames=range(50, 53), object_ids=[2])
    scene = drop_detections(scene, frames=range(20, 81), object_ids=[3])
    config = TrackerConfig(emit_inpainted=emit_inpainted)
    result = run_sequence(scene.detections, scene.meta, weights, book, config)
    assert any(tb.source == SOURCE_INPAINTED for t in result.tracklets for tb in t.boxes)

    first, final = {}, {}
    for t in result.tracklets:
        frames = [tb.frame for tb in t.boxes if emit_inpainted or tb.source == SOURCE_DETECTED]
        first[t.tracklet_id], final[t.tracklet_id] = frames[0], frames[-1]
    assert min(final.values()) < scene.meta.length  # some tracklet ends inside the sequence
    for fr in result.frame_results:
        assert fr.born == tuple(sorted(tid for tid, f in first.items() if f == fr.frame))
        assert fr.terminated == tuple(sorted(tid for tid, f in final.items() if f + 1 == fr.frame))
        emitted = {tid for tid, _, _ in fr.committed}
        assert set(fr.born) <= emitted
        assert not emitted & set(fr.terminated)
    born = [tid for fr in result.frame_results for tid in fr.born]
    assert sorted(born) == sorted(first)
