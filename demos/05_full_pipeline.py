"""End-to-end: synthesize, train, track with and without inpainting, score.

This is the library-level equivalent of the command-line pipeline

    gaptrack synth --out seq ...
    gaptrack fit-codebook --out book.npz ...
    gaptrack train --codebook book.npz --out model.npz ...
    gaptrack track --model model.npz --codebook book.npz --sequences seq --out results
    gaptrack evaluate --gt seq --results results/<name>.txt

with a deliberately small budget so it finishes in seconds. A three-frame
detection hole is carved into one object's track to give the inpainting
stage something to repair.

Run:  python3 demos/05_full_pipeline.py
"""

from gaptrack import (
    apply_overrides,
    drop_detections,
    evaluate,
    fit_codebook,
    from_dict,
    generate,
    run_sequence,
    train,
)

cfg = from_dict({
    "seed": 3,
    "codebook": {"size": 24},
    "model": {"hidden_dim": 24},
    "training": {"iterations": 600, "batch_size": 16, "learning_rate": 3e-3, "window": 20},
    "tracker": {"inpaint": {"num_samples": 12}},
    "scene": {
        "num_objects": 5, "num_frames": 100, "width": 960.0, "height": 540.0,
        "detection_dropout": 0.03, "detection_jitter": 0.3,
        "false_positive_rate": 0.05, "name": "pipeline-demo",
    },
})

scene = generate(cfg.scene)
scene = drop_detections(scene, range(40, 43), object_ids=[2])  # the occlusion
print(f"scene         {cfg.scene.num_objects} objects, {cfg.scene.num_frames} frames, "
      f"{len(scene.detections)} detections, object 2 hidden on frames 40-42")

tracks = scene.training_tracks(window=cfg.training.window)
book = fit_codebook(tracks, cfg.codebook.size, cfg.codebook.seed, cfg.training.jitter_fraction)
weights, trace = train(tracks, book, cfg.model_config(book.k), cfg.training)
print(f"model         k={book.k}, loss {trace[0]:.3f} -> {trace[-1]:.3f}")

gt_rows = scene.ground_truth_rows()


def rows_of(result):
    return [
        (fr.frame, tid, box)
        for fr in result.frame_results
        for tid, box, _source in fr.committed
    ]


for label, overrides in (
    ("no inpainting", {"tracker.inpaint.num_samples": 0}),
    ("inpainting on", {}),
):
    run_cfg = apply_overrides(cfg, overrides) if overrides else cfg
    result = run_sequence(scene.detections, scene.meta, weights, book, run_cfg.tracker)
    report = evaluate(gt_rows, rows_of(result))
    print(f"{label:14s} {len(result.tracklets)} tracks, "
          f"MOTA {report.mota:.4f}, IDF1 {report.idf1:.4f}, "
          f"FN {report.false_negatives}, id switches {report.id_switches}")

print("without the sampling pass a tracklet that misses one detection is")
print("stranded: random dropout fragments identities everywhere, and the")
print("carved occlusion returns as a brand-new track. with it, tracklets")
print("ride over single-frame misses and the three-frame hole alike")
