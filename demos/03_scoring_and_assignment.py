"""Score detections against tracklets and solve the assignment.

Each live tracklet holds four categorical distributions over the next
velocity's codebook cells. Scoring a detection is just looking up the
log-probability of the velocity that would take the tracklet there. The
per-frame matching minimizes negative log-likelihood over all
tracklet-detection pairs, with a gate forbidding pairs scored worse than
a multiple of the uniform cost.

Run:  python3 demos/03_scoring_and_assignment.py
"""

import numpy as np

from gaptrack import (
    FORBIDDEN,
    ModelConfig,
    SceneSpec,
    TrainSchedule,
    fit_codebook,
    generate,
    make_state,
    solve,
    train,
)
from gaptrack.scoring import advance, cold_start, new_tracklet, score_detection

scene = generate(SceneSpec(
    num_objects=4, num_frames=80, width=960.0, height=540.0,
    detection_dropout=0.0, detection_jitter=0.0, false_positive_rate=0.0,
    seed=7,
))
tracks = scene.training_tracks(window=20)
book = fit_codebook(tracks, k=16, seed=3, jitter_fraction=0.02)
weights, _ = train(
    tracks, book, ModelConfig(num_clusters=book.k, hidden_dim=24),
    TrainSchedule(iterations=400, batch_size=16, learning_rate=3e-3, seed=3),
)

# two tracklets warmed up on the first 20 frames of objects 1 and 2,
# both advanced by one batched model step per frame
start = cold_start(weights)
tracklets = [new_tracklet(obj, 1, scene.trajectories[obj][0], start) for obj in (1, 2)]
for i in range(1, 20):
    advance(tracklets, np.stack([scene.trajectories[t.tracklet_id][i] for t in tracklets]),
            scene.geometry, weights)

# frame 21 offers each object's true box plus one clutter detection,
# one (x, y, w, h) row each
detections = np.array([
    scene.trajectories[1][20],
    scene.trajectories[2][20],
    [700.0, 80.0, 60.0, 90.0],
])

# the tracker's gate, twice the uniform cost at the default gate factor
gate = make_state(weights, book, scene.geometry, frame_rate=scene.meta.frame_rate).gate
scores = score_detection(
    np.stack([t.last_box.box for t in tracklets]),
    np.stack([t.dist for t in tracklets]),
    detections, scene.geometry, book,
)
costs = np.where(-scores <= gate, -scores, FORBIDDEN)

print(f"gate          cost ceiling {gate:.2f} (negative log-likelihood)")
print("cost matrix   rows = tracklets 1, 2; columns = det A (obj 1), det B (obj 2), clutter")
for i, row in enumerate(costs):
    cells = "  ".join(f"{c:9.3f}" if np.isfinite(c) else "  blocked" for c in row)
    print(f"  tracklet {tracklets[i].tracklet_id}: {cells}")

pairs = solve(costs)
names = ["det A", "det B", "clutter"]
print("assignment    " + ", ".join(
    f"tracklet {tracklets[r].tracklet_id} -> {names[c]}" for r, c in pairs
))
unmatched = set(range(len(detections))) - {c for _, c in pairs}
print("unmatched     " + ", ".join(names[j] for j in sorted(unmatched))
      + "  (a tracker would consider it for a new identity)")
