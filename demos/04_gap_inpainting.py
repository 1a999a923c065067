"""Bridge a detection gap by sampling trajectory continuations.

When a tracklet misses detections for a few frames, the model samples many
continuations of its motion, step by step, each branch drawing velocities
from the predicted distributions. Branches whose boxes fail to overlap any
detection once detections resume are rejected; among survivors, the branch
agreeing best with a short lookahead window wins (ties go to the likelier
branch, then the lower index, as in the tracker) and its boxes fill the gap.

Run:  python3 demos/04_gap_inpainting.py
"""

import numpy as np

from gaptrack import (
    ModelConfig,
    SceneSpec,
    TrainSchedule,
    box_iou,
    fit_codebook,
    generate,
    train,
)
from gaptrack.scoring import (
    InpaintParams,
    advance,
    cold_start,
    inpaint,
    new_tracklet,
    sample_candidates,
)

scene = generate(SceneSpec(
    num_objects=6, num_frames=120, width=960.0, height=540.0,
    detection_dropout=0.0, detection_jitter=0.0, false_positive_rate=0.0,
    seed=7,
))
tracks = scene.training_tracks(window=25)
book = fit_codebook(tracks, k=32, seed=3, jitter_fraction=0.02)
weights, _ = train(
    tracks, book, ModelConfig(num_clusters=book.k, hidden_dim=24),
    TrainSchedule(iterations=600, batch_size=16, learning_rate=3e-3, seed=3),
)

# object 2 is observed through frame 20, then vanishes for 3 frames and
# has a detection again at frame 24; two more frames serve as lookahead
obj = 2
truth = scene.trajectories[obj]
tracklet = new_tracklet(1, 1, truth[0], cold_start(weights))
for i in range(1, 20):
    advance([tracklet], truth[i : i + 1], scene.geometry, weights)

gap = 4  # frames 21, 22, 23 missing; frame 24 is the rejoin
lookahead = [
    np.stack([scene.trajectories[o][f] for o in scene.trajectories])
    for f in range(23, 26)  # every object's box at frames 24, 25, 26
]

params = InpaintParams(num_samples=12, t_trs=2, sampling="multinomial")
# the branches draw from the stream of (params.seed, tracklet 1, frame 21),
# keyed by the first frame of the gap rather than the current frame
candidates = sample_candidates(
    [tracklet], lookahead, params, weights, book, scene.geometry, 24,
)

print(f"sampled       {len(candidates)} branches over a 3-frame gap")
print("branch  fate      lookahead-iou  log-likelihood")
for cand in candidates:
    fate = f"rejected ({cand.rejection_reason})" if cand.rejected else "survived"
    print(f"  {cand.branch_index:3d}   {fate:<28s} {cand.iou_score:5.2f}  "
          f"{cand.sample_log_likelihood:8.2f}")

# the bridge the tracker would commit; the branches come from the store the
# call above filled, so they are the ones printed
[best] = inpaint([tracklet], lookahead, params, weights, book, scene.geometry, 24)

if best is None:
    print("no branch survived; the tracker would keep waiting")
else:
    print(f"winner        branch {best.branch_index}, bridged boxes vs hidden truth:")
    for j in range(gap - 1):
        got, want = best.path[j], truth[20 + j]
        print(f"  frame {21 + j}: x={got[0]:6.1f} (true {want[0]:6.1f})  "
              f"y={got[1]:6.1f} (true {want[1]:6.1f})  iou {float(box_iou(got, want)):.3f}")
