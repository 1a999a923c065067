"""Train the recurrent motion model on a synthetic scene.

The model reads a tracklet's velocity sequence and emits, per step, four
categorical distributions over the codebook cells for the next velocity.
Training minimizes the next-step negative log-likelihood with teacher
forcing mixed in late in the schedule.

One detail matters more than any hyperparameter here: the codebook must be
fit on velocities carrying the same jitter the training schedule applies.
Fit it on clean tracks and the cells span a fraction of what training
consumes, so most targets clip onto the two edge cells and the model
learns that edge cells dominate.

Run:  python3 demos/02_train_motion_model.py
"""

import numpy as np

from gaptrack import (
    ModelConfig,
    SceneSpec,
    TrainSchedule,
    fit_codebook,
    generate,
    next_step_log_likelihood,
    train,
)

scene = generate(SceneSpec(
    num_objects=6, num_frames=120, width=960.0, height=540.0,
    detection_dropout=0.0, detection_jitter=0.0, false_positive_rate=0.0,
    seed=7, name="train-demo",
))
tracks = scene.training_tracks(window=25)
print(f"scene         {len(scene.trajectories)} objects, {scene.spec.num_frames} frames"
      f" -> {len(tracks)} training windows")

schedule = TrainSchedule(
    iterations=1000, batch_size=16, learning_rate=3e-3, jitter_fraction=0.02, seed=3,
)
book = fit_codebook(tracks, k=32, seed=3, jitter_fraction=schedule.jitter_fraction)
velocities = sum(len(t.boxes) - 1 for t in tracks)
print(f"codebook      fit on {velocities} jittered velocities, k={book.k}")

config = ModelConfig(num_clusters=book.k, hidden_dim=24)
weights, trace = train(tracks, book, config, schedule)
print(f"training      {schedule.iterations} iterations, "
      f"loss {trace[0]:.3f} -> {trace[-1]:.3f}")

# clean tracks quantize against the jitter-wide codebook, so exact per-cell
# prediction is not on the table and argmax accuracy is not a useful bar;
# the bar is a uniform model's log-likelihood, -ln k per component
log_lik = next_step_log_likelihood(weights, tracks, book)
print(f"quality       next-step log-likelihood {log_lik:.3f} per component"
      f" vs {-np.log(book.k):.3f} for a uniform model over {book.k} cells")
