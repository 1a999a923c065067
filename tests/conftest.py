"""Shared fixtures: a small clean scene and a lightly trained model.

The trained model is deliberately tiny (small codebook, short training run)
so the whole suite stays fast; tests that need it only check structural
behavior of scoring and tracking, not tracking quality. Quality claims live
in tests/test_acceptance.py with properly sized runs.
"""

import pytest

from gaptrack import (
    ModelConfig,
    SceneSpec,
    TrainSchedule,
    fit_codebook,
    generate,
    train,
)


@pytest.fixture(scope="session")
def clean_scene():
    """Six constant-velocity objects, 80 frames, no detector noise."""
    spec = SceneSpec(
        num_objects=6,
        num_frames=80,
        width=960.0,
        height=540.0,
        motion="constant-velocity",
        detection_dropout=0.0,
        detection_jitter=0.0,
        false_positive_rate=0.0,
        seed=7,
        name="clean",
    )
    return generate(spec)


@pytest.fixture(scope="session")
def tiny_model(clean_scene):
    """(weights, codebook) trained just long enough to beat a uniform model.

    The codebook is fit on box-jittered velocities using the same jitter
    amplitude as training; a codebook fit on the clean velocities would span
    a fraction of what training actually consumes, clipping most training
    targets onto the two edge cells.
    """
    tracks = clean_scene.training_tracks(window=20)
    book = fit_codebook(tracks, k=16, seed=3, jitter_fraction=0.02)

    schedule = TrainSchedule(
        iterations=400,
        batch_size=16,
        learning_rate=3e-3,
        jitter_fraction=0.02,
        seed=3,
    )
    weights, _ = train(tracks, book, ModelConfig(num_clusters=book.k, hidden_dim=24), schedule)
    return weights, book
