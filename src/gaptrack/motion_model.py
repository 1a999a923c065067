"""Autoregressive motion model over quantized box velocities.

A single-layer LSTM consumes continuous velocity inputs (through a ReLU
embedding) and emits, at every step, four independent categorical
distributions over the velocity codebook, one per component, plus a
continuous residual read-out used only as a training regularizer. The
product of the four categoricals is the one-step predictive distribution;
log-likelihoods over a whole tracklet are sums of per-step component terms.

Implemented directly on numpy arrays so the training module can
differentiate every operation by hand. Distributions are (..., 4, K) arrays
and cluster-index quadruples (..., 4) int arrays; :func:`step` is the
inference step over a batch of states, built on :func:`cell_forward`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codebook import Codebook
from .errors import CodebookMismatchError, NumericOverflowError, SchemaError
from .geometry import COMPONENTS

_FILE_MAGIC = "gaptrack-motion-model"
_FILE_VERSION = 1

# Probabilities are floored before taking logs so a confident model can
# never produce -inf scores for an observed transition.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes: codebook arity and LSTM width.

    Inputs and heads have one row per velocity component.
    """

    num_clusters: int
    hidden_dim: int = 48

    def __post_init__(self):
        if self.num_clusters < 1:
            raise ValueError(f"num_clusters must be >= 1, got {self.num_clusters}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")


@dataclass
class ModelWeights:
    """All learnable arrays plus the input standardization constants.

    One categorical head per velocity component. ``input_shift`` and
    ``input_scale`` standardize raw normalized velocities (magnitudes around
    1e-3) before the embedding; without this the network would need
    unreachably large weights to amplify the signal. They are dataset
    statistics fixed by training, not learnable parameters.
    """

    config: ModelConfig
    embed_w: np.ndarray  # (D, H)
    embed_b: np.ndarray  # (H,)
    lstm_w: np.ndarray   # (2H, 4H), gate order [input, forget, output, candidate]
    lstm_b: np.ndarray   # (4H,)
    head_w: np.ndarray   # (C, H, K)
    head_b: np.ndarray   # (C, K)
    res_w: np.ndarray    # (H, D)
    res_b: np.ndarray    # (D,)
    input_shift: np.ndarray  # (D,)
    input_scale: np.ndarray  # (D,), strictly positive

    PARAM_NAMES = ("embed_w", "embed_b", "lstm_w", "lstm_b", "head_w", "head_b", "res_w", "res_b")

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.PARAM_NAMES}


@dataclass(frozen=True)
class RecurrentState:
    """LSTM hidden and cell vectors plus the number of velocities consumed.

    Treated as an immutable value: stepping returns a fresh state and never
    writes into an existing one, so branch exploration can share states
    without copying.
    """

    hidden: np.ndarray
    cell: np.ndarray
    steps_consumed: int = 0


def init_weights(config: ModelConfig, rng: np.random.Generator) -> ModelWeights:
    """Uniform(-1/sqrt(H), 1/sqrt(H)) initialization with forget-gate bias 1."""
    h, d, k = config.hidden_dim, len(COMPONENTS), config.num_clusters
    s = 1.0 / np.sqrt(h)

    def u(*shape):
        return rng.uniform(-s, s, size=shape)

    lstm_b = u(4 * h)
    lstm_b[h : 2 * h] = 1.0
    return ModelWeights(
        config=config,
        embed_w=u(d, h),
        embed_b=u(h),
        lstm_w=u(2 * h, 4 * h),
        lstm_b=lstm_b,
        head_w=u(d, h, k),
        head_b=u(d, k),
        res_w=u(h, d),
        res_b=u(d),
        input_shift=np.zeros(d),
        input_scale=np.ones(d),
    )


def init_state(weights: ModelWeights) -> RecurrentState:
    h = weights.config.hidden_dim
    return RecurrentState(hidden=np.zeros(h), cell=np.zeros(h), steps_consumed=0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: ``exp`` only ever sees ``-|x|``.

    ``1 / (1 + exp(-x))`` for ``x >= 0`` and ``exp(x) / (1 + exp(x))``
    below, both from the one ``z = exp(-|x|)``. ``min(x, -x)`` is ``-|x|``
    that keeps the sign of a NaN, so NaNs pass through unchanged.
    """
    z = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


def lstm_core(weights: ModelWeights, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray) -> dict:
    """One batched recurrent step without the output heads.

    ``x`` is (B, D) continuous velocities, ``h_prev``/``c_prev`` are (B, H).
    Returns every intermediate needed for backprop.
    """
    hdim = weights.config.hidden_dim
    xs = (x - weights.input_shift) / weights.input_scale
    a = xs @ weights.embed_w + weights.embed_b
    e = np.maximum(a, 0.0)
    zcat = np.concatenate([e, h_prev], axis=1)
    pre = zcat @ weights.lstm_w + weights.lstm_b
    gates = _sigmoid(pre[:, : 3 * hdim])
    i, f, o = gates[:, :hdim], gates[:, hdim : 2 * hdim], gates[:, 2 * hdim :]
    g = np.tanh(pre[:, 3 * hdim :])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return {
        "x": x, "xs": xs, "a": a, "e": e, "h_prev": h_prev, "c_prev": c_prev,
        "i": i, "f": f, "o": o, "g": g, "c": c, "tc": tc, "h": h,
    }


def head_outputs(weights: ModelWeights, h: np.ndarray):
    """Cluster log-probabilities, probabilities, and residual read-out.

    ``h`` may be (B, H) or (B, T, H); heads apply along the last axis, so a
    whole sequence of hidden states is projected in one call. The logits
    are one (N, H) @ (H, C*K) product, and the softmax works in place on
    them and on one ``exp`` buffer.
    """
    n_comp, hdim, n_cells = weights.head_w.shape
    log_probs = h.reshape(-1, hdim) @ weights.head_w.transpose(1, 0, 2).reshape(hdim, n_comp * n_cells)
    log_probs = log_probs.reshape(*h.shape[:-1], n_comp, n_cells)
    log_probs += weights.head_b
    log_probs -= log_probs.max(axis=-1, keepdims=True)
    probs = np.exp(log_probs)
    log_probs -= np.log(np.sum(probs, axis=-1, keepdims=True))
    np.exp(log_probs, out=probs)
    res = h @ weights.res_w + weights.res_b
    return log_probs, probs, res


def cell_forward(weights: ModelWeights, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray) -> dict:
    """One batched LSTM step with heads; see :func:`lstm_core`.

    The returned dict additionally holds the per-component cluster
    log-probabilities/probabilities and the residual read-out.
    """
    out = lstm_core(weights, x, h_prev, c_prev)
    log_probs, probs, res = head_outputs(weights, out["h"])
    out["log_probs"] = log_probs
    out["probs"] = probs
    out["res"] = res
    return out


def step(weights: ModelWeights, hidden: np.ndarray, cell: np.ndarray, deltas: np.ndarray):
    """Consume one (B, 4) velocity per row of (B, H) states; return ``(hidden, cell, probs)``.

    ``probs`` is the (B, 4, K) predictive distribution of each row's next
    velocity. Raises :class:`NumericOverflowError` if activations leave the
    finite range.
    """
    out = cell_forward(weights, deltas, hidden, cell)
    if not (np.all(np.isfinite(out["h"])) and np.all(np.isfinite(out["probs"]))):
        raise NumericOverflowError("motion model produced non-finite activations")
    return out["h"], out["c"], out["probs"]


def log_likelihood(dists: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Summed component log-probabilities of cluster-index quadruples.

    ``dists`` is (..., 4, K) and ``cells`` (..., 4); their leading axes
    broadcast. Each selected probability is floored at :data:`PROB_FLOOR`
    before the log, and the four logs are added in component order.
    """
    picked = np.take_along_axis(np.asarray(dists), np.asarray(cells)[..., None], axis=-1)[..., 0]
    logs = np.log(np.maximum(picked, PROB_FLOOR))
    return logs[..., 0] + logs[..., 1] + logs[..., 2] + logs[..., 3]


def sample_batch(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Multinomial draws for (B, C, K) distributions; returns (B, C) int.

    Draws one (B, C) block of uniforms from ``rng`` and inverts the CDF with
    :func:`inverse_cdf`. Top-1 decoding is ``np.argmax`` over the last axis
    instead.
    """
    b, c, _ = probs.shape
    return inverse_cdf(probs, rng.random((b, c)))


def inverse_cdf(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Category of each (B, C) uniform under its (B, C, K) distribution; returns (B, C) int."""
    k = probs.shape[2]
    cdf = np.cumsum(probs, axis=2)
    idx = np.sum(cdf < uniforms[:, :, None], axis=2)
    return np.minimum(idx, k - 1)


def save_weights(path, weights: ModelWeights, codebook_checksum: str) -> None:
    """Write weights plus architecture and the checksum of the paired codebook."""
    meta = {
        "magic": _FILE_MAGIC,
        "version": _FILE_VERSION,
        "config": {
            "num_clusters": weights.config.num_clusters,
            "hidden_dim": weights.config.hidden_dim,
        },
        "codebook_checksum": codebook_checksum,
    }
    np.savez(
        path,
        meta=np.asarray(json.dumps(meta)),
        input_shift=weights.input_shift,
        input_scale=weights.input_scale,
        **weights.params(),
    )


def load_weights(path, codebook: Codebook | None = None) -> ModelWeights:
    """Read weights written by :func:`save_weights`.

    When ``codebook`` is given, loading refuses with
    :class:`CodebookMismatchError` unless its checksum matches the one the
    weights were saved with.
    """
    with np.load(path, allow_pickle=False) as npz:
        if "meta" not in npz:
            raise SchemaError(f"{path}: missing model metadata")
        meta = json.loads(str(npz["meta"][()]))
        if meta.get("magic") != _FILE_MAGIC:
            raise SchemaError(f"{path}: missing model file magic")
        if meta.get("version") != _FILE_VERSION:
            raise SchemaError(f"{path}: unsupported model version {meta.get('version')!r}")
        if codebook is not None and meta.get("codebook_checksum") != codebook.checksum():
            raise CodebookMismatchError(
                "weights were trained against a different codebook than the one supplied"
            )
        config = _config_from_meta(path, meta.get("config"))
        arrays = {}
        for name in ModelWeights.PARAM_NAMES + ("input_shift", "input_scale"):
            if name not in npz:
                raise SchemaError(f"{path}: missing parameter array {name!r}")
            arrays[name] = npz[name]
    expected = _expected_shapes(config)
    for name, arr in arrays.items():
        if arr.shape != expected[name]:
            raise SchemaError(
                f"{path}: parameter {name!r} has shape {arr.shape}, expected {expected[name]}"
            )
    return ModelWeights(config=config, **arrays)


def _config_from_meta(path, data) -> ModelConfig:
    data = dict(data or {})
    # Files written before the input width was fixed record it; only 4 ever worked.
    if data.pop("input_dim", len(COMPONENTS)) != len(COMPONENTS):
        raise SchemaError(f"{path}: model input_dim must be {len(COMPONENTS)}")
    try:
        return ModelConfig(**data)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed model config: {exc}") from None


def _expected_shapes(config: ModelConfig) -> dict[str, tuple]:
    h, d, k = config.hidden_dim, len(COMPONENTS), config.num_clusters
    return {
        "embed_w": (d, h), "embed_b": (h,),
        "lstm_w": (2 * h, 4 * h), "lstm_b": (4 * h,),
        "head_w": (d, h, k), "head_b": (d, k),
        "res_w": (h, d), "res_b": (d,),
        "input_shift": (d,), "input_scale": (d,),
    }
