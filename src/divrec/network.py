"""Fixed dense classifier: 26 -> 128 -> 256 -> 256 -> 64 -> 32 -> 8.

ReLU on every hidden layer, softmax at the output, inverted dropout (rate
0.2) after the third and fourth dense layers. 121,064 trainable scalars.
Forward, backward, and initialization are written directly against numpy in
float64; the model is small enough that precision beats speed.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ModelIncompatible, ShapeMismatch

MODEL_MAGIC = b"DIVMODL1"
MODEL_VERSION = 1

_ACTIVATION_TAGS = {"relu": 1, "softmax": 2}
_TAG_ACTIVATIONS = {v: k for k, v in _ACTIVATION_TAGS.items()}


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"
    dropout_after: float | None = None

    def __post_init__(self) -> None:
        if self.activation not in _ACTIVATION_TAGS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.dropout_after is not None and not 0 < self.dropout_after < 1:
            raise ValueError("dropout rate must lie in (0, 1)")


ARCHITECTURE: tuple[LayerSpec, ...] = (
    LayerSpec(26, 128, "relu"),
    LayerSpec(128, 256, "relu"),
    LayerSpec(256, 256, "relu", dropout_after=0.2),
    LayerSpec(256, 64, "relu", dropout_after=0.2),
    LayerSpec(64, 32, "relu"),
    LayerSpec(32, 8, "softmax"),
)

INPUT_DIM = ARCHITECTURE[0].in_dim
NUM_CLASSES = ARCHITECTURE[-1].out_dim


@dataclass
class NetworkParams:
    """Per-layer (out_dim, in_dim) weight matrices and (out_dim,) biases.

    Doubles as the gradient container: gradients share these shapes.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    layers: tuple[LayerSpec, ...] = ARCHITECTURE


@dataclass
class ForwardCache:
    """Everything backward needs: inputs, pre-activations, activations, masks."""

    inputs: np.ndarray
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    dropout_masks: list[np.ndarray | None]
    mode: str


def init_params(seed: int, layers: tuple[LayerSpec, ...] = ARCHITECTURE) -> NetworkParams:
    """Glorot-uniform weights (bound sqrt(6/(in+out))), zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for spec in layers:
        bound = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        weights.append(rng.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim)))
        biases.append(np.zeros(spec.out_dim))
    return NetworkParams(weights=weights, biases=biases, layers=layers)


def param_count(params: NetworkParams) -> int:
    return sum(w.size + b.size for w, b in zip(params.weights, params.biases))


def layer_param_counts(params: NetworkParams) -> list[int]:
    return [w.size + b.size for w, b in zip(params.weights, params.biases)]


def relu(y: np.ndarray) -> np.ndarray:
    return np.maximum(y, 0.0)


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis; outputs in (0,1), rows sum to 1."""
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def dropout(
    x: np.ndarray,
    rate: float = 0.2,
    mode: str = "train",
    rng: np.random.Generator | None = None,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: returns (output, mask).

    Training mode zeroes each unit with probability ``rate`` and scales
    survivors by 1/(1-rate); inference mode is the identity (mask None).
    A precomputed mask may be supplied to replay a previous pass.
    """
    if mode != "train":
        return x, None
    if mask is None:
        if rng is None:
            raise ValueError("training-mode dropout needs an rng or an explicit mask")
        mask = (rng.random(x.shape) >= rate).astype(np.float64)
    return x * mask * (1.0 / (1.0 - rate)), mask


def forward(
    x: np.ndarray,
    params: NetworkParams,
    mode: str = "infer",
    rng: np.random.Generator | None = None,
    dropout_masks: list[np.ndarray | None] | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the layer chain; returns (probabilities, cache).

    Accepts a single feature vector or a (batch, in_dim) matrix; the output
    keeps the input's leading shape. ``dropout_masks`` replays recorded masks
    (used by gradient checking); otherwise training mode samples fresh ones.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    batch = x[None, :] if squeeze else x
    if batch.ndim != 2 or batch.shape[1] != params.layers[0].in_dim:
        raise ShapeMismatch(
            f"expected input dim {params.layers[0].in_dim}, got shape {x.shape}"
        )

    pre_acts: list[np.ndarray] = []
    acts: list[np.ndarray] = []
    masks: list[np.ndarray | None] = []
    a = batch
    for i, spec in enumerate(params.layers):
        z = a @ params.weights[i].T + params.biases[i]
        pre_acts.append(z)
        a = relu(z) if spec.activation == "relu" else softmax(z)
        if spec.dropout_after is not None and mode == "train":
            replay = dropout_masks[i] if dropout_masks is not None else None
            a, mask = dropout(a, spec.dropout_after, mode, rng, mask=replay)
        else:
            mask = None
        masks.append(mask)
        acts.append(a)

    cache = ForwardCache(
        inputs=batch,
        pre_activations=pre_acts,
        activations=acts,
        dropout_masks=masks,
        mode=mode,
    )
    probs = acts[-1][0] if squeeze else acts[-1]
    return probs, cache


def backward(params: NetworkParams, cache: ForwardCache, targets: np.ndarray) -> NetworkParams:
    """Exact gradients of the mean categorical cross-entropy over the batch.

    Dropout masks recorded in the cache are treated as constants. For a
    softmax output the pre-activation gradient is probabilities - one-hot.
    """
    if cache.mode != "train":
        raise ValueError("backward requires a cache from a training-mode forward")
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[None, :]
    batch_size = cache.inputs.shape[0]
    if targets.shape != cache.activations[-1].shape:
        raise ShapeMismatch(
            f"targets shape {targets.shape} vs output {cache.activations[-1].shape}"
        )

    grads_w: list[np.ndarray] = [np.empty(0)] * len(params.layers)
    grads_b: list[np.ndarray] = [np.empty(0)] * len(params.layers)

    # softmax + cross-entropy collapses to (p - t) at the output pre-activation
    dz = (cache.activations[-1] - targets) / batch_size
    for i in range(len(params.layers) - 1, -1, -1):
        a_prev = cache.inputs if i == 0 else cache.activations[i - 1]
        grads_w[i] = dz.T @ a_prev
        grads_b[i] = dz.sum(axis=0)
        if i == 0:
            break
        da = dz @ params.weights[i]
        spec_prev = params.layers[i - 1]
        mask = cache.dropout_masks[i - 1]
        if mask is not None:
            da = da * mask * (1.0 / (1.0 - spec_prev.dropout_after))
        if spec_prev.activation == "relu":
            da = da * (cache.pre_activations[i - 1] > 0)
        dz = da
    return NetworkParams(weights=grads_w, biases=grads_b, layers=params.layers)


# --- model file (see docs/formats.md) ---

def _pack_payload(params: NetworkParams) -> bytes:
    parts = [struct.pack("<BB", MODEL_VERSION, len(params.layers))]
    for spec in params.layers:
        rate = float("nan") if spec.dropout_after is None else spec.dropout_after
        parts.append(
            struct.pack(
                "<IIBd",
                spec.in_dim,
                spec.out_dim,
                _ACTIVATION_TAGS[spec.activation],
                rate,
            )
        )
    for w, b in zip(params.weights, params.biases):
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return b"".join(parts)


def save_model(params: NetworkParams, path) -> None:
    payload = _pack_payload(params)
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def load_model(path) -> NetworkParams:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != MODEL_MAGIC:
        raise ModelIncompatible(f"{path}: not a model file (bad magic)")
    payload, (checksum,) = raw[8:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(payload) != checksum:
        raise ModelIncompatible(f"{path}: checksum mismatch, file corrupt")

    try:
        version, n_layers = struct.unpack_from("<BB", payload, 0)
        if version != MODEL_VERSION:
            raise ModelIncompatible(f"{path}: unsupported format version {version}")
        pos = 2
        layers = []
        for _ in range(n_layers):
            in_dim, out_dim, tag, rate = struct.unpack_from("<IIBd", payload, pos)
            pos += 17
            if tag not in _TAG_ACTIVATIONS:
                raise ModelIncompatible(f"{path}: unknown activation tag {tag}")
            layers.append(
                LayerSpec(
                    in_dim,
                    out_dim,
                    _TAG_ACTIVATIONS[tag],
                    None if np.isnan(rate) else rate,
                )
            )
        if not layers:
            raise ModelIncompatible(f"{path}: empty layer table")
        for i, (spec, after) in enumerate(zip(layers, layers[1:])):
            if spec.out_dim != after.in_dim:
                raise ModelIncompatible(
                    f"{path}: layer {i} out_dim {spec.out_dim} does not match "
                    f"layer {i + 1} in_dim {after.in_dim}"
                )
        weights, biases = [], []
        for spec in layers:
            w = np.frombuffer(payload, dtype="<f8", count=spec.out_dim * spec.in_dim, offset=pos)
            pos += 8 * spec.out_dim * spec.in_dim
            b = np.frombuffer(payload, dtype="<f8", count=spec.out_dim, offset=pos)
            pos += 8 * spec.out_dim
            weights.append(w.reshape(spec.out_dim, spec.in_dim).copy())
            biases.append(b.copy())
    except (struct.error, ValueError, OverflowError) as exc:
        raise ModelIncompatible(f"{path}: malformed payload") from exc
    if pos != len(payload):
        raise ModelIncompatible(f"{path}: payload size mismatch")
    return NetworkParams(weights=weights, biases=biases, layers=tuple(layers))
