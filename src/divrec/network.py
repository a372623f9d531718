"""Fixed dense classifier: 26 -> 128 -> 256 -> 256 -> 64 -> 32 -> 8.

ReLU on every hidden layer, softmax at the output, inverted dropout (rate
0.2) after the third and fourth dense layers; 121,064 float64 scalars, held
as views of one vector in the model file's order. Each layer is computed in
place in the product it has just made, in forward and backward alike. Only a
training-mode forward draws dropout masks and keeps per-layer arrays (with
those bool masks), and only those backward reads. An inference forward runs
the chain over blocks of ``BATCH_SIZE`` rows, so its memory does not grow with
the row count.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .atomic import write_whole
from .errors import DataError, NumericError

MODEL_MAGIC = b"DIVMODL1"
MODEL_VERSION = 1

_ACTIVATION_TAGS = {"relu": 1, "softmax": 2}


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"
    dropout_after: float | None = None


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

# rows per training batch and per inference block: a block's widest layer
# is 256 kB, where a whole (n, 256) product grows with n
BATCH_SIZE = 128

# the model file's fixed header: format version, layer count, then per layer
# in_dim, out_dim, activation tag and dropout rate (NaN for none)
_HEADER = struct.pack("<BB", MODEL_VERSION, len(ARCHITECTURE)) + b"".join(
    struct.pack(
        "<IIBd",
        spec.in_dim,
        spec.out_dim,
        _ACTIVATION_TAGS[spec.activation],
        float("nan") if spec.dropout_after is None else spec.dropout_after,
    )
    for spec in ARCHITECTURE
)
PARAM_COUNT = sum(s.out_dim * (s.in_dim + 1) for s in ARCHITECTURE)
_PAYLOAD_SIZE = len(_HEADER) + 8 * PARAM_COUNT


class NetworkParams:
    """Per-layer (out_dim, in_dim) weight matrices and (out_dim,) biases of
    ARCHITECTURE, as views of one PARAM_COUNT float64 ``vector`` in the model
    file's order: per layer, the weights row-major, then the bias.

    Doubles as the gradient container: gradients share this layout, so Adam
    and the model file each work on one vector.
    """

    def __init__(self, vector: np.ndarray):
        if vector.shape != (PARAM_COUNT,) or vector.dtype != np.float64:
            raise ValueError(f"expected {PARAM_COUNT} float64 values, "
                             f"got shape {vector.shape} of {vector.dtype}")
        self.vector, self.weights, self.biases, pos = vector, [], [], 0
        for spec in ARCHITECTURE:
            end = pos + spec.out_dim * spec.in_dim
            self.weights.append(vector[pos:end].reshape(spec.out_dim, spec.in_dim))
            self.biases.append(vector[end : end + spec.out_dim])
            pos = end + spec.out_dim


@dataclass
class ForwardCache:
    """What ``backward`` reads of a training-mode forward: the (batch, 26)
    inputs, each layer's output, made in place in a new array (after dropout
    where the layer has it), and each layer's bool dropout mask or None."""

    inputs: np.ndarray
    activations: list[np.ndarray]
    dropout_masks: list[np.ndarray | None]


def init_params(seed: int) -> NetworkParams:
    """Glorot-uniform weights (bound sqrt(6/(in+out))), zero biases."""
    rng = np.random.default_rng(seed)
    params = NetworkParams(np.zeros(PARAM_COUNT))
    for spec, w in zip(ARCHITECTURE, params.weights):
        bound = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def param_count(params: NetworkParams) -> int:
    return params.vector.size


def layer_param_counts(params: NetworkParams) -> list[int]:
    return [w.size + b.size for w, b in zip(params.weights, params.biases)]


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis; outputs in (0,1), rows sum to 1."""
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def forward(
    x: np.ndarray,
    params: NetworkParams,
    mode: str = "infer",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the layer chain over a (batch, 26) matrix; returns the (batch, 8)
    probabilities and, in training mode, the cache for ``backward`` (None in
    inference mode, which keeps no per-layer arrays and applies no dropout).
    Training mode needs ``rng`` (a ValueError without it) and draws fresh
    inverted-dropout masks from it, applied in place in the layer's output,
    so the cache holds each layer's output once. Inference mode runs the
    chain over blocks of ``BATCH_SIZE`` rows into one output array; up to
    ``BATCH_SIZE`` rows that is one chain over the whole input. Any input shape other than
    (batch, 26), a single 1-D vector included, is a DataError; an output
    holding NaN or infinity is a NumericError.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != INPUT_DIM:
        raise DataError(f"expected a (batch, {INPUT_DIM}) matrix, got shape {x.shape}")

    cache = None
    if mode == "train":
        if rng is None:
            raise ValueError("training-mode forward needs an rng")
        cache = ForwardCache(inputs=x, activations=[], dropout_masks=[])
    # an overflow shows up as a non-finite output, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if cache is not None:
            out = _chain(x, params, cache, rng)
        else:
            out = np.empty((x.shape[0], NUM_CLASSES))
            for lo in range(0, x.shape[0], BATCH_SIZE):
                out[lo : lo + BATCH_SIZE] = _chain(x[lo : lo + BATCH_SIZE], params)
    if not np.all(np.isfinite(out)):
        raise NumericError("network output contains NaN or infinity")
    return out, cache


def _chain(
    a: np.ndarray,
    params: NetworkParams,
    cache: ForwardCache | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """The layers over rows ``a``; with a ``cache``, dropout from ``rng`` and
    each layer's output and mask appended to it."""
    for i, spec in enumerate(ARCHITECTURE):
        z = a @ params.weights[i].T
        z += params.biases[i]
        a = np.maximum(z, 0.0, out=z) if spec.activation == "relu" else softmax(z)
        if cache is not None:
            mask = None
            if (rate := spec.dropout_after) is not None:
                mask = rng.random(a.shape) >= rate
                a *= mask  # float times bool: the bits of a * mask, with no new array
                a *= 1.0 / (1.0 - rate)
            cache.activations.append(a)
            cache.dropout_masks.append(mask)
    return a


def backward(
    params: NetworkParams,
    cache: ForwardCache,
    targets: np.ndarray,
    out: NetworkParams | None = None,
) -> NetworkParams:
    """Exact gradients of the mean categorical cross-entropy over the batch,
    for (batch, 8) one-hot ``targets`` matching the cached output. They are
    written into ``out`` and returned, or into new arrays when ``out`` is None.

    Dropout masks in the cache are constants; at the softmax output the
    pre-activation gradient is probabilities - one-hot. The ReLU derivative
    is gated on the cached output: a kept unit's relu(z) * 1.25 is positive
    exactly where z > 0, and a dropped unit's gradient is already zero. Each
    step scales in place only the array it has just made, not the cache.
    """
    if cache is None:
        raise ValueError("backward requires a cache from a training-mode forward")
    targets = np.asarray(targets, dtype=np.float64)
    batch_size = cache.inputs.shape[0]
    if targets.shape != cache.activations[-1].shape:
        raise DataError(
            f"targets shape {targets.shape} vs output {cache.activations[-1].shape}"
        )

    grads = NetworkParams(np.empty(PARAM_COUNT)) if out is None else out
    # softmax + cross-entropy collapses to (p - t) at the output pre-activation
    dz = cache.activations[-1] - targets
    dz /= batch_size
    for i in range(len(ARCHITECTURE) - 1, -1, -1):
        a_prev = cache.inputs if i == 0 else cache.activations[i - 1]
        np.matmul(dz.T, a_prev, out=grads.weights[i])
        np.sum(dz, axis=0, out=grads.biases[i])
        if i == 0:
            break
        dz = dz @ params.weights[i]  # now at layer i - 1's output
        mask = cache.dropout_masks[i - 1]
        if mask is not None:
            dz *= mask
            dz *= 1.0 / (1.0 - ARCHITECTURE[i - 1].dropout_after)
        # layer i - 1 is one of layers 0-4, and every one of them is ReLU
        dz *= a_prev > 0
    return grads


# --- model file (see docs/formats.md) ---

def save_model(params: NetworkParams, path) -> None:
    """Write the header, then the parameter vector as it lies in memory.
    Written whole (``atomic.write_whole``): a write that raises leaves
    ``path`` as it was."""
    values = params.vector.astype("<f8", copy=False)
    with write_whole(path) as fh:
        fh.write(MODEL_MAGIC + _HEADER)
        fh.write(values)
        fh.write(struct.pack("<I", zlib.crc32(values, zlib.crc32(_HEADER))))


def load_model(path) -> NetworkParams:
    """Read a model file; only the header ``save_model`` writes, followed by
    exactly the network's weights, is accepted."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != MODEL_MAGIC:
        raise DataError(f"{path}: not a model file (bad magic)")
    payload, (checksum,) = memoryview(raw)[8:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(payload) != checksum:
        raise DataError(f"{path}: checksum mismatch, file corrupt")
    if len(payload) != _PAYLOAD_SIZE or payload[: len(_HEADER)] != _HEADER:
        raise DataError(f"{path}: header or size differs from this network's model")
    values = np.frombuffer(payload, dtype="<f8", offset=len(_HEADER))
    return NetworkParams(values.astype(np.float64))
