import hashlib
import inspect
import math
import re
import struct
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from divrec.errors import DataError, NumericError
from divrec.network import (
    _HEADER,
    ARCHITECTURE,
    PARAM_COUNT,
    NetworkParams,
    backward,
    dropout,
    forward,
    init_params,
    layer_param_counts,
    load_model,
    param_count,
    save_model,
    softmax,
)
from divrec.training import one_hot

from testlib import BAD_MODELS, build_model_bytes, traced_peak


# --- architecture golden values ---

def test_total_param_count_is_121064():
    assert param_count(init_params(0)) == 121064


def test_per_layer_counts_match_summary_table():
    counts = layer_param_counts(init_params(3))
    assert counts == [3456, 33024, 65792, 16448, 2080, 264]
    # interleave the zero-parameter dropout rows to reproduce the 8-row view
    rows = []
    for spec, count in zip(ARCHITECTURE, counts):
        rows.append(count)
        if spec.dropout_after is not None:
            rows.append(0)
    assert rows == [3456, 33024, 65792, 0, 16448, 0, 2080, 264]


def test_param_count_invariant_across_seeds():
    assert all(param_count(init_params(s)) == 121064 for s in (0, 1, 99))


@pytest.mark.parametrize("values", [np.zeros(PARAM_COUNT + 1),
                                    np.zeros(PARAM_COUNT, dtype=np.float32)],
                         ids=["one-value-more", "float32"])
def test_params_refuse_any_other_length_or_dtype(values):
    with pytest.raises(ValueError, match="expected 121064 float64 values"):
        NetworkParams(values)


# --- initialization ---

def test_init_deterministic_per_seed():
    a, b = init_params(42), init_params(42)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        np.testing.assert_array_equal(ba, bb)


def test_init_seeds_differ():
    a, b = init_params(1), init_params(2)
    assert not np.array_equal(a.weights[0], b.weights[0])


def test_first_layer_weights_within_glorot_bound():
    p = init_params(7)
    bound = math.sqrt(6 / (26 + 128))  # ~0.19739
    assert np.max(np.abs(p.weights[0])) < bound
    assert bound == pytest.approx(0.19738550848793068, abs=1e-15)


def test_biases_start_at_zero():
    assert all(np.all(b == 0.0) for b in init_params(5).biases)


# --- activations ---

def test_softmax_uniform_on_zero_logits():
    np.testing.assert_allclose(softmax(np.zeros(8)), 0.125, rtol=0, atol=1e-15)


def test_softmax_shift_invariance(rng):
    z = rng.normal(0, 3, 8)
    np.testing.assert_allclose(softmax(z), softmax(z + 123.0), rtol=0, atol=1e-12)


def test_softmax_single_hot_logit():
    z = np.array([1.0, 0, 0, 0, 0, 0, 0, 0])
    assert softmax(z)[0] == pytest.approx(math.e / (math.e + 7), abs=1e-12)
    assert softmax(z)[0] == pytest.approx(0.27970806737656245, abs=1e-12)


def test_softmax_normalized_and_positive(rng):
    probs = softmax(rng.normal(0, 10, (5, 8)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-9)
    assert np.all(probs > 0) and np.all(probs < 1)


# --- dropout ---

def test_dropout_inference_is_identity(rng):
    x = rng.normal(0, 1, 64)
    out, mask = dropout(x, 0.2, mode="infer")
    assert out is x
    assert mask is None


def test_dropout_survivors_scaled_by_1_25(rng):
    x = rng.uniform(0.5, 1.0, 256)
    out, mask = dropout(x, 0.2, mode="train", rng=rng)
    kept = mask == 1.0
    np.testing.assert_array_equal(out[kept], x[kept] * 1.25)
    np.testing.assert_array_equal(out[~kept], 0.0)


def test_dropout_preserves_mean_in_expectation():
    rng = np.random.default_rng(0)
    x = np.full(16, 2.0)
    total = 0.0
    trials = 100_000
    outs, _ = dropout(np.tile(x, (trials, 1)), 0.2, mode="train", rng=rng)
    total = outs.mean()
    assert total == pytest.approx(x.mean(), rel=0.01)


# --- forward ---

def test_forward_output_sums_to_one(rng):
    params = init_params(11)
    probs, _ = forward(rng.normal(0, 1, (1, 26)), params)
    assert probs.shape == (1, 8)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_forward_zero_params_uniform(rng):
    params = init_params(0)
    for w in params.weights:
        w[:] = 0.0
    probs, _ = forward(rng.normal(0, 5, (1, 26)), params)
    np.testing.assert_allclose(probs, 0.125, rtol=0, atol=1e-15)


def test_batch_forward_matches_per_row_loop(rng):
    params = init_params(4)
    batch = rng.normal(0, 1, (12, 26))
    batch_probs, _ = forward(batch, params)
    loop_probs = np.concatenate([forward(row[None], params)[0] for row in batch])
    np.testing.assert_allclose(batch_probs, loop_probs, rtol=0, atol=1e-12)


def test_forward_rejects_wrong_input_dim(rng):
    # a single vector is refused too: a batch of one is x[None]
    for shape in [(25,), (3, 25), (26,), (2, 26, 1)]:
        with pytest.raises(DataError, match=rf"expected a \(batch, 26\) matrix, "
                                            rf"got shape {re.escape(str(shape))}"):
            forward(rng.normal(0, 1, shape), init_params(0))


@pytest.mark.parametrize("mode", ["infer", "train"])
def test_forward_refuses_non_finite_output(rng, mode):
    params = init_params(0)
    for w in params.weights:
        w *= 1e100
    with pytest.raises(NumericError, match="network output contains NaN or infinity"):
        forward(rng.normal(0, 1, (3, 26)), params, mode=mode, rng=rng)


def test_network_signatures_are_pinned():
    # forward and dropout draw fresh masks only; a mask-replay parameter has to
    # edit this table to come back
    def parameters(fn):
        return [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]

    empty = inspect.Parameter.empty
    assert parameters(forward) == [("x", empty), ("params", empty), ("mode", "infer"),
                                   ("rng", None)]
    assert parameters(dropout) == [("x", empty), ("rate", 0.2), ("mode", "train"),
                                   ("rng", None)]


# --- backward ---

def test_output_preactivation_gradient_is_p_minus_t(rng):
    params = init_params(2)
    x = rng.normal(0, 1, (1, 26))
    probs, cache = forward(x, params, mode="train", rng=rng)
    target = one_hot(np.array([3]))
    grads = backward(params, cache, target)
    # for a single sample the output bias gradient IS the pre-activation gradient
    np.testing.assert_allclose(grads.biases[-1], probs[0] - target[0], rtol=0, atol=1e-12)
    with pytest.raises(DataError, match=r"targets shape \(8,\) vs output \(1, 8\)"):
        backward(params, cache, target[0])


def test_zero_input_zeroes_first_layer_weight_grads(rng):
    # nonzero biases keep the first-layer ReLUs live; the weight gradient
    # dz . x^T still vanishes because the input is zero
    params = init_params(6)
    for b in params.biases:
        b[:] = rng.uniform(0.1, 0.5, b.shape)
    probs, cache = forward(np.zeros((1, 26)), params, mode="train", rng=rng)
    grads = backward(params, cache, one_hot(np.array([0])))
    np.testing.assert_array_equal(grads.weights[0], 0.0)
    assert np.any(grads.biases[0] != 0.0)


def _preactivation_gated_backward(params, cache, targets):
    """Reference backward: recompute each layer's pre-activation from the
    cached inputs and params, then gate the ReLU derivative on z > 0."""
    layer_inputs = [cache.inputs] + cache.activations[:-1]
    zs = [a @ w.T + b for a, w, b in zip(layer_inputs, params.weights, params.biases)]
    grads = NetworkParams(np.empty(PARAM_COUNT))
    dz = (cache.activations[-1] - targets) / len(targets)
    for i in reversed(range(len(ARCHITECTURE))):
        grads.weights[i][...] = dz.T @ layer_inputs[i]
        grads.biases[i][...] = dz.sum(axis=0)
        if i == 0:
            break
        da = dz @ params.weights[i]
        spec = ARCHITECTURE[i - 1]
        if spec.dropout_after is not None:
            da = da * cache.dropout_masks[i - 1] * (1.0 / (1.0 - spec.dropout_after))
        dz = da * (zs[i - 1] > 0)
    return grads


@pytest.mark.parametrize("batch, seed", [(1, 3), (4, 7), (37, 11), (128, 61)])
def test_backward_bytes_equal_preactivation_gated_reference(batch, seed):
    rng = np.random.default_rng(seed)
    params = init_params(seed)
    for b in params.biases:
        b[:] = rng.normal(0, 0.1, b.shape)
    x = rng.normal(0, 1, (batch, 26))
    targets = one_hot(rng.integers(0, 8, batch))
    _, cache = forward(x, params, mode="train", rng=rng)
    assert all(np.any(m == 0.0) and np.any(m == 1.0) for m in cache.dropout_masks[2:4])
    got = backward(params, cache, targets)
    want = _preactivation_gated_backward(params, cache, targets)
    for g, w in zip(got.weights + got.biases, want.weights + want.biases):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def _reference_forward(x, params, rng):
    """Reference forward: each layer as one expression, with float 0/1 masks
    drawn from ``rng`` in training mode (``rng`` None is inference)."""
    a, activations, masks = x, [], []
    for spec, w, b in zip(ARCHITECTURE, params.weights, params.biases):
        z = a @ w.T + b
        if spec.activation == "softmax":
            e = np.exp(z - np.max(z, axis=-1, keepdims=True))
            a = e / np.sum(e, axis=-1, keepdims=True)
        else:
            a = np.maximum(z, 0.0)
        mask = None
        if rng is not None and spec.dropout_after is not None:
            mask = (rng.random(a.shape) >= 0.2).astype(np.float64)
            a = a * mask * 1.25
        activations.append(a)
        masks.append(mask)
    return a, activations, masks


@pytest.mark.parametrize("mode", ["infer", "train"])
@pytest.mark.parametrize("batch", [1, 37, 128])
def test_forward_bytes_equal_reference_and_nothing_is_written_into(batch, mode):
    rng = np.random.default_rng(batch)
    params = init_params(batch)
    for b in params.biases:
        b[:] = rng.normal(0, 0.1, b.shape)
    x = rng.normal(0, 1, (batch, 26))
    x_before = x.copy()
    probs, cache = forward(x, params, mode=mode, rng=np.random.default_rng(9))
    want, activations, masks = _reference_forward(
        x_before, params, np.random.default_rng(9) if mode == "train" else None)
    assert probs.tobytes() == want.tobytes()
    assert x.tobytes() == x_before.tobytes()
    if mode == "infer":
        assert cache is None
        return
    assert cache.inputs.tobytes() == x_before.tobytes()
    assert [a.tobytes() for a in cache.activations] == [a.tobytes() for a in activations]
    for got, ref in zip(cache.dropout_masks, masks):
        assert (got is None) == (ref is None)
        assert got is None or np.array_equal(got, ref)
    # backward reads the cache without writing into it, so a second call on
    # the same cache gives the same bytes
    targets = one_hot(rng.integers(0, 8, batch))
    first, second = backward(params, cache, targets), backward(params, cache, targets)
    assert probs.tobytes() == want.tobytes()
    assert [a.tobytes() for a in cache.activations] == [a.tobytes() for a in activations]
    for g1, g2 in zip(first.weights + first.biases, second.weights + second.biases):
        assert g1.tobytes() == g2.tobytes()


def test_forward_memory_is_two_layers_wide():
    # each layer writes its bias and ReLU into the product it has just made,
    # so inference holds about the widest layer's input and output; training
    # adds the cached layers and one float draw per dropout layer
    params = init_params(0)
    x = np.random.default_rng(0).normal(0, 1, (4096, 26))
    widest = 4096 * 256 * 8
    assert traced_peak(lambda: forward(x, params)) <= 2.5 * widest
    assert traced_peak(lambda: forward(x, params, mode="train",
                                       rng=np.random.default_rng(1))) <= 4.25 * widest


def test_backward_requires_training_cache(rng):
    params = init_params(0)
    _, cache = forward(rng.normal(0, 1, (1, 26)), params, mode="infer")
    assert cache is None  # inference keeps no per-layer arrays
    with pytest.raises(ValueError, match="training-mode"):
        backward(params, cache, one_hot(np.array([0])))


# --- finite-difference oracle: its own layer loop, with the dropout masks
# held fixed, so it does not depend on network.forward ---

_FD_CHUNK = 512  # perturbed entries sent through the later layers at once


def _activate(spec, z, mask):
    """A layer's output for pre-activation rows ``z`` under a fixed mask."""
    if spec.activation == "softmax":
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    a = np.maximum(z, 0.0)
    return a if mask is None else a * mask * (1.0 / (1.0 - spec.dropout_after))


def _losses_from(layer, z, params, targets, masks):
    """Per-row cross-entropy of pre-activation rows ``z`` of ``layer``, run
    through the rest of the network. ``z`` stacks whole copies of the batch,
    so the masks and targets are tiled to match."""
    reps = len(z) // len(targets)
    for i in range(layer, len(ARCHITECTURE)):
        mask = None if masks[i] is None else np.tile(masks[i], (reps, 1))
        a = _activate(ARCHITECTURE[i], z, mask)
        if i + 1 < len(ARCHITECTURE):
            z = a @ params.weights[i + 1].T + params.biases[i + 1]
    return -np.sum(np.tile(targets, (reps, 1)) * np.log(np.maximum(a, 1e-12)), axis=1)


def _mean_loss(params, x, targets, masks) -> float:
    return _losses_from(0, x @ params.weights[0].T + params.biases[0],
                        params, targets, masks).mean()


def _batched_differences(params, x, targets, masks, picks, h=1e-5):
    """Central differences of the mean cross-entropy at the flat entries
    ``picks[t]`` of each tensor ``t`` of ``params.weights + params.biases``.

    Moving W[i][r, c] by +-h moves only column r of layer i's pre-activation,
    by +-h * a_prev[:, c]; moving a bias moves it by +-h. So one tensor's
    perturbations are stacked as a (2K * batch, width) block and sent once
    through the unperturbed later layers, _FD_CHUNK entries at a time.
    """
    inputs = [x]  # each layer's input under the fixed masks
    for i, spec in enumerate(ARCHITECTURE[:-1]):
        z = inputs[-1] @ params.weights[i].T + params.biases[i]
        inputs.append(_activate(spec, z, masks[i]))
    values = []
    for t, pick in enumerate(picks):
        i = t % len(ARCHITECTURE)
        z = inputs[i] @ params.weights[i].T + params.biases[i]
        if t < len(ARCHITECTURE):
            rows, cols = np.divmod(pick, ARCHITECTURE[i].in_dim)
            shifts = h * inputs[i][:, cols].T
        else:
            rows, shifts = pick, np.full((len(pick), len(x)), h)
        out = np.empty(len(pick))
        for lo in range(0, len(pick), _FD_CHUNK):
            r, s = rows[lo:lo + _FD_CHUNK], shifts[lo:lo + _FD_CHUNK]
            k = np.arange(len(r))
            block = np.broadcast_to(z, (2, len(r)) + z.shape).copy()
            block[0, k, :, r] += s
            block[1, k, :, r] -= s
            losses = _losses_from(i, block.reshape(-1, z.shape[1]), params, targets, masks)
            up, down = losses.reshape(2, len(r), len(x)).mean(axis=2)
            out[lo:lo + len(r)] = (up - down) / (2 * h)
        values.append(out)
    return values


def _finite_difference_grads(params, x, targets, masks, h=1e-5):
    """Central differences of the mean cross-entropy at every entry, with the
    dropout masks held fixed."""
    values = _batched_differences(params, x, targets, masks,
                                  [np.arange(t.size) for t in params.weights + params.biases], h)
    # values come in weights + biases order, not in the vector's layer order
    grads = NetworkParams(np.empty(PARAM_COUNT))
    for view, v in zip(grads.weights + grads.biases, values):
        view[...] = v.reshape(view.shape)
    return grads


def assert_gradients_close(analytic, numeric, rel_tol=1e-4):
    """Per-layer gradient comparison against central differences.

    Relative error applies where the gradient is meaningfully nonzero;
    entries killed by ReLU/dropout carry only finite-difference roundoff
    (~1e-11), so they are held to a tight absolute bound instead.
    """
    got, want = analytic.weights + analytic.biases, numeric.weights + numeric.biases
    # zip would cut the comparison to the shorter list, or to nothing
    assert got, "no gradient tensor to compare"
    assert [a.shape for a in got] == [n.shape for n in want]
    for a, n in zip(got, want):
        scale = np.maximum(np.abs(a), np.abs(n))
        live = scale > 1e-6
        if np.any(live):
            assert np.max(np.abs(a[live] - n[live]) / scale[live]) < rel_tol
        assert np.max(np.abs(a - n)) < 1e-8
        norm = max(np.linalg.norm(a), np.linalg.norm(n))
        if norm > 0:
            assert np.linalg.norm(a - n) / norm < rel_tol


def _tensors(weights, biases=()):
    """Loose tensors with the attributes assert_gradients_close reads."""
    return SimpleNamespace(weights=list(weights), biases=list(biases))


def test_gradient_comparison_refuses_containers_that_do_not_match():
    w, b = np.zeros((2, 3)), np.zeros(2)
    for analytic, numeric in [
        (_tensors([]), _tensors([])),  # nothing to compare
        (_tensors([w], [b]), _tensors([w])),  # a tensor missing
        (_tensors([w]), _tensors([w.T])),  # another shape
    ]:
        with pytest.raises(AssertionError):
            assert_gradients_close(analytic, numeric)


def test_gradients_match_finite_differences_at_sampled_entries(rng):
    # the full network with live dropout after layers 3 and 4; a seeded sample
    # of entries per tensor keeps this quick, while the acceptance gate
    # checks every entry
    params = init_params(123)
    x = rng.normal(0, 1, (4, 26))
    targets = one_hot(rng.integers(0, 8, 4))
    _, cache = forward(x, params, mode="train", rng=np.random.default_rng(7))
    assert [m is not None for m in cache.dropout_masks] == [False, False, True, True, False, False]
    assert all(np.any(m == 0.0) for m in cache.dropout_masks[2:4])
    analytic = backward(params, cache, targets)
    masks = cache.dropout_masks

    pick = np.random.default_rng(8)
    h = 1e-5
    tensors = params.weights + params.biases
    picks = [pick.choice(t.size, size=min(t.size, 32), replace=False) for t in tensors]
    sampled_analytic, sampled_numeric = [], []
    for tensor, grad, entries in zip(tensors, analytic.weights + analytic.biases, picks):
        flat = tensor.reshape(-1)
        numeric = []
        for i in entries:
            orig = flat[i]
            flat[i] = orig + h
            up = _mean_loss(params, x, targets, masks)
            flat[i] = orig - h
            down = _mean_loss(params, x, targets, masks)
            flat[i] = orig
            numeric.append((up - down) / (2 * h))
        sampled_analytic.append(grad.reshape(-1)[entries])
        sampled_numeric.append(np.array(numeric))
    assert_gradients_close(_tensors(sampled_analytic), _tensors(sampled_numeric))
    # the batched oracle that the acceptance gate runs agrees with this plain loop
    batched = _batched_differences(params, x, targets, masks, picks, h)
    for fast, plain in zip(batched, sampled_numeric):
        np.testing.assert_allclose(fast, plain, rtol=0, atol=1e-10)


# --- model file ---

def test_model_round_trip(tmp_path):
    params = init_params(21)
    path = tmp_path / "net.model"
    save_model(params, path)
    back = load_model(path)
    for a, b in zip(params.weights + params.biases, back.weights + back.biases):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed, digest", [
    (0, "93ec53d4f3da332a7afb33aa065d448a1ac5ba89d103aba8403357ea6f47a180"),
    (7, "4e86f65de026efb839c7f70e18e94e54ab840dee5a7531fb00c13ce63ce81dbf"),
])
def test_model_file_bytes_are_pinned(tmp_path, seed, digest):
    # no BLAS call makes these bytes, so they hold on any host
    path = tmp_path / "init.model"
    save_model(init_params(seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    save_model(load_model(path), tmp_path / "again.model")
    assert (tmp_path / "again.model").read_bytes() == path.read_bytes()


def test_model_file_matches_hand_built_bytes(tmp_path):
    path = tmp_path / "hand.model"
    path.write_bytes(build_model_bytes(seed=4))
    params = load_model(path)
    assert param_count(params) == 121064
    save_model(params, tmp_path / "again.model")
    assert (tmp_path / "again.model").read_bytes() == path.read_bytes()


def test_model_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.model"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
    with pytest.raises(DataError, match=r"not a model file \(bad magic\)"):
        load_model(path)


def test_model_rejects_corruption(tmp_path):
    params = init_params(1)
    path = tmp_path / "net.model"
    save_model(params, path)
    raw = bytearray(path.read_bytes())
    raw[200] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="checksum mismatch, file corrupt"):
        load_model(path)


def test_model_rejects_truncation(tmp_path):
    params = init_params(1)
    path = tmp_path / "net.model"
    save_model(params, path)
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(DataError, match="checksum mismatch, file corrupt"):
        load_model(path)


def test_model_rejects_every_changed_header_byte(tmp_path):
    path = tmp_path / "net.model"
    save_model(init_params(1), path)
    raw = path.read_bytes()
    payload = raw[8:-4]
    assert len(_HEADER) == 104 and payload.startswith(_HEADER)
    for offset in range(len(_HEADER)):
        changed = bytearray(payload)
        changed[offset] ^= 0xFF
        path.write_bytes(b"DIVMODL1" + changed + struct.pack("<I", zlib.crc32(changed)))
        with pytest.raises(DataError, match="header or size differs"):
            load_model(path)


def _load_bytes(path, data: bytes):
    path.write_bytes(data)
    return load_model(path)


def test_model_rejects_activation_tag_zero(tmp_path):
    # the format defines only tags 1 (relu) and 2 (softmax)
    with pytest.raises(DataError, match="header or size differs"):
        _load_bytes(tmp_path / "linear.model", build_model_bytes(**BAD_MODELS["tag-0"]))


def test_model_rejects_layer_table_that_does_not_chain(tmp_path):
    with pytest.raises(DataError, match="header or size differs"):
        _load_bytes(tmp_path / "unchained.model", build_model_bytes(**BAD_MODELS["unchained"]))


def test_model_rejects_empty_layer_table(tmp_path):
    with pytest.raises(DataError, match="header or size differs"):
        _load_bytes(tmp_path / "empty.model", build_model_bytes(**BAD_MODELS["empty-table"]))


@pytest.mark.parametrize("name", ["10-8", "version-2", "single-26-8", "relu-output",
                                  "trailing-bytes"])
def test_model_rejects_any_other_network(tmp_path, name):
    with pytest.raises(DataError, match="header or size differs"):
        _load_bytes(tmp_path / f"{name}.model", build_model_bytes(**BAD_MODELS[name]))
