import dataclasses
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrec.errors import DataError, NumericError
from divrec.features import AggregatedFeature
from divrec import training
from divrec.network import PARAM_COUNT, NetworkParams, backward, forward, init_params
from divrec.training import (
    PlateauScheduler,
    TrainingConfig,
    adam_step,
    cross_entropy,
    init_adam_state,
    one_hot,
    split_dataset,
    train,
    write_metrics_csv,
)

from testlib import traced_peak
from test_network import _preactivation_gated_backward


def make_records(class_sizes, rng=None, spread=0.25):
    """Labeled features; with an rng they form 8 well-separated Gaussian blobs."""
    rng = rng or np.random.default_rng(0)
    centers = np.random.default_rng(2024).normal(0.0, 3.0, (8, 26))
    records = []
    for label, size in enumerate(class_sizes):
        for i in range(size):
            vec = centers[label] + rng.normal(0.0, spread, 26)
            records.append(AggregatedFeature(vec, label, f"c{label}_s{i}"))
    return records


# --- split ---

FULL_SCALE_SIZES = [2400, 2200, 2150, 2100, 2050, 2000, 1950, 1880]  # sums to 16730


def test_split_16730_gives_13384_1673_1673():
    records = make_records(FULL_SCALE_SIZES)
    config = TrainingConfig(seed=1)
    train_set, test_set, val_set = split_dataset(records, config)
    assert (len(train_set), len(test_set), len(val_set)) == (13384, 1673, 1673)


def test_split_stratification_within_one_sample():
    records = make_records(FULL_SCALE_SIZES)
    parts = split_dataset(records, TrainingConfig(seed=3))
    for part, frac in zip(parts, (0.8, 0.1, 0.1)):
        by_label = Counter(r.label for r in part)
        for label, size in enumerate(FULL_SCALE_SIZES):
            assert abs(by_label[label] - size * frac) <= 1.0 + 1e-9


def test_split_deterministic():
    records = make_records([30, 25, 20, 15, 12, 11, 10, 10])
    a = split_dataset(records, TrainingConfig(seed=9))
    b = split_dataset(records, TrainingConfig(seed=9))
    for pa, pb in zip(a, b):
        assert [r.source_id for r in pa] == [r.source_id for r in pb]


def test_split_is_exact_partition():
    records = make_records([30, 25, 20, 15, 12, 11, 10, 10])
    parts = split_dataset(records, TrainingConfig(seed=5))
    ids = [r.source_id for part in parts for r in part]
    assert sorted(ids) == sorted(r.source_id for r in records)


def test_split_missing_class_raises():
    records = make_records([10, 10, 10, 10, 10, 10, 10, 0])
    with pytest.raises(DataError, match=r"no samples for label\(s\) \[7\]"):
        split_dataset(records, TrainingConfig(seed=0))


def test_split_too_few_samples_raises():
    records = make_records([1, 1, 1, 1, 1, 1, 1, 1])
    with pytest.raises(DataError):
        split_dataset(records, TrainingConfig(seed=0))


def test_config_has_only_the_settable_fields():
    names = [f.name for f in dataclasses.fields(TrainingConfig)]
    assert names == ["learning_rate", "epochs", "seed"]


@pytest.mark.parametrize("kwargs", [
    {"seed": -1},
    {"learning_rate": math.nan},
], ids=["seed", "nan-learning-rate"])
def test_config_rejects_invalid_values(kwargs):
    with pytest.raises(ValueError):
        TrainingConfig(**kwargs)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=60), min_size=8, max_size=8),
    st.integers(min_value=0, max_value=2**31),
)
def test_split_properties_hold_for_random_class_sizes(sizes, seed):
    if sum(sizes) < 10:
        sizes = [s + 2 for s in sizes]
    records = make_records(sizes)
    config = TrainingConfig(seed=seed)
    train_set, test_set, val_set = split_dataset(records, config)
    n = sum(sizes)
    assert len(test_set) == round(n * 0.1)
    assert len(val_set) == round(n * 0.1)
    assert len(train_set) == n - len(test_set) - len(val_set)
    ids = sorted(r.source_id for part in (train_set, test_set, val_set) for r in part)
    assert ids == sorted(r.source_id for r in records)
    for part, frac in ((train_set, 0.8), (test_set, 0.1), (val_set, 0.1)):
        by_label = Counter(r.label for r in part)
        for label, size in enumerate(sizes):
            assert abs(by_label[label] - size * frac) <= 1.0 + 1e-9


# --- cross entropy ---

def test_perfect_prediction_zero_loss():
    p = np.zeros(8)
    p[2] = 1.0
    assert cross_entropy(p, one_hot(np.array([2]))[0]) == 0.0


def test_uniform_prediction_is_ln8():
    loss = cross_entropy(np.full(8, 0.125), one_hot(np.array([5]))[0])
    assert loss == pytest.approx(math.log(8), abs=1e-9)
    assert loss == pytest.approx(2.0794415416798357, abs=1e-9)


def test_batch_loss_is_mean_of_per_sample(rng):
    probs = rng.dirichlet(np.ones(8), size=16)
    labels = rng.integers(0, 8, 16)
    targets = one_hot(labels)
    oracle = sum(-math.log(max(probs[i, labels[i]], 1e-12)) for i in range(16)) / 16
    assert cross_entropy(probs, targets) == pytest.approx(oracle, abs=1e-12)


def test_loss_clamps_zero_probability():
    p = np.zeros(8)
    p[0] = 1.0
    loss = cross_entropy(p, one_hot(np.array([7]))[0])
    assert loss == pytest.approx(-math.log(1e-12), rel=1e-12)


# --- adam ---

def _scalar_params(value: float) -> NetworkParams:
    """The network's layout, all zeros but ``value`` at weights[0][0, 0].
    Adam moves an entry whose gradient stays 0 by 0 / (0 + eps) = 0, so with
    ``_scalar_grads`` that entry follows the scalar recurrence bit for bit."""
    params = NetworkParams(np.zeros(PARAM_COUNT))
    params.weights[0][0, 0] = value
    return params


_scalar_grads = _scalar_params


def test_zero_gradient_keeps_params():
    params = _scalar_params(1.0)
    state = init_adam_state(params, TrainingConfig())
    adam_step(params, _scalar_grads(0.0), state)
    assert params.weights[0][0, 0] == 1.0
    assert state.t == 1


def test_first_step_magnitude_is_learning_rate():
    for g in (0.5, -3.0, 100.0):
        params = _scalar_params(1.0)
        state = init_adam_state(params, TrainingConfig())
        adam_step(params, _scalar_grads(g), state)
        step = 1.0 - params.weights[0][0, 0]
        assert abs(abs(step) - 0.001) < 1e-6
        assert math.copysign(1, step) == math.copysign(1, g)


def reference_adam_quadratic(theta0, steps, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Hand-rolled scalar reference for f(theta) = theta^2."""
    theta, m, v = theta0, 0.0, 0.0
    out = []
    for t in range(1, steps + 1):
        g = 2.0 * theta
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(theta)
    return out


def _quadratic_trajectory(steps: int) -> list[float]:
    """Adam's theta after each of ``steps`` steps on f(theta) = theta^2 from
    1.0, as the acceptance gate's optimizer oracle runs it."""
    params = _scalar_params(1.0)
    state = init_adam_state(params, TrainingConfig())
    trajectory = []
    for _ in range(steps):
        theta = params.weights[0][0, 0]
        adam_step(params, _scalar_grads(2.0 * theta), state)
        trajectory.append(params.weights[0][0, 0])
    return trajectory


def test_three_steps_on_quadratic_match_reference():
    trajectory = _quadratic_trajectory(3)
    reference = reference_adam_quadratic(1.0, 3)
    np.testing.assert_allclose(trajectory, reference, rtol=0, atol=1e-12)
    # frozen values from the scalar reference
    np.testing.assert_allclose(
        trajectory,
        [0.999000000005, 0.99800002621383432, 0.99700009606514084],
        rtol=0,
        atol=1e-12,
    )


def test_ten_steps_on_quadratic_bytes_are_pinned():
    # elementwise arithmetic only, so these bits hold on any host
    assert np.array(_quadratic_trajectory(10), dtype="<f8").tobytes().hex() == (
        "173717d9cef7ef3fa3db3fc09defef3f2aadd6be6ce7ef3f2b8d2ede3bdfef3f73398b270bd7ef3f"
        "df271ca4daceef3f5f8df75caac6ef3f6599155b7abeef3f22ee4ba74ab6ef3f125d494a1baeef3f")


def test_steps_on_the_paper_network_equal_the_formula_bit_for_bit():
    params = init_params(4)
    reference = [p.copy() for p in params.weights + params.biases]
    m = [np.zeros_like(p) for p in reference]
    v = [np.zeros_like(p) for p in reference]
    state = init_adam_state(params, TrainingConfig())
    rng = np.random.default_rng(9)
    for t in range(1, 31):
        grads = NetworkParams(np.empty(PARAM_COUNT))
        for g in grads.weights + grads.biases:
            g[...] = rng.normal(0.0, 0.1, g.shape)
        adam_step(params, grads, state)
        for theta, m_i, v_i, g in zip(reference, m, v, grads.weights + grads.biases):
            m_i[:] = 0.9 * m_i + (1.0 - 0.9) * g
            v_i[:] = 0.999 * v_i + (1.0 - 0.999) * g * g
            theta -= 0.001 * (m_i / (1.0 - 0.9**t)) / (np.sqrt(v_i / (1.0 - 0.999**t)) + 1e-8)
    for got, want in zip(params.weights + params.biases, reference):
        assert np.array_equal(got, want)


def test_non_finite_gradient_raises():
    params = _scalar_params(1.0)
    state = init_adam_state(params, TrainingConfig())
    with pytest.raises(NumericError, match="gradient contains NaN or infinity"):
        adam_step(params, _scalar_grads(float("nan")), state)


def test_non_finite_output_bias_gradient_changes_nothing(rng):
    # one NaN in the last tensor of the model order: the step must refuse it
    # before it writes any moment or parameter
    params = init_params(16)
    state = init_adam_state(params, TrainingConfig())
    x, targets = rng.normal(0, 1, (8, 26)), one_hot(rng.integers(0, 8, 8))
    for _ in range(3):  # moments away from zero
        _, cache = forward(x, params, mode="train", rng=rng)
        adam_step(params, backward(params, cache, targets), state)
    _, cache = forward(x, params, mode="train", rng=rng)
    grads = backward(params, cache, targets)
    grads.biases[-1][5] = np.nan
    before = pickle.dumps((params, state))  # every array and counter, by value
    with pytest.raises(NumericError, match="gradient contains NaN or infinity"):
        adam_step(params, grads, state)
    assert pickle.dumps((params, state)) == before
    assert state.t == 3


# --- the per-tensor step, kept as a reference for train's bytes ---

@dataclasses.dataclass
class _ReferenceAdamState:
    m: list
    v: list
    lr: float
    t: int = 0


def _reference_init_adam_state(params, config):
    tensors = params.weights + params.biases
    return _ReferenceAdamState([np.zeros_like(p) for p in tensors],
                               [np.zeros_like(p) for p in tensors], config.learning_rate)


def _reference_adam_step(params, grads, state):
    """Adam one tensor at a time, the 13 operations in the formula's order."""
    for g in grads.weights + grads.biases:
        if not np.all(np.isfinite(g)):
            raise NumericError("gradient contains NaN or infinity")
    state.t += 1
    bc1 = 1.0 - 0.9**state.t
    bc2 = 1.0 - 0.999**state.t
    for theta, m, v, g in zip(params.weights + params.biases, state.m, state.v,
                              grads.weights + grads.biases):
        s1, s2 = np.empty_like(theta), np.empty_like(theta)
        m *= 0.9
        np.multiply(1.0 - 0.9, g, out=s1)
        m += s1
        v *= 0.999
        np.multiply(1.0 - 0.999, g, out=s1)
        s1 *= g
        v += s1
        np.divide(m, bc1, out=s1)
        s1 *= state.lr
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += 1e-8
        s1 /= s2
        theta -= s1


def test_train_bytes_equal_the_per_tensor_reference(monkeypatch):
    # 192 training rows in batches of 40, so each epoch ends on a short batch
    records = make_records([30] * 8, rng=np.random.default_rng(14))
    monkeypatch.setattr(training, "BATCH_SIZE", 40)
    config = TrainingConfig(seed=15, epochs=4)
    params, history = train(records, config)
    monkeypatch.setattr(training, "backward", lambda params, cache, targets, out=None:
                        _preactivation_gated_backward(params, cache, targets))
    monkeypatch.setattr(training, "init_adam_state", _reference_init_adam_state)
    monkeypatch.setattr(training, "adam_step", _reference_adam_step)
    want_params, want_history = train(records, config)
    assert ([t.tobytes() for t in params.weights + params.biases]
            == [t.tobytes() for t in want_params.weights + want_params.biases])
    assert history == want_history


# --- plateau scheduling ---

def _rate_after(val_losses: list[float]) -> float:
    """Feed a validation-loss history to the scheduler, configured as ``train`` does."""
    sched = PlateauScheduler(lr=TrainingConfig().learning_rate)
    for loss in val_losses:
        sched.update(loss)
    return sched.lr


def test_decreasing_loss_keeps_rate():
    assert _rate_after([3.0, 2.5, 2.0, 1.5, 1.0]) == 0.001


def test_flat_loss_halves_rate_at_epoch_four():
    assert _rate_after([1.0, 1.0, 1.0]) == 0.001
    assert _rate_after([1.0, 1.0, 1.0, 1.0]) == 0.0005


def test_improvement_resets_counter():
    losses = [1.0, 1.0, 1.0, 0.5, 0.5, 0.5]  # two bad runs of length 2, no trigger
    assert _rate_after(losses) == 0.001


def test_tiny_improvement_does_not_reset():
    # improvements below min_delta (1e-4) count as stagnation
    losses = [1.0, 1.0 - 5e-5, 1.0 - 6e-5, 1.0 - 7e-5]
    assert _rate_after(losses) == 0.0005


def test_rate_never_drops_below_min():
    losses = [1.0] * 200
    assert _rate_after(losses) == pytest.approx(1e-6)


# --- training loop ---

def test_training_reaches_95_percent_on_separable_clusters():
    rng = np.random.default_rng(6)
    records = make_records([250] * 8, rng=rng)  # 2000 samples, sigma small
    params, history = train(records, TrainingConfig(seed=7))
    assert len(history) == 35
    assert history[-1].val_acc >= 0.95


def test_loss_strictly_decreases_over_first_five_steps():
    rng = np.random.default_rng(8)
    records = make_records([40] * 8, rng=rng)
    x = np.stack([r.vector for r in records])
    targets = one_hot(np.array([r.label for r in records]))
    params = init_params(1)
    state = init_adam_state(params, TrainingConfig())
    dropout_rng = np.random.default_rng(2)

    losses = [cross_entropy(forward(x, params)[0], targets)]
    for _ in range(5):
        _, cache = forward(x, params, mode="train", rng=dropout_rng)
        grads = backward(params, cache, targets)
        adam_step(params, grads, state)
        losses.append(cross_entropy(forward(x, params)[0], targets))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_memorizes_single_repeated_sample():
    # one vector per class, each repeated 80 times
    vecs = np.random.default_rng(3).normal(0, 1, (8, 26))
    records = [AggregatedFeature(vecs[i % 8].copy(), i % 8, f"rep{i}") for i in range(640)]
    config = TrainingConfig(seed=5)
    params, _ = train(records, config)
    # inference-mode loss over the training records: train_loss is taken with
    # dropout on, so it reads higher than what the network has memorized
    train_set, _, _ = split_dataset(records, config)
    probs, _ = forward(np.stack([rec.vector for rec in train_set]), params)
    assert cross_entropy(probs, one_hot(np.array([rec.label for rec in train_set]))) < 1e-3


def test_training_deterministic_and_metrics_counted_independently(tmp_path, monkeypatch):
    rng = np.random.default_rng(10)
    records = make_records([25] * 8, rng=rng)
    config = TrainingConfig(seed=11, epochs=6)

    params_a, hist_a = train(records, config)
    params_b, hist_b = train(records, config)
    assert hist_a == hist_b  # bit-identical metric histories
    for a, b in zip(params_a.weights + params_a.biases, params_b.weights + params_b.biases):
        np.testing.assert_array_equal(a, b)

    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(hist_a, csv_a)
    write_metrics_csv(hist_b, csv_b)
    assert csv_a.read_bytes() == csv_b.read_bytes()

    # independent counting pass over the validation split
    train_set, _, val_set = split_dataset(records, config)
    correct = 0
    for rec in val_set:
        probs, _ = forward(rec.vector[None], params_a)  # one record at a time
        correct += int(np.argmax(probs[0]) == rec.label)
    assert hist_a[-1].val_acc == correct / len(val_set)

    # train_loss and train_acc come from the steps' own training-mode
    # forwards: with one batch per epoch, that is one forward of the initial
    # weights over the shuffled training set, with the run's dropout stream
    n = len(train_set)
    monkeypatch.setattr(training, "BATCH_SIZE", n)
    _, one_epoch = train(records, dataclasses.replace(config, epochs=1))
    perm = np.random.default_rng([config.seed, 1]).permutation(n)
    x = np.stack([rec.vector for rec in train_set])[perm]
    y = np.array([rec.label for rec in train_set])[perm]
    probs, _ = forward(x, init_params(config.seed), mode="train",
                       rng=np.random.default_rng([config.seed, 2]))
    # the size weighting of one batch, kept so the bits match
    assert one_epoch[0].train_loss == cross_entropy(probs, one_hot(y)) * n / n
    assert one_epoch[0].train_acc == int(np.sum(np.argmax(probs, axis=1) == y)) / n


def test_train_peak_memory_at_paper_scale():
    # 16,730 records split to 13,384 training rows: an inference-mode forward
    # over all of them holds about 100 MB of per-layer arrays; batches of 128,
    # the training matrix and the validation pass stay far below 40 MB
    rng = np.random.default_rng(13)
    records = [AggregatedFeature(v, i % 8, f"r{i}")
               for i, v in enumerate(rng.normal(0.0, 1.0, (16730, 26)))]
    peak = traced_peak(lambda: train(records, TrainingConfig(seed=3, epochs=2)))
    assert peak < 40e6, peak


def test_epoch_metrics_fields_sane():
    rng = np.random.default_rng(12)
    records = make_records([20] * 8, rng=rng)
    _, history = train(records, TrainingConfig(seed=1, epochs=3))
    for i, m in enumerate(history, start=1):
        assert m.epoch == i
        assert m.train_loss >= 0 and m.val_loss >= 0
        assert 0 <= m.train_acc <= 1 and 0 <= m.val_acc <= 1
        assert m.learning_rate == 0.001  # no plateau in 3 epochs
