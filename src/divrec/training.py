"""Dataset splitting, Adam, cross-entropy, the epoch loop, and LR scheduling.

The split is a seeded shuffle followed by stratified slicing: global sizes
are exact (80/10/10 of N) and every class lands within one sample of its
proportional share in each of the three parts. Adam uses the standard
bias-corrected moment updates over the parameters' one vector, in slices of
``ADAM_CHUNK`` values; the learning rate halves after three epochs
without a validation-loss improvement of at least 1e-4 (reduce-on-plateau),
floored at 1e-6. Each epoch steps through shuffled batches of ``BATCH_SIZE``
rows (``network.BATCH_SIZE``, which is also the inference forward's block).
These recipe values are module constants; only the learning rate, epoch count
and seed are settable.

Training loss and accuracy are size-weighted means over each epoch's
batches, taken from the training-mode forward every step already runs
(dropout on, weights moving between batches). Validation loss and accuracy
are recomputed over the whole validation set in inference mode at epoch end,
so the reported validation accuracy is exactly (correct predictions) /
(set size).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .atomic import write_whole
from .errors import DataError, NumericError
from .features import AggregatedFeature, FeatureTable
from .network import (
    BATCH_SIZE,
    NUM_CLASSES,
    NetworkParams,
    backward,
    forward,
    init_params,
)


# the training set takes the remaining 80%
TEST_FRACTION = 0.10
VAL_FRACTION = 0.10

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

PLATEAU_FACTOR = 0.5
PLATEAU_PATIENCE = 3
PLATEAU_MIN_DELTA = 1e-4
MIN_LR = 1e-6

# values per slice of Adam's update: a slice's six operands (theta, g, m, v
# and two scratch buffers) take 1.5 MB and stay in a 2 MB L2 cache; over the
# whole 0.97 MB vectors they do not, and the update was no faster than per tensor
ADAM_CHUNK = 1 << 15


@dataclass
class TrainingConfig:
    learning_rate: float = 0.001
    epochs: int = 35
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate <= 1:
            raise ValueError(f"learning_rate must lie in (0, 1], got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AdamState:
    """First and second moments, each a vector laid out like the parameters'
    ``vector``, two scratch buffers of one slice each, plus the live learning
    rate and the step counter."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    lr: float
    t: int = 0


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    learning_rate: float


def init_adam_state(params: NetworkParams, config: TrainingConfig) -> AdamState:
    return AdamState(m=np.zeros_like(params.vector), v=np.zeros_like(params.vector),
                     scratch=np.empty((2, ADAM_CHUNK)), lr=config.learning_rate)


def adam_step(params: NetworkParams, grads: NetworkParams, state: AdamState) -> None:
    """One Adam update of ``params`` and ``state``, in place:
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps). A gradient holding NaN
    or infinity is refused before anything changes."""
    if not np.isfinite(grads.vector).all():
        raise NumericError("gradient contains NaN or infinity")

    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    # the operations of the formula in its order, each written into one of
    # the two scratch buffers: no step allocates, and the bits do not change
    for lo in range(0, params.vector.size, ADAM_CHUNK):
        theta, m, v, g = (a[lo : lo + ADAM_CHUNK]
                          for a in (params.vector, state.m, state.v, grads.vector))
        s1, s2 = state.scratch[:, : theta.size]
        m *= BETA1
        np.multiply(1.0 - BETA1, g, out=s1)
        m += s1
        v *= BETA2
        np.multiply(1.0 - BETA2, g, out=s1)
        s1 *= g
        v += s1
        np.divide(m, bc1, out=s1)
        s1 *= state.lr
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += EPSILON
        s1 /= s2
        theta -= s1


def one_hot(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros(labels.shape + (NUM_CLASSES,))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(probabilities: np.ndarray, targets: np.ndarray) -> float:
    """Mean of -sum_j t_j * log(p_j) with p clamped to >= 1e-12 before the log."""
    p = np.asarray(probabilities, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    per_sample = -np.sum(t * np.log(np.maximum(p, 1e-12)), axis=-1)
    return float(per_sample.mean())


def _largest_remainder(quotas: np.ndarray, target: int) -> np.ndarray:
    """Integer counts summing to target, each within floor/ceil of its quota."""
    base = np.floor(quotas).astype(np.int64)
    leftover = target - int(base.sum())
    order = np.argsort(-(quotas - base), kind="stable")
    base[order[:leftover]] += 1
    return base


def _stratified_counts(class_sizes: np.ndarray) -> np.ndarray:
    """Per-class (train, test, val) counts: exact global totals, +-1 per class.

    Test and val counts start from largest-remainder apportionment; a repair
    pass then shifts single test/val slots between classes until every class's
    train share also sits within one sample of its quota.
    """
    n_total = int(class_sizes.sum())
    n_test = int(round(n_total * TEST_FRACTION))
    n_val = int(round(n_total * VAL_FRACTION))

    test = _largest_remainder(class_sizes * TEST_FRACTION, n_test)
    val = _largest_remainder(class_sizes * VAL_FRACTION, n_val)
    q_test = class_sizes * TEST_FRACTION
    q_val = class_sizes * VAL_FRACTION

    # combined test+val deviation beyond one sample means the train share of
    # that class is off by more than one; shift single slots between classes
    # within one column, choosing the column by the counterparty's deviation
    # so per-column deviations stay inside (-1, 1)
    for _ in range(len(class_sizes) * 4):
        dev_test = test - q_test
        dev_val = val - q_val
        dev = dev_test + dev_val
        worst = int(np.argmax(np.abs(dev)))
        if abs(dev[worst]) <= 1.0 + 1e-9:
            break
        if dev[worst] > 0:
            other = int(np.argmin(dev))
            col = test if dev_test[other] <= dev_val[other] else val
            col[worst] -= 1
            col[other] += 1
        else:
            other = int(np.argmax(dev))
            col = test if dev_test[other] >= dev_val[other] else val
            col[other] -= 1
            col[worst] += 1

    train = class_sizes - test - val
    return np.stack([train, test, val], axis=1)


def split_dataset(
    features: FeatureTable | list[AggregatedFeature],
    config: TrainingConfig,
) -> tuple[FeatureTable, FeatureTable, FeatureTable]:
    """Seeded shuffle + stratified slicing into (train, test, validation)
    tables over the columns of ``features`` (a list is made a table first);
    every one of the NUM_CLASSES labels must have samples."""
    table = FeatureTable.of(features)
    if len(table) < 10:
        raise DataError(f"need at least 10 samples to split, got {len(table)}")
    labels = table.labels
    missing = sorted(set(range(NUM_CLASSES)) - set(labels.tolist()))
    if missing:
        raise DataError(f"no samples for label(s) {missing}")

    rng = np.random.default_rng([config.seed, 0])
    order = rng.permutation(len(table))
    # each class's members in the order the permutation visits them
    by_label = [order[labels[order] == c] for c in range(NUM_CLASSES)]

    counts = _stratified_counts(np.array([m.size for m in by_label], dtype=np.int64))

    train, test, val = [], [], []
    for members, (n_tr, n_te, n_va) in zip(by_label, counts):
        train.append(members[:n_tr])
        test.append(members[n_tr : n_tr + n_te])
        val.append(members[n_tr + n_te : n_tr + n_te + n_va])
    return tuple(table.take(np.concatenate(part)) for part in (train, test, val))


@dataclass
class PlateauScheduler:
    """Halve the rate after PLATEAU_PATIENCE epochs without val-loss improvement."""

    best: float = float("inf")
    bad_epochs: int = 0

    def update(self, val_loss: float, lr: float) -> float:
        """The rate for the next epoch, given this epoch's ``val_loss`` and ``lr``."""
        if val_loss < self.best - PLATEAU_MIN_DELTA:
            self.best = val_loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= PLATEAU_PATIENCE:
                self.bad_epochs = 0
                return max(MIN_LR, lr * PLATEAU_FACTOR)
        return lr


def _evaluate_arrays(params: NetworkParams, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    probs, _ = forward(x, params, mode="infer")
    loss = cross_entropy(probs, one_hot(y))
    acc = float(np.mean(np.argmax(probs, axis=1) == y))
    return loss, acc


def train(
    features: FeatureTable | list[AggregatedFeature],
    config: TrainingConfig,
) -> tuple[NetworkParams, list[EpochMetrics]]:
    """Full training run; returns final parameters and the per-epoch history.
    Each batch's vectors are gathered from the columns and only its targets
    are one-hot encoded, so no copy of the whole training set is made; a
    step's forward cache, probabilities and targets are released before the
    next step's forward."""
    train_set, _, val_set = split_dataset(features, config)
    y_train = train_set.labels
    x_val, y_val = val_set.vectors(), val_set.labels

    params = init_params(config.seed)
    state = init_adam_state(params, config)
    grads = NetworkParams(np.empty_like(params.vector))  # every step's gradients
    sched = PlateauScheduler()
    shuffle_rng = np.random.default_rng([config.seed, 1])
    dropout_rng = np.random.default_rng([config.seed, 2])

    history: list[EpochMetrics] = []
    n = len(train_set)
    for epoch in range(1, config.epochs + 1):
        perm = shuffle_rng.permutation(n)
        loss_sum, correct = 0.0, 0
        for start in range(0, n, BATCH_SIZE):
            batch = perm[start : start + BATCH_SIZE]
            targets = one_hot(y_train[batch])
            probs, cache = forward(train_set.vectors(batch), params, mode="train",
                                   rng=dropout_rng)
            loss_sum += cross_entropy(probs, targets) * len(batch)
            correct += int(np.count_nonzero(np.argmax(probs, axis=1) == y_train[batch]))
            grads = backward(params, cache, targets, out=grads)
            del targets, probs, cache  # not held through the next step's forward
            adam_step(params, grads, state)

        val_loss, val_acc = _evaluate_arrays(params, x_val, y_val)
        history.append(EpochMetrics(epoch, loss_sum / n, correct / n, val_loss, val_acc, state.lr))
        state.lr = sched.update(val_loss, state.lr)
    return params, history


def write_metrics_csv(history: list[EpochMetrics], path) -> None:
    """CSV history: epoch,train_loss,train_acc,val_loss,val_acc,lr; written whole."""
    with write_whole(path) as raw, io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh:
        fh.write("epoch,train_loss,train_acc,val_loss,val_acc,lr\n")
        for m in history:
            fh.write(
                f"{m.epoch},{m.train_loss:.17g},{m.train_acc:.17g},"
                f"{m.val_loss:.17g},{m.val_acc:.17g},{m.learning_rate:.17g}\n"
            )

