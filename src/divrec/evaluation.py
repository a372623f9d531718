"""Prediction, accuracy, confusion matrix, and per-class metrics.

The eight division labels have a fixed canonical order used everywhere:
files, matrices, and the model's output units. Confusion matrices are
oriented rows = true label, columns = predicted label, so the trace over the
total is the accuracy. Argmax ties break toward the lowest label index.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .features import AggregatedFeature, FeatureTable
from .network import NUM_CLASSES, NetworkParams, forward


DIVISION_NAMES = (
    "Barisal", "Chittagong", "Dhaka", "Khulna",
    "Mymensingh", "Rajshahi", "Rangpur", "Sylhet",
)


def label_from_name(name: str) -> int:
    try:
        return DIVISION_NAMES.index(name)
    except ValueError:
        raise ValueError(f"unknown division {name!r}; expected one of {DIVISION_NAMES}")


def predict(params: NetworkParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inference-mode forward + argmax over an (n, 26) matrix of segment
    vectors; returns (n,) labels and (n, 8) probabilities. Ties resolve to the
    lowest index."""
    probs, _ = forward(x, params, mode="infer")
    return np.argmax(probs, axis=1), probs


def evaluate(params: NetworkParams, records: FeatureTable | list[AggregatedFeature]) -> dict:
    """Score a labeled set, a table or a list of records; returns the report as
    a JSON-ready dict: accuracy, total, labels, confusion and per_class (see
    docs/formats.md). The order of the input records does not matter."""
    table = FeatureTable.of(records)
    if not len(table):
        raise DataError("cannot evaluate an empty sample set")
    y_true = table.labels
    y_pred, _ = predict(params, table.vectors())

    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)

    per_class = []
    for c, name in enumerate(DIVISION_NAMES):
        tp = int(confusion[c, c])
        pred_c = int(confusion[:, c].sum())
        true_c = int(confusion[c, :].sum())
        precision = tp / pred_c if pred_c else 0.0
        recall = tp / true_c if true_c else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append({
            "label": name,
            "support": true_c,
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "precision_defined": pred_c > 0,  # False: no predictions for the class (0/0 -> 0.0)
            "recall_defined": true_c > 0,  # False: the class has no true samples
        })
    return {
        "accuracy": int(np.trace(confusion)) / int(confusion.sum()),
        "total": len(table),
        "labels": list(DIVISION_NAMES),
        "confusion": confusion.tolist(),
        "per_class": per_class,
    }


def confusion_csv(report: dict) -> str:
    """Header of canonical label names, then 8 rows of 8 integer counts."""
    lines = [",".join(report["labels"])]
    lines += [",".join(str(v) for v in row) for row in report["confusion"]]
    return "\n".join(lines) + "\n"
