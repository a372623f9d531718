"""Prediction, accuracy, confusion matrix, and per-class metrics.

The eight division labels have a fixed canonical order used everywhere:
files, matrices, and the model's output units. Confusion matrices are
oriented rows = true label, columns = predicted label, so the trace over the
total is the accuracy. Argmax ties break toward the lowest label index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .features import AggregatedFeature
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


@dataclass
class ClassMetrics:
    label: int
    support: int
    precision: float
    recall: float
    f1: float
    precision_defined: bool  # False when no predictions for the class (0/0 -> 0.0)
    recall_defined: bool  # False when the class has no true samples


@dataclass
class MetricsReport:
    accuracy: float
    confusion: np.ndarray  # (8, 8) int counts, rows = truth
    per_class: list[ClassMetrics]
    total: int


def predict(params: NetworkParams, feature: np.ndarray) -> tuple[int, np.ndarray]:
    """Inference-mode forward + argmax; ties resolve to the lowest index."""
    probs, _ = forward(np.asarray(feature, dtype=np.float64), params, mode="infer")
    return int(np.argmax(probs)), probs


def evaluate(params: NetworkParams, records: list[AggregatedFeature]) -> MetricsReport:
    """Score a labeled set; order of the input records does not matter."""
    if not records:
        raise DataError("cannot evaluate an empty sample set")
    x = np.stack([rec.vector for rec in records])
    y_true = np.array([rec.label for rec in records], dtype=np.int64)

    probs, _ = forward(x, params, mode="infer")
    y_pred = np.argmax(probs, axis=1)

    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)

    per_class = []
    for c in range(NUM_CLASSES):
        tp = int(confusion[c, c])
        pred_c = int(confusion[:, c].sum())
        true_c = int(confusion[c, :].sum())
        precision = tp / pred_c if pred_c else 0.0
        recall = tp / true_c if true_c else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(
            ClassMetrics(
                label=c,
                support=true_c,
                precision=precision,
                recall=recall,
                f1=f1,
                precision_defined=pred_c > 0,
                recall_defined=true_c > 0,
            )
        )
    accuracy = int(np.trace(confusion)) / int(confusion.sum())
    return MetricsReport(
        accuracy=accuracy, confusion=confusion, per_class=per_class, total=len(records)
    )


def report_json(report: MetricsReport) -> str:
    """Structured text rendering of a report."""
    body = {
        "accuracy": report.accuracy,
        "total": report.total,
        "labels": list(DIVISION_NAMES),
        "confusion": report.confusion.tolist(),
        "per_class": [
            {
                "label": DIVISION_NAMES[m.label],
                "support": m.support,
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
                "precision_defined": m.precision_defined,
                "recall_defined": m.recall_defined,
            }
            for m in report.per_class
        ],
    }
    return json.dumps(body, indent=2)


def confusion_csv(report: MetricsReport) -> str:
    """Header of canonical label names, then 8 rows of 8 integer counts."""
    lines = [",".join(DIVISION_NAMES)]
    for row in report.confusion:
        lines.append(",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"
