import json

import numpy as np
import pytest

from divrec.errors import DataError
from divrec.evaluation import (
    DIVISION_NAMES,
    confusion_csv,
    evaluate,
    label_from_name,
    predict,
)
from divrec.features import AggregatedFeature
from divrec.network import forward, init_params

from testlib import passthrough_params


def zeroed_params():
    params = init_params(0)
    for w in params.weights:
        w[:] = 0.0
    return params


def class_record(label: int, strength: float = 10.0) -> AggregatedFeature:
    vec = np.zeros(26)
    vec[label] = strength
    return AggregatedFeature(vec, label, f"rec_{label}_{strength}")


# --- labels ---

def test_canonical_label_order():
    assert DIVISION_NAMES == (
        "Barisal", "Chittagong", "Dhaka", "Khulna",
        "Mymensingh", "Rajshahi", "Rangpur", "Sylhet",
    )
    assert label_from_name("Barisal") == 0
    assert label_from_name("Sylhet") == 7
    assert label_from_name("Dhaka") == 2


def test_unknown_label_name_rejected():
    with pytest.raises(ValueError):
        label_from_name("Atlantis")


# --- predict ---

def test_zeroed_params_predict_barisal_by_tie_rule(rng):
    labels, probs = predict(zeroed_params(), rng.normal(0, 1, (5, 26)))
    np.testing.assert_array_equal(labels, 0)
    np.testing.assert_allclose(probs, 0.125, rtol=0, atol=1e-15)


def test_scaling_final_layer_preserves_argmax(rng):
    params = init_params(13)
    x = rng.normal(0, 1, (20, 26))
    labels_before, probs_before = predict(params, x)
    params.weights[-1] *= 2.0
    params.biases[-1] *= 2.0
    labels_after, probs_after = predict(params, x)
    np.testing.assert_array_equal(labels_before, labels_after)
    assert not np.allclose(probs_before, probs_after)


def test_predict_agrees_with_forward_argmax(rng):
    params = init_params(21)
    x = rng.normal(0, 1, (100, 26))
    labels, probs = predict(params, x)
    oracle_probs, _ = forward(x, params, mode="infer")
    np.testing.assert_array_equal(probs, oracle_probs)
    assert labels.shape == (100,) and probs.shape == (100, 8)
    for label, row in zip(labels, oracle_probs):
        assert label == min(j for j in range(8) if row[j] == row.max())


# --- evaluate ---

def test_all_correct_gives_diagonal_matrix():
    records = [class_record(label) for label in range(8) for _ in range(3)]
    report = evaluate(passthrough_params(), records)
    assert report["accuracy"] == 1.0
    np.testing.assert_array_equal(report["confusion"], np.eye(8, dtype=int) * 3)
    for m in report["per_class"]:
        assert m["recall"] == 1.0 and m["precision"] == 1.0 and m["f1"] == 1.0


def test_all_predicted_class_zero():
    records = [class_record(label) for label in range(8)]
    report = evaluate(zeroed_params(), records)
    confusion = np.array(report["confusion"])
    assert confusion[:, 0].sum() == 8
    assert confusion[:, 1:].sum() == 0
    assert report["per_class"][0]["recall"] == 1.0
    for m in report["per_class"][1:]:
        assert m["recall"] == 0.0
        assert not m["precision_defined"]  # no predictions for these classes
    assert report["accuracy"] == 1 / 8


def test_accuracy_is_trace_over_total(rng):
    # random labels against the passthrough model's deterministic predictions
    records = []
    for i in range(200):
        true_label = int(rng.integers(0, 8))
        feature_class = int(rng.integers(0, 8))
        vec = np.zeros(26)
        vec[feature_class] = 5.0
        records.append(AggregatedFeature(vec, true_label, f"r{i}"))
    params = passthrough_params()
    report = evaluate(params, records)

    correct = sum(
        1 for rec in records if predict(params, rec.vector[None])[0][0] == rec.label
    )  # independent counting pass, one record at a time
    assert report["accuracy"] == correct / len(records)
    confusion = np.array(report["confusion"])
    assert report["accuracy"] == np.trace(confusion) / confusion.sum()


def test_row_sums_equal_true_class_counts(rng):
    records = [class_record(int(rng.integers(0, 8))) for _ in range(57)]
    report = evaluate(init_params(4), records)
    expected = np.bincount([r.label for r in records], minlength=8)
    confusion = np.array(report["confusion"])
    np.testing.assert_array_equal(confusion.sum(axis=1), expected)
    assert confusion.sum() == 57 == report["total"]


def test_evaluate_order_independent(rng):
    records = [class_record(int(rng.integers(0, 8))) for _ in range(40)]
    params = init_params(9)
    base = evaluate(params, records)
    shuffled = list(records)
    rng.shuffle(shuffled)
    again = evaluate(params, shuffled)
    assert base == again


def test_empty_set_rejected():
    with pytest.raises(DataError, match="cannot evaluate an empty sample set"):
        evaluate(init_params(0), [])


# --- report rendering ---

def test_report_json_parses_back():
    records = [class_record(label) for label in range(8)]
    report = evaluate(passthrough_params(), records)
    body = json.loads(json.dumps(report, indent=2))
    assert body == report
    assert list(body) == ["accuracy", "total", "labels", "confusion", "per_class"]
    assert list(body["per_class"][0]) == ["label", "support", "precision", "recall", "f1",
                                          "precision_defined", "recall_defined"]
    assert body["accuracy"] == 1.0
    assert body["labels"] == list(DIVISION_NAMES)
    assert len(body["confusion"]) == 8
    assert body["per_class"][0]["label"] == "Barisal"


def test_confusion_csv_shape():
    records = [class_record(label) for label in range(8)]
    report = evaluate(passthrough_params(), records)
    lines = confusion_csv(report).strip().split("\n")
    assert lines[0] == ",".join(DIVISION_NAMES)
    assert len(lines) == 9
    for row in lines[1:]:
        assert len(row.split(",")) == 8
