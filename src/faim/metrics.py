"""Classification metrics: accuracy and unweighted macro-F1."""

from __future__ import annotations

import numpy as np

from .errors import InputError


def accuracy_and_macro_f1(preds, labels, n_classes: int | None = None) -> tuple[float, float]:
    """Accuracy and unweighted mean of per-class F1.

    Classes with neither true nor predicted instances are skipped from the
    macro average.
    """
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise InputError(f"prediction shape {preds.shape} != label shape {labels.shape}")
    if preds.size == 0:
        raise InputError("cannot score an empty prediction set")
    if n_classes is None:
        n_classes = int(max(preds.max(), labels.max())) + 1
    accuracy = float((preds == labels).mean())
    f1_scores = []
    for c in range(n_classes):
        tp = int(((preds == c) & (labels == c)).sum())
        fp = int(((preds == c) & (labels != c)).sum())
        fn = int(((preds != c) & (labels == c)).sum())
        if tp + fp + fn == 0:
            continue
        f1_scores.append(2.0 * tp / (2.0 * tp + fp + fn))
    macro_f1 = float(np.mean(f1_scores)) if f1_scores else 0.0
    return accuracy, macro_f1
