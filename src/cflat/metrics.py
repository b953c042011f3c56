"""Continual-learning scoreboard: accuracy aggregates, transfer, C-Flat share.

The accuracy matrix is a lower-triangular list of rows: a[t][i] is the
accuracy on task i's test set after training task t (0-indexed, i <= t).
BWT/FWT follow the GEM convention since only the names are standard.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "validate_matrix",
    "last_accuracy",
    "average_accuracy",
    "bwt",
    "fwt",
    "cflat_proportion",
    "relative_return",
]


def validate_matrix(a: list[list[float]]) -> None:
    if not a:
        raise ValueError("accuracy matrix is empty")
    for t, row in enumerate(a):
        if len(row) != t + 1:
            raise ValueError(f"row {t} has {len(row)} entries, expected {t + 1}")
        for v in row:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"accuracy {v} outside [0, 1]")


def last_accuracy(a: list[list[float]]) -> float:
    """Mean accuracy over all seen tasks after the final task."""
    validate_matrix(a)
    return float(np.mean(a[-1]))


def average_accuracy(a: list[list[float]]) -> float:
    """Mean over phases of the per-phase seen-task accuracy."""
    validate_matrix(a)
    return float(np.mean([np.mean(row) for row in a]))


def bwt(a: list[list[float]]) -> float:
    """Backward transfer: mean of a[T][i] - a[i][i] over earlier tasks i."""
    validate_matrix(a)
    T = len(a)
    if T < 2:
        raise ValueError("bwt needs at least two tasks")
    return float(np.mean([a[T - 1][i] - a[i][i] for i in range(T - 1)]))


def fwt(pre_train_acc: list[float | None], baseline_acc: list[float]) -> float:
    """Forward transfer: mean of (accuracy on task i before training it) - b[i].

    pre_train_acc[i] is measured right before task i's training (undefined for
    the first task, so entry 0 is ignored and may be None); baseline_acc[i]
    comes from an untrained seeded model.
    """
    T = len(pre_train_acc)
    if T < 2:
        raise ValueError("fwt needs at least two tasks")
    if len(baseline_acc) != T:
        raise ValueError("baseline accuracies must align with tasks")
    vals = []
    for i in range(1, T):
        if pre_train_acc[i] is None:
            raise ValueError(f"missing pre-training evaluation for task {i}")
        vals.append(pre_train_acc[i] - baseline_acc[i])
    return float(np.mean(vals))


def cflat_proportion(trace: np.ndarray) -> float:
    """Fraction of steps that applied the C-Flat update, from a step
    record's (``optim.step_record``) used_cflat column."""
    if not trace.size:
        raise ValueError("trace is empty")
    return float(np.mean(trace["used_cflat"]))


def relative_return(value: float, sgd_value: float) -> float:
    """Improvement over the SGD reference as a fraction of it."""
    if sgd_value == 0:
        raise ValueError("SGD reference is zero")
    return (value - sgd_value) / sgd_value
