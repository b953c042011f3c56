import numpy as np
import pytest

from cflat.metrics import (
    average_accuracy,
    bwt,
    cflat_proportion,
    fwt,
    last_accuracy,
    relative_return,
    validate_matrix,
)
from cflat.numcore import SeededRng
from cflat.optim import step_record


def random_matrix(rng, T):
    return [[float(rng.uniform()) for _ in range(t + 1)] for t in range(T)]


def test_last_accuracy_hand_cases():
    assert last_accuracy([[0.9]]) == 0.9
    assert last_accuracy([[1.0], [1.0, 1.0]]) == 1.0
    assert last_accuracy([[0.5], [0.6, 0.8]]) == pytest.approx(0.7)


def test_average_accuracy_hand_cases():
    assert average_accuracy([[0.9]]) == last_accuracy([[0.9]])
    assert average_accuracy([[1.0], [1.0, 0.0]]) == pytest.approx(0.75)
    assert average_accuracy([[0.3], [0.3, 0.3], [0.3, 0.3, 0.3]]) == pytest.approx(0.3)


def test_matrix_validation():
    with pytest.raises(ValueError):
        validate_matrix([])
    with pytest.raises(ValueError):
        validate_matrix([[0.5, 0.5]])
    with pytest.raises(ValueError):
        validate_matrix([[1.5]])


def test_bwt_hand_cases():
    assert bwt([[0.8], [0.8, 0.9]]) == pytest.approx(0.0)
    assert bwt([[0.8], [0.7, 0.9]]) == pytest.approx(-0.1)
    with pytest.raises(ValueError):
        bwt([[0.9]])


def test_bwt_matches_direct_recomputation():
    rng = SeededRng(1)
    for _ in range(20):
        T = int(rng.integers(2, 6))
        a = random_matrix(rng, T)
        direct = sum(a[T - 1][i] - a[i][i] for i in range(T - 1)) / (T - 1)
        assert bwt(a) == pytest.approx(direct, rel=1e-12)


def test_fwt_hand_cases():
    assert fwt([None, 0.5], [0.4, 0.5]) == pytest.approx(0.0)
    assert fwt([None, 0.6], [0.5, 0.5]) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        fwt([None], [0.5])
    with pytest.raises(ValueError, match="missing pre-training"):
        fwt([None, None], [0.5, 0.5])


def test_fwt_matches_direct_recomputation():
    rng = SeededRng(2)
    for _ in range(20):
        T = int(rng.integers(2, 6))
        pre = [None] + [float(rng.uniform()) for _ in range(T - 1)]
        base = [float(rng.uniform()) for _ in range(T)]
        direct = sum(pre[i] - base[i] for i in range(1, T)) / (T - 1)
        assert fwt(pre, base) == pytest.approx(direct, rel=1e-12)


def test_cflat_proportion_endpoints_and_hybrid():
    sgd_trace = step_record(10)[:, 0]
    assert cflat_proportion(sgd_trace) == 0.0
    cflat_trace = step_record(10)[:, 0]
    cflat_trace["used_cflat"] = True
    assert cflat_proportion(cflat_trace) == 1.0
    mixed = step_record(8)[:, 0]
    mixed["used_cflat"][6:] = True
    assert cflat_proportion(mixed) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        cflat_proportion(step_record(0)[:, 0])


def test_relative_return():
    assert relative_return(0.55, 0.5) == pytest.approx(0.1)
    assert relative_return(0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        relative_return(0.5, 0.0)


def test_aggregates_recompute_on_random_matrices():
    rng = SeededRng(3)
    for _ in range(20):
        T = int(rng.integers(1, 6))
        a = random_matrix(rng, T)
        assert last_accuracy(a) == pytest.approx(float(np.mean(a[-1])), rel=1e-12)
        direct = float(np.mean([float(np.mean(row)) for row in a]))
        assert average_accuracy(a) == pytest.approx(direct, rel=1e-12)
