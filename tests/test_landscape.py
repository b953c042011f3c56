import numpy as np
import pytest

from cflat.landscape import (
    _ball_samples,
    flatness_report,
    hutchinson_trace,
    landscape_slice_2d,
    power_iter_lambda_max,
    r0_bruteforce,
    r1_bruteforce,
    top2_eigenpairs,
    track_sq_grad_norm,
)
from cflat.numcore import ParamVector, SeededRng
from cflat.objective import Batch, MlpSpec, ObjectiveOracle, make_mlp, make_quadratic
from cflat.optim import StepStats


class LinearLoss(ObjectiveOracle):
    """L(theta) = a . theta: constant gradient, zero Hessian."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=np.float64)
        self.dim = self.a.size

    def loss(self, theta, batch=None):
        return float(self.a @ theta.data)

    def grad(self, theta, batch=None):
        return theta.with_data(self.a.copy())

    def hvp(self, theta, v, batch=None, base_grad=None):
        return v.with_data(np.zeros(self.dim))


# ---------------------------------------------------------------------------
# eigenvalue and trace estimators
# ---------------------------------------------------------------------------


def test_power_iteration_diagonal():
    q = make_quadratic(np.diag([1.0, 2.0, 3.0]))
    lam = power_iter_lambda_max(q, ParamVector(np.zeros(3)), None, rng=SeededRng(0))
    assert lam == pytest.approx(3.0, abs=1e-6)


def test_power_iteration_negative_definite_signed():
    q = make_quadratic(-np.eye(3))
    lam = power_iter_lambda_max(q, ParamVector(np.zeros(3)), None, rng=SeededRng(1))
    assert lam == pytest.approx(-1.0, abs=1e-8)


def test_power_iteration_zero_hessian():
    q = make_quadratic(np.zeros((2, 2)))
    lam = power_iter_lambda_max(q, ParamVector(np.zeros(2)), None, rng=SeededRng(2))
    assert lam == 0.0


def test_power_iteration_matches_dense_eigensolver():
    rng = SeededRng(3)
    for trial in range(10):
        A = rng.normal(size=(5, 5))
        H = (A + A.T) / 2
        q = make_quadratic(H)
        expected_vals = np.linalg.eigvalsh(H)
        expected = expected_vals[np.argmax(np.abs(expected_vals))]
        got = power_iter_lambda_max(
            q, ParamVector(np.zeros(5)), None, iters=2000, tol=1e-13,
            rng=SeededRng(100 + trial),
        )
        assert abs(got - expected) / abs(expected) <= 1e-4


def test_top2_eigenpairs_via_deflation():
    H = np.diag([5.0, 3.0, 1.0, 0.5])
    q = make_quadratic(H)
    (l1, v1), (l2, v2) = top2_eigenpairs(
        q, ParamVector(np.zeros(4)), None, iters=2000, tol=1e-14, rng=SeededRng(4)
    )
    assert l1 == pytest.approx(5.0, abs=1e-6)
    assert l2 == pytest.approx(3.0, abs=1e-4)
    assert abs(v1.data[0]) == pytest.approx(1.0, abs=1e-6)
    assert abs(v2.data[1]) == pytest.approx(1.0, abs=1e-3)


def test_hutchinson_trace_statistical():
    q = make_quadratic(np.diag([1.0, 2.0, 3.0]))
    est = hutchinson_trace(q, ParamVector(np.zeros(3)), None, probes=10_000,
                           rng=SeededRng(5))
    assert abs(est - 6.0) / 6.0 <= 0.02


def test_hutchinson_zero_hessian_every_probe():
    q = make_quadratic(np.zeros((3, 3)))
    est = hutchinson_trace(q, ParamVector(np.zeros(3)), None, probes=50, rng=SeededRng(6))
    assert est == 0.0


def test_hutchinson_trace_linearity_shared_seed():
    H = np.diag([1.0, -2.0, 4.0])
    theta = ParamVector(np.zeros(3))
    base = hutchinson_trace(make_quadratic(H), theta, None, probes=64, rng=SeededRng(7))
    # power-of-two scaling commutes with rounding: identical probes, exact 2x
    doubled = hutchinson_trace(make_quadratic(2.0 * H), theta, None, probes=64,
                               rng=SeededRng(7))
    assert doubled == 2.0 * base
    tripled = hutchinson_trace(make_quadratic(3.0 * H), theta, None, probes=64,
                               rng=SeededRng(7))
    assert tripled == pytest.approx(3.0 * base, rel=1e-12)


def test_estimators_deterministic_given_probe_seed():
    q = make_quadratic(np.diag([1.0, 4.0]))
    theta = ParamVector([0.3, -0.7])
    a = hutchinson_trace(q, theta, None, probes=32, rng=SeededRng(8))
    b = hutchinson_trace(q, theta, None, probes=32, rng=SeededRng(8))
    assert a == b
    ra = r0_bruteforce(q, theta, None, 0.1, 500, SeededRng(9))
    rb = r0_bruteforce(q, theta, None, 0.1, 500, SeededRng(9))
    assert ra == rb


def test_hvp_estimators_share_one_base_gradient(monkeypatch):
    rng = SeededRng(21)
    oracle = make_mlp(MlpSpec(3, (5,), 3), rng.spawn(0))
    theta = oracle.theta0
    batch = Batch(rng.normal(size=(8, 3)), rng.integers(0, 3, 8))
    estimators = {
        "power": lambda **kw: power_iter_lambda_max(
            oracle, theta, batch, iters=25, rng=SeededRng(1), **kw),
        "trace": lambda **kw: hutchinson_trace(
            oracle, theta, batch, probes=7, rng=SeededRng(2), **kw),
        "top2": lambda **kw: top2_eigenpairs(
            oracle, theta, batch, iters=25, rng=SeededRng(3), **kw),
    }

    def values(result):
        if isinstance(result, float):
            return [result]
        (l1, v1), (l2, v2) = result
        return [l1, *v1.data, l2, *v2.data]

    grad, hvp = oracle.grad, oracle.hvp
    # reference: every product evaluates the gradient at theta afresh
    monkeypatch.setattr(oracle, "hvp", lambda th, v, b=None, base_grad=None: hvp(th, v, b))
    reference = {name: values(run()) for name, run in estimators.items()}

    counts = {"grad": 0, "hvp": 0}

    def counted_grad(th, b=None):
        counts["grad"] += 1
        return grad(th, b)

    def counted_hvp(th, v, b=None, base_grad=None):
        counts["hvp"] += 1
        return hvp(th, v, b, base_grad)

    monkeypatch.setattr(oracle, "grad", counted_grad)
    monkeypatch.setattr(oracle, "hvp", counted_hvp)
    g = grad(theta, batch)
    for name, run in estimators.items():
        counts.update(grad=0, hvp=0)
        assert values(run(base_grad=g)) == reference[name], name
        assert counts["hvp"] > 0
        assert counts["grad"] == counts["hvp"], name
        # without base_grad the estimator evaluates theta's gradient once
        counts.update(grad=0, hvp=0)
        assert values(run()) == reference[name], name
        assert counts["grad"] == counts["hvp"] + 1, name


# ---------------------------------------------------------------------------
# brute-force neighborhood sharpness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,d", [(1, 5), (64, 3), (130, 50), (300, 257)])
def test_ball_samples_equal_the_one_shot_formula(n, d):
    rng = SeededRng(21, 4)
    dirs = rng.normal(0.0, 1.0, (n, d))
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    expected = dirs * (0.3 * rng.uniform(0.0, 1.0, n) ** (1.0 / d))[:, None]
    got = _ball_samples(SeededRng(21, 4), d, 0.3, n)
    assert got.shape == (n, d)
    assert got.tobytes() == expected.tobytes()


def test_r0_quadratic_minimum_closed_form():
    q = make_quadratic(np.eye(2))
    est = r0_bruteforce(q, ParamVector(np.zeros(2)), None, rho=0.1,
                        n_samples=10_000, rng=SeededRng(10))
    # sup over the ball is rho^2 / 2 at the boundary
    assert est <= 0.005 + 1e-12
    assert abs(est - 0.005) / 0.005 <= 0.05


def test_r0_constant_loss_zero():
    q = make_quadratic(np.zeros((2, 2)))
    est = r0_bruteforce(q, ParamVector([1.0, 2.0]), None, rho=0.5,
                        n_samples=100, rng=SeededRng(11))
    assert est == 0.0


def test_r0_monotone_in_rho_shared_directions():
    q = make_quadratic(np.diag([1.0, 3.0]), c=np.array([0.2, -0.1]))
    theta = ParamVector([0.2, -0.1])  # at the minimum: growth is monotone on rays
    small = r0_bruteforce(q, theta, None, 0.1, 2000, SeededRng(12))
    large = r0_bruteforce(q, theta, None, 0.2, 2000, SeededRng(12))
    assert large >= small


def test_r1_quadratic_minimum_matches_eigenvalue_relation():
    q = make_quadratic(np.eye(2))
    est = r1_bruteforce(q, ParamVector(np.zeros(2)), None, rho=0.1,
                        n_samples=10_000, rng=SeededRng(13))
    assert est <= 0.01 + 1e-12
    assert abs(est - 0.01) / 0.01 <= 0.05


def test_r1_zero_hessian():
    q = make_quadratic(np.zeros((2, 2)))
    est = r1_bruteforce(q, ParamVector([0.3, 0.4]), None, rho=0.2,
                        n_samples=100, rng=SeededRng(14))
    assert est == 0.0


def test_r0_bounded_by_r1_on_random_quadratics():
    rng = SeededRng(15)
    for trial in range(20):
        A = rng.normal(size=(3, 3))
        q = make_quadratic(A + A.T)
        theta = ParamVector(rng.normal(size=3))
        rho = [0.05, 0.1, 0.2][trial % 3]
        probe = SeededRng(200 + trial)
        r0 = r0_bruteforce(q, theta, None, rho, 2000, probe.spawn(0))
        r1 = r1_bruteforce(q, theta, None, rho, 2000, probe.spawn(1))
        assert r0 <= r1 * 1.02 + 1e-12


def test_rho_must_be_positive():
    q = make_quadratic(np.eye(2))
    with pytest.raises(ValueError):
        r0_bruteforce(q, ParamVector(np.zeros(2)), None, 0.0, 10, SeededRng(0))
    with pytest.raises(ValueError):
        r1_bruteforce(q, ParamVector(np.zeros(2)), None, -0.1, 10, SeededRng(0))
    for estimator in (r0_bruteforce, r1_bruteforce):
        for n_samples in (0, -3):
            with pytest.raises(ValueError, match="n_samples"):
                estimator(q, ParamVector(np.zeros(2)), None, 0.1, n_samples, SeededRng(0))


# ---------------------------------------------------------------------------
# slices and series
# ---------------------------------------------------------------------------


def test_slice_center_equals_loss():
    q = make_quadratic(np.diag([1.0, 2.0]))
    theta = ParamVector([0.5, -0.5])
    d1 = ParamVector([1.0, 0.0])
    d2 = ParamVector([0.0, 1.0])
    a, b, grid = landscape_slice_2d(q, theta, None, d1, d2, extent=0.5, grid_n=5)
    assert grid[2, 2] == pytest.approx(q.loss(theta), rel=1e-14)
    assert a[0] == -0.5 and a[-1] == 0.5


def test_slice_quadratic_second_differences_constant():
    q = make_quadratic(np.array([[2.0, 0.3], [0.3, 1.0]]))
    theta = ParamVector([0.1, 0.2])
    rng = SeededRng(16)
    d1 = ParamVector(rng.normal(size=2))
    d2 = ParamVector(rng.normal(size=2))
    _, _, grid = landscape_slice_2d(q, theta, None, d1, d2, extent=1.0, grid_n=7)
    d2a = np.diff(grid, n=2, axis=0)
    d2b = np.diff(grid, n=2, axis=1)
    assert np.ptp(d2a) <= 1e-8
    assert np.ptp(d2b) <= 1e-8


def test_slice_symmetric_around_quadratic_minimum():
    q = make_quadratic(np.diag([1.0, 3.0]))
    theta = ParamVector([0.0, 0.0])
    d1 = ParamVector([1.0, 0.0])
    d2 = ParamVector([0.0, 1.0])
    _, _, grid = landscape_slice_2d(q, theta, None, d1, d2, extent=1.0, grid_n=9)
    np.testing.assert_allclose(grid, grid[::-1, ::-1], atol=1e-12)


def test_track_sq_grad_norm_single_and_constant():
    single = [StepStats(loss=1.0, sq_grad_norm=0.25)]
    assert track_sq_grad_norm(single) == [(0, 0, 0.25)]

    lin = LinearLoss([1.0, 2.0])
    series = []
    theta = ParamVector([0.0, 0.0])
    for epoch in range(3):
        g = lin.grad(theta)
        series.append(StepStats(loss=lin.loss(theta), sq_grad_norm=float(g.data @ g.data),
                                epoch=epoch))
    out = track_sq_grad_norm(series)
    assert [v for _, _, v in out] == [5.0, 5.0, 5.0]


def test_track_sq_grad_norm_decreasing_on_contraction():
    vals = [2.0 ** (-k) for k in range(20)]
    trace = [StepStats(loss=v, sq_grad_norm=v, epoch=k // 5) for k, v in enumerate(vals)]
    out = track_sq_grad_norm(trace)
    means = [v for _, _, v in out]
    assert means == sorted(means, reverse=True)
    assert np.mean(vals[-10:]) < np.mean(vals[:10])


def test_track_sq_grad_norm_empty_rejected():
    with pytest.raises(ValueError):
        track_sq_grad_norm([])


def test_flatness_report_bundles_checks():
    q = make_quadratic(np.diag([1.0, 2.0]))
    rep = flatness_report(q, ParamVector([0.0, 0.0]), None, rho=0.1,
                          rng=SeededRng(17), power_iters=500, trace_probes=500,
                          ball_samples=2000)
    assert rep.lambda_max == pytest.approx(2.0, abs=1e-6)
    assert abs(rep.trace - 3.0) / 3.0 <= 0.2
    assert rep.r0_sample <= rep.r1_sample * 1.02 + 1e-12
    assert rep.rho_used == 0.1
    again = flatness_report(q, ParamVector([0.0, 0.0]), None, rho=0.1,
                            rng=SeededRng(17), power_iters=500, trace_probes=500,
                            ball_samples=2000)
    assert rep == again
