import threading
import tracemalloc

import numpy as np
import pytest

from cflat import landscape
from cflat.landscape import (
    _BALL_BLOCK_ROWS,
    _BALL_UNIT_ROWS,
    _ball_samples,
    ball_sharpness,
    flatness_report,
    hutchinson_trace,
    lanczos_eigenpairs,
    landscape_slice_2d,
    power_iter_lambda_max,
    r0_bruteforce,
    r1_bruteforce,
    top2_eigenpairs,
)
from cflat.numcore import ParamVector, SeededRng, norm2
from cflat.objective import Batch, MlpOracle, MlpSpec, ObjectiveOracle, QuadraticOracle
from cflat.optim import DivergenceError


# ---------------------------------------------------------------------------
# eigenvalue and trace estimators
# ---------------------------------------------------------------------------


def test_power_iteration_diagonal():
    q = QuadraticOracle(np.diag([1.0, 2.0, 3.0]))
    lam = power_iter_lambda_max(q, ParamVector(np.zeros(3)), None, rng=SeededRng(0))
    assert lam == pytest.approx(3.0, abs=1e-6)


def test_power_iteration_negative_definite_signed():
    q = QuadraticOracle(-np.eye(3))
    lam = power_iter_lambda_max(q, ParamVector(np.zeros(3)), None, rng=SeededRng(1))
    assert lam == pytest.approx(-1.0, abs=1e-8)


def test_power_iteration_zero_hessian():
    q = QuadraticOracle(np.zeros((2, 2)))
    lam = power_iter_lambda_max(q, ParamVector(np.zeros(2)), None, rng=SeededRng(2))
    assert lam == 0.0


def test_power_iteration_matches_dense_eigensolver():
    rng = SeededRng(3)
    for trial in range(10):
        A = rng.normal(size=(5, 5))
        H = (A + A.T) / 2
        q = QuadraticOracle(H)
        expected_vals = np.linalg.eigvalsh(H)
        expected = expected_vals[np.argmax(np.abs(expected_vals))]
        got = power_iter_lambda_max(
            q, ParamVector(np.zeros(5)), None, iters=2000, tol=1e-13,
            rng=SeededRng(100 + trial),
        )
        assert abs(got - expected) / abs(expected) <= 1e-4


def dense_top(H, k):
    vals, vecs = np.linalg.eigh(H)
    order = np.argsort(-np.abs(vals), kind="stable")[:k]
    return vals[order], vecs[:, order]


def assert_orthonormal(vectors):
    V = np.array([v.data for v in vectors])
    np.testing.assert_allclose(V @ V.T, np.eye(len(vectors)), rtol=0, atol=1e-12)


def test_top2_eigenpairs_diagonal():
    H = np.diag([5.0, 3.0, 1.0, 0.5])
    eig = top2_eigenpairs(QuadraticOracle(H), ParamVector(np.zeros(4)), None,
                          rng=SeededRng(4))
    assert eig.values == pytest.approx((5.0, 3.0), abs=1e-12)
    assert abs(eig.vectors[0].data[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(eig.vectors[1].data[1]) == pytest.approx(1.0, abs=1e-12)
    assert eig.residual <= eig.tol and eig.products <= 4


@pytest.mark.parametrize("d", [6, 30, 120])
def test_lanczos_top2_exact_on_random_quadratics(d):
    rng = SeededRng(30, d)
    for trial in range(3):
        A = rng.normal(size=(d, d))
        H = (A + A.T) / 2
        vals, vecs = dense_top(H, 2)
        eig = top2_eigenpairs(QuadraticOracle(H), ParamVector(np.zeros(d)), None,
                              rng=SeededRng(31, trial))
        np.testing.assert_allclose(eig.values, vals, rtol=1e-12, atol=0)
        assert eig.residual <= eig.tol
        assert_orthonormal(eig.vectors)
        for lam, u in zip(eig.values, eig.vectors):
            # the certificate bounds the explicit residual
            assert np.linalg.norm(H @ u.data - lam * u.data) <= 1e-9 * abs(lam)


def test_lanczos_signed_negative_dominant_eigenvalue():
    H = np.diag([-5.0, 3.0, 1.0, -0.5, 2.0])
    eig = top2_eigenpairs(QuadraticOracle(H), ParamVector(np.zeros(5)), None,
                          rng=SeededRng(32))
    assert eig.values == pytest.approx((-5.0, 3.0), rel=1e-12)
    assert abs(eig.vectors[0].data[0]) == pytest.approx(1.0, abs=1e-12)


def test_lanczos_zero_hessian_breaks_down_to_exact_zero_pairs():
    eig = top2_eigenpairs(QuadraticOracle(np.zeros((3, 3))), ParamVector(np.zeros(3)), None,
                          rng=SeededRng(33))
    # each product is zero, so each step restarts from a fresh orthogonal draw
    assert eig.values == (0.0, 0.0)
    assert eig.residual == 0.0 and eig.products == 2
    assert_orthonormal(eig.vectors)


def test_lanczos_one_dimension_gives_its_one_pair():
    eig = top2_eigenpairs(QuadraticOracle(np.array([[-2.5]])), ParamVector(np.zeros(1)), None,
                          rng=SeededRng(34))
    assert eig.values == pytest.approx((-2.5,), rel=1e-15)
    assert len(eig.vectors) == 1 and abs(eig.vectors[0].data[0]) == 1.0
    assert eig.products == 1 and eig.residual <= 1e-15


def test_lanczos_two_dimensions_breakdown():
    # a multiple of the identity: the start vector spans an invariant subspace
    eig = top2_eigenpairs(QuadraticOracle(2.0 * np.eye(2)), ParamVector(np.zeros(2)), None,
                          rng=SeededRng(35))
    assert eig.values == pytest.approx((2.0, 2.0), rel=1e-15)
    assert eig.products == 2 and eig.residual <= 1e-15
    assert_orthonormal(eig.vectors)
    H = np.array([[1.0, 2.0], [2.0, -3.0]])
    vals, _ = dense_top(H, 2)
    eig = top2_eigenpairs(QuadraticOracle(H), ParamVector(np.zeros(2)), None, rng=SeededRng(36))
    np.testing.assert_allclose(eig.values, vals, rtol=1e-14)
    assert eig.products == 2 and eig.residual <= eig.tol


def test_lanczos_rejects_bad_counts():
    q = QuadraticOracle(np.eye(2))
    with pytest.raises(ValueError, match="iters"):
        lanczos_eigenpairs(q, ParamVector(np.zeros(2)), None, iters=0)
    with pytest.raises(ValueError, match="k"):
        lanczos_eigenpairs(q, ParamVector(np.zeros(2)), None, k=0)


def test_hutchinson_trace_statistical():
    q = QuadraticOracle(np.diag([1.0, 2.0, 3.0]))
    est = hutchinson_trace(q, ParamVector(np.zeros(3)), None, probes=10_000,
                           rng=SeededRng(5))
    assert abs(est - 6.0) / 6.0 <= 0.02


def test_hutchinson_trace_lands_near_the_exact_trace_of_a_small_mlp():
    rng = SeededRng(26)
    oracle = MlpOracle(MlpSpec(3, (5,), 3, l2=0.1))
    theta = oracle.init_theta(rng.spawn(0))
    batch = Batch(rng.normal(size=(64, 3)), rng.integers(0, 3, 64))
    exact = oracle.hessian_trace(theta, batch)
    # the 2% bound is at least 5 standard errors of the 10,000-probe mean,
    # whose variance is 2 (||H||_F^2 - sum_i H_ii^2) / probes
    H = np.array([oracle.hvp(theta, theta._adopt(e), batch).data for e in np.eye(oracle.dim)])
    std_err = np.sqrt(2.0 * ((H * H).sum() - (np.diag(H) ** 2).sum()) / 10_000)
    assert 0.02 * exact >= 5.0 * std_err
    est = hutchinson_trace(oracle, theta, batch, probes=10_000, rng=SeededRng(27))
    assert abs(est - exact) / exact <= 0.02


def test_hutchinson_zero_hessian_every_probe():
    q = QuadraticOracle(np.zeros((3, 3)))
    est = hutchinson_trace(q, ParamVector(np.zeros(3)), None, probes=50, rng=SeededRng(6))
    assert est == 0.0


def test_hutchinson_trace_linearity_shared_seed():
    H = np.diag([1.0, -2.0, 4.0])
    theta = ParamVector(np.zeros(3))
    base = hutchinson_trace(QuadraticOracle(H), theta, None, probes=64, rng=SeededRng(7))
    # power-of-two scaling commutes with rounding: identical probes, exact 2x
    doubled = hutchinson_trace(QuadraticOracle(2.0 * H), theta, None, probes=64,
                               rng=SeededRng(7))
    assert doubled == 2.0 * base
    tripled = hutchinson_trace(QuadraticOracle(3.0 * H), theta, None, probes=64,
                               rng=SeededRng(7))
    assert tripled == pytest.approx(3.0 * base, rel=1e-12)


def test_estimators_deterministic_given_probe_seed():
    q = QuadraticOracle(np.diag([1.0, 4.0]))
    theta = ParamVector([0.3, -0.7])
    a = hutchinson_trace(q, theta, None, probes=32, rng=SeededRng(8))
    b = hutchinson_trace(q, theta, None, probes=32, rng=SeededRng(8))
    assert a == b
    ra = r0_bruteforce(q, theta, None, 0.1, 500, SeededRng(9))
    rb = r0_bruteforce(q, theta, None, 0.1, 500, SeededRng(9))
    assert ra == rb


def count_oracle_calls(monkeypatch, oracle):
    """Count ``grad``/``hvp`` calls and forward passes on ``oracle``."""
    counts = {"grad": 0, "hvp": 0, "forward": 0}
    for name in ("grad", "hvp", "_forward"):
        method = getattr(oracle, name)

        def counted(*args, _method=method, _key=name.strip("_"), **kwargs):
            counts[_key] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    return counts


def test_hvp_estimators_share_one_base_gradient(monkeypatch):
    rng = SeededRng(21)
    spec = MlpSpec(3, (5,), 3)
    oracle = MlpOracle(spec)
    theta = oracle.init_theta(rng.spawn(0))
    batch = Batch(rng.normal(size=(8, 3)), rng.integers(0, 3, 8))
    estimators = {
        "power": lambda model: power_iter_lambda_max(
            model, theta, batch, iters=25, rng=SeededRng(1)),
        "trace": lambda model: hutchinson_trace(
            model, theta, batch, probes=7, rng=SeededRng(2)),
        "top2": lambda model: top2_eigenpairs(
            model, theta, batch, iters=25, rng=SeededRng(3)),
    }

    def values(result):
        if isinstance(result, float):
            return [result]
        return [*result.values, *(x for v in result.vectors for x in v.data)]

    counts = count_oracle_calls(monkeypatch, oracle)
    oracle.grad(theta, batch)
    for name, run in estimators.items():
        counts.update(grad=0, hvp=0, forward=0)
        got = values(run(oracle))
        # every product reads the gradient pass at theta: no pass of its own
        assert counts["hvp"] > 0 and counts["grad"] == counts["forward"] == 0, name
        # a fresh oracle runs the one gradient pass its first product needs
        fresh = MlpOracle(spec)
        fresh_counts = count_oracle_calls(monkeypatch, fresh)
        assert values(run(fresh)) == got, name
        assert fresh_counts["grad"] == fresh_counts["forward"] == 1, name


@pytest.mark.parametrize("iters", [1, 2, 5, 40])
def test_lanczos_takes_one_product_per_basis_vector(monkeypatch, iters):
    rng = SeededRng(22)
    oracle = MlpOracle(MlpSpec(3, (5,), 3, l2=0.01))
    theta = oracle.init_theta(rng.spawn(0))
    batch = Batch(rng.normal(size=(8, 3)), rng.integers(0, 3, 8))
    counts = count_oracle_calls(monkeypatch, oracle)
    eig = top2_eigenpairs(oracle, theta, batch, iters=iters, rng=SeededRng(4))
    assert counts["hvp"] == eig.products <= iters
    assert counts["forward"] == 1
    assert np.isfinite(eig.residual)
    if iters < oracle.dim:
        assert eig.products == iters or eig.residual <= eig.tol
    if iters >= oracle.dim:  # 38 parameters: the basis spans the space
        H = np.array([oracle.hvp(theta, theta.with_data(e), batch).data
                      for e in np.eye(oracle.dim)])
        vals, _ = dense_top((H + H.T) / 2, 2)
        np.testing.assert_allclose(eig.values, vals, rtol=1e-12)
        assert eig.residual <= eig.tol


# ---------------------------------------------------------------------------
# brute-force neighborhood sharpness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,d", [(1, 5), (64, 3), (130, 50), (300, 257),
                                 (2 * _BALL_BLOCK_ROWS + 1, 7)])
def test_ball_samples_equal_the_one_shot_formula(n, d):
    rng = SeededRng(21, 4)
    radii = 0.3 * rng.uniform(0.0, 1.0, n) ** (1.0 / d)
    dirs = rng.normal(0.0, 1.0, (n, d))
    expected = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * radii[:, None]
    streamed = SeededRng(21, 4)
    # each row is valid only until the next is drawn: copy it out
    got = np.array([row.copy() for row in _ball_samples(streamed, d, 0.3, n)])
    assert got.shape == (n, d)
    assert got.tobytes() == expected.tobytes()
    # the consumed stream leaves the rng where the one-shot draw does
    assert streamed.normal(0.0, 1.0, 5).tobytes() == rng.normal(0.0, 1.0, 5).tobytes()


class _HalfSquaredNorm(ObjectiveOracle):
    """L(theta) = ||theta||^2 / 2 with gradient theta: the identity quadratic
    without its dense d x d matrix."""

    def __init__(self, dim):
        self.dim = dim

    def loss(self, theta, batch=None):
        return 0.5 * float(theta.data @ theta.data)

    def grad(self, theta, batch=None):
        return theta


def test_ball_sharpness_memory_does_not_grow_with_the_samples():
    q = _HalfSquaredNorm(3000)
    theta = ParamVector(np.zeros(3000))

    def peak_bytes(n):
        tracemalloc.start()
        try:
            ball_sharpness(q, theta, None, 0.1, n, SeededRng(3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block_bytes = _BALL_BLOCK_ROWS * theta.dim * 8
    # the one-shot draw held 8 * n * d bytes: 24 MB at n = 1000
    assert peak_bytes(1000) <= peak_bytes(_BALL_BLOCK_ROWS) + block_bytes


def test_r0_quadratic_minimum_closed_form():
    q = QuadraticOracle(np.eye(2))
    est = r0_bruteforce(q, ParamVector(np.zeros(2)), None, rho=0.1,
                        n_samples=10_000, rng=SeededRng(10))
    # sup over the ball is rho^2 / 2 at the boundary
    assert est <= 0.005 + 1e-12
    assert abs(est - 0.005) / 0.005 <= 0.05


def test_r0_constant_loss_zero():
    q = QuadraticOracle(np.zeros((2, 2)))
    est = r0_bruteforce(q, ParamVector([1.0, 2.0]), None, rho=0.5,
                        n_samples=100, rng=SeededRng(11))
    assert est == 0.0


def test_r0_monotone_in_rho_shared_directions():
    q = QuadraticOracle(np.diag([1.0, 3.0]), c=np.array([0.2, -0.1]))
    theta = ParamVector([0.2, -0.1])  # at the minimum: growth is monotone on rays
    small = r0_bruteforce(q, theta, None, 0.1, 2000, SeededRng(12))
    large = r0_bruteforce(q, theta, None, 0.2, 2000, SeededRng(12))
    assert large >= small


def test_r1_quadratic_minimum_matches_eigenvalue_relation():
    q = QuadraticOracle(np.eye(2))
    est = r1_bruteforce(q, ParamVector(np.zeros(2)), None, rho=0.1,
                        n_samples=10_000, rng=SeededRng(13))
    assert est <= 0.01 + 1e-12
    assert abs(est - 0.01) / 0.01 <= 0.05


def test_r1_zero_hessian():
    q = QuadraticOracle(np.zeros((2, 2)))
    est = r1_bruteforce(q, ParamVector([0.3, 0.4]), None, rho=0.2,
                        n_samples=100, rng=SeededRng(14))
    assert est == 0.0


def test_r0_bounded_by_r1_on_random_quadratics():
    rng = SeededRng(15)
    for trial in range(20):
        A = rng.normal(size=(3, 3))
        q = QuadraticOracle(A + A.T)
        theta = ParamVector(rng.normal(size=3))
        rho = [0.05, 0.1, 0.2][trial % 3]
        probe = SeededRng(200 + trial)
        r0 = r0_bruteforce(q, theta, None, rho, 2000, probe.spawn(0))
        r1 = r1_bruteforce(q, theta, None, rho, 2000, probe.spawn(1))
        assert r0 <= r1 * 1.02 + 1e-12


def test_rho_must_be_positive():
    q = QuadraticOracle(np.eye(2))
    with pytest.raises(ValueError):
        r0_bruteforce(q, ParamVector(np.zeros(2)), None, 0.0, 10, SeededRng(0))
    with pytest.raises(ValueError):
        r1_bruteforce(q, ParamVector(np.zeros(2)), None, -0.1, 10, SeededRng(0))
    for rho in (np.inf, np.nan):  # a nan rho gave (-inf, nan)
        with pytest.raises(ValueError, match="finite"):
            ball_sharpness(q, ParamVector(np.zeros(2)), None, rho, 10, SeededRng(0))
    for estimator in (r0_bruteforce, r1_bruteforce):
        for n_samples in (0, -3):
            with pytest.raises(ValueError, match="n_samples"):
                estimator(q, ParamVector(np.zeros(2)), None, 0.1, n_samples, SeededRng(0))


class _NonFiniteAt(QuadraticOracle):
    """A quadratic whose gradient (or loss) at the k-th ball point is NaN."""

    def __init__(self, k, entry):
        super().__init__(np.eye(2))
        self.k, self.entry, self.calls = k, entry, {"grad": 0, "loss": 0}

    def _count(self, entry, value):
        self.calls[entry] += 1
        # the first loss is the base value at theta, before any ball point
        index = self.calls[entry] - (2 if entry == "loss" else 1)
        return value * np.nan if entry == self.entry and index == self.k else value

    def grad(self, theta, batch=None):
        g = super().grad(theta, batch)
        return g._adopt(self._count("grad", g.data.copy()))

    def loss(self, theta, batch=None):
        return self._count("loss", super().loss(theta, batch))


@pytest.mark.parametrize("entry, estimator", [("grad", "R1 gradient norm"),
                                              ("loss", "R0 loss")])
def test_ball_sharpness_fails_at_the_first_non_finite_ball_value(entry, estimator):
    oracle = _NonFiniteAt(3, entry)
    with pytest.raises(DivergenceError, match=f"{estimator} is nan at ball sample 3"):
        ball_sharpness(oracle, ParamVector([0.1, 0.2]), None, 0.5, 10, SeededRng(28))
    # it stops at that point: no later sample is evaluated
    assert oracle.calls["grad"] == 4


def test_ball_sharpness_takes_r0_and_r1_from_one_set_of_points():
    rng = SeededRng(23)
    spec = MlpSpec(3, (5,), 3, l2=0.01)
    oracle = MlpOracle(spec)
    theta = oracle.init_theta(rng.spawn(0))
    batch = Batch(rng.normal(size=(8, 3)), rng.integers(0, 3, 8))
    rho, n = 0.3, 40
    r0, r1 = ball_sharpness(oracle, theta, batch, rho, n, SeededRng(6, 1))
    assert (r0, r1) == (r0_bruteforce(oracle, theta, batch, rho, n, SeededRng(6, 1)),
                        r1_bruteforce(oracle, theta, batch, rho, n, SeededRng(6, 1)))

    # each half from its own evaluations on a fresh oracle, at the same points
    fresh = MlpOracle(spec)
    points = [theta.with_data(theta.data + row)
              for row in _ball_samples(SeededRng(6, 1), theta.dim, rho, n)]
    worst_grad = 0.0
    for point in points:
        worst_grad = max(worst_grad, norm2(fresh.grad(point, batch)))
    assert r1 == float(rho * worst_grad)
    assert r0 == max(fresh.loss(point, batch) for point in points) - fresh.loss(theta, batch)


def test_flatness_report_does_not_depend_on_call_history():
    rng = SeededRng(24)
    spec = MlpSpec(3, (5,), 3)
    oracle = MlpOracle(spec)
    theta = oracle.init_theta(rng.spawn(0))
    batch = Batch(rng.normal(size=(8, 3)), rng.integers(0, 3, 8))

    def report(model):
        return flatness_report(model, theta, batch, rho=0.2, rng=SeededRng(25),
                               iters=30, ball_samples=30)

    first = report(oracle)
    assert report(oracle) == first
    assert report(MlpOracle(spec)) == first


class _ThreadNoting(MlpOracle):
    """An MlpOracle that notes the threads its gradients and losses run on;
    its shallow copies share the set."""

    def __init__(self, spec):
        super().__init__(spec)
        self.threads = set()

    def grad(self, theta, batch=None):
        self.threads.add(threading.get_ident())
        return super().grad(theta, batch)

    def loss(self, theta, batch=None):
        self.threads.add(threading.get_ident())
        return super().loss(theta, batch)


def test_ball_and_slice_do_not_depend_on_the_cpu_count(monkeypatch):
    rng = SeededRng(40)
    spec = MlpSpec(4, (6,), 3, l2=0.01)
    theta = MlpOracle(spec).init_theta(rng.spawn(0))
    batch = Batch(rng.normal(size=(16, 4)), rng.integers(0, 3, 16))
    dir1, dir2 = (theta.with_data(rng.normal(size=theta.dim)) for _ in range(2))
    n = 3 * _BALL_BLOCK_ROWS + 11  # three full blocks and a ragged tail
    runs, threads = {}, {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(landscape, "_cpus", lambda: cpus)
        ball_oracle, slice_oracle = _ThreadNoting(spec), _ThreadNoting(spec)
        probe = SeededRng(41)
        ball = ball_sharpness(ball_oracle, theta, batch, 0.4, n, probe)
        grid = landscape_slice_2d(slice_oracle, theta, batch, dir1, dir2, extent=0.5, grid_n=7)
        runs[cpus] = ball, [a.tobytes() for a in grid], probe.normal(0.0, 1.0, 3).tobytes()
        threads[cpus] = len(ball_oracle.threads), len(slice_oracle.threads)
    assert runs[1] == runs[2] == runs[3]
    # a block has two units, so the ball takes at most two threads; a pool
    # thread that is idle again may take a second part of the slice
    assert threads[1] == (1, 1) and threads[2] == (2, 2)
    assert threads[3][0] == 2 and threads[3][1] in (2, 3)


@pytest.mark.parametrize("bad, named", [((40,), 40), ((5, 40), 5), ((40, 70), 40)])
def test_ball_sharpness_names_the_first_non_finite_sample_across_units(monkeypatch, bad, named):
    # on two CPUs a block's second unit, samples 32-63, runs on a pool thread
    monkeypatch.setattr(landscape, "_cpus", lambda: 2)
    theta, rho, n = ParamVector([0.1, 0.2]), 0.5, 3 * _BALL_BLOCK_ROWS
    rows = [row.copy() for row in _ball_samples(SeededRng(29), theta.dim, rho, n)]
    caller, on_pool = threading.get_ident(), {}

    class NanAt(QuadraticOracle):
        def grad(self, point, batch=None):
            g = super().grad(point, batch)
            for k in bad:
                if np.array_equal(point.data, theta.data + rows[k]):
                    on_pool[k] = threading.get_ident() != caller
                    return g._adopt(g.data * np.nan)
            return g

    probe = SeededRng(29)
    with pytest.raises(DivergenceError, match=f"R1 gradient norm is nan at ball sample {named}$"):
        ball_sharpness(NanAt(np.eye(2)), theta, None, rho, n, probe)
    # sample 40 ran on a pool thread, and sample 70's block was never drawn
    assert on_pool == {k: k >= _BALL_UNIT_ROWS for k in bad if k < _BALL_BLOCK_ROWS}
    reference = SeededRng(29)
    reference.uniform(0.0, 1.0, n)
    reference.fill_normal(np.empty((_BALL_BLOCK_ROWS, theta.dim)))
    assert probe.normal(0.0, 1.0, 3).tobytes() == reference.normal(0.0, 1.0, 3).tobytes()


# ---------------------------------------------------------------------------
# slices and series
# ---------------------------------------------------------------------------


def test_slice_center_equals_loss():
    q = QuadraticOracle(np.diag([1.0, 2.0]))
    theta = ParamVector([0.5, -0.5])
    d1 = ParamVector([1.0, 0.0])
    d2 = ParamVector([0.0, 1.0])
    a, b, grid = landscape_slice_2d(q, theta, None, d1, d2, extent=0.5, grid_n=5)
    assert grid[2, 2] == pytest.approx(q.loss(theta), rel=1e-14)
    assert a[0] == -0.5 and a[-1] == 0.5


@pytest.mark.parametrize("extent", [0.0, -1.0, float("nan"), float("inf")])
def test_slice_rejects_an_extent_that_is_not_finite_and_positive(extent):
    q = QuadraticOracle(np.eye(2))
    d1, d2 = ParamVector([1.0, 0.0]), ParamVector([0.0, 1.0])
    with pytest.raises(ValueError, match="extent must be finite and positive"):
        landscape_slice_2d(q, ParamVector([0.0, 0.0]), None, d1, d2, extent=extent, grid_n=3)


def test_slice_quadratic_second_differences_constant():
    q = QuadraticOracle(np.array([[2.0, 0.3], [0.3, 1.0]]))
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
    q = QuadraticOracle(np.diag([1.0, 3.0]))
    theta = ParamVector([0.0, 0.0])
    d1 = ParamVector([1.0, 0.0])
    d2 = ParamVector([0.0, 1.0])
    _, _, grid = landscape_slice_2d(q, theta, None, d1, d2, extent=1.0, grid_n=9)
    np.testing.assert_allclose(grid, grid[::-1, ::-1], atol=1e-12)


def test_flatness_report_bundles_checks():
    q = QuadraticOracle(np.diag([1.0, 2.0]))
    rep = flatness_report(q, ParamVector([0.0, 0.0]), None, rho=0.1,
                          rng=SeededRng(17), iters=500,
                          ball_samples=2000)
    assert rep.lambda_max == pytest.approx(2.0, abs=1e-12)
    # the basis spans both dimensions after two products
    assert rep.lanczos_products == 2 and rep.lanczos_residual <= rep.lanczos_tol
    assert abs(rep.trace - 3.0) / 3.0 <= 0.2
    assert rep.r0_sample <= rep.r1_sample * 1.02 + 1e-12
    assert rep.rho_used == 0.1
    again = flatness_report(q, ParamVector([0.0, 0.0]), None, rho=0.1,
                            rng=SeededRng(17), iters=500,
                            ball_samples=2000)
    assert rep == again
