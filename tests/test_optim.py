import math

import numpy as np
import pytest

from cflat.numcore import ParamVector, SeededRng, norm2
from cflat.objective import Batch, MlpOracle, MlpSpec, ObjectiveOracle, make_quadratic
from cflat.optim import (
    CflatPPStepper,
    CflatStepper,
    OPTIMIZER_NAMES,
    DivergenceError,
    OptimConfig,
    ProxyState,
    SamStepper,
    SgdStepper,
    ascent_point,
    hybrid_step_plan,
    make_stepper,
    proxy_value,
    rho_schedule,
    sam_perturb,
    train_epochs,
)

EPS = 1e-12


class TwoValley(ObjectiveOracle):
    """L(x) = min(2(x-1)^2, 0.05(x+1)^2 + 0.01): sharp valley at +1, flat at -1."""

    dim = 1

    def _sharp(self, x):
        return 2 * (x - 1) ** 2 <= 0.05 * (x + 1) ** 2 + 0.01

    def loss(self, theta, batch=None):
        x = theta.data[0]
        return float(min(2 * (x - 1) ** 2, 0.05 * (x + 1) ** 2 + 0.01))

    def grad(self, theta, batch=None):
        x = theta.data[0]
        g = 4 * (x - 1) if self._sharp(x) else 0.1 * (x + 1)
        return theta.with_data([g])

    def hvp(self, theta, v, batch=None):
        x = theta.data[0]
        h = 4.0 if self._sharp(x) else 0.1
        return v.with_data([h * v.data[0]])


def dummy_batch(n=4, d=2, C=2, seed=0):
    rng = SeededRng(seed)
    return Batch(rng.normal(size=(n, d)), rng.integers(0, C, n))


# ---------------------------------------------------------------------------
# sgd
# ---------------------------------------------------------------------------


def test_sgd_closed_form():
    q = make_quadratic(np.eye(2))
    theta, stats = SgdStepper().step(q, ParamVector([1.0, 0.0]), None, OptimConfig(eta=0.1))
    np.testing.assert_allclose(theta.data, [0.9, 0.0])
    assert stats.grad_evals == 1 and not stats.used_cflat


def test_sgd_zero_eta_is_identity():
    q = make_quadratic(np.eye(2))
    start = ParamVector([0.3, -0.4])
    theta, _ = SgdStepper().step(q, start, None, OptimConfig(eta=0.0))
    assert np.array_equal(theta.data, start.data)


def test_sgd_geometric_contraction():
    q = make_quadratic(np.diag([1.0, 2.0]))
    cfg = OptimConfig(eta=0.5)  # eta < 2 / lambda_max = 1
    theta = ParamVector([1.0, 1.0])
    norms = [norm2(theta)]
    for _ in range(30):
        theta, _ = SgdStepper().step(q, theta, None, cfg)
        norms.append(norm2(theta))
    # contraction factor is max |1 - eta*l| = 0.5 on this spectrum
    for before, after in zip(norms, norms[1:]):
        assert after <= 0.5 * before + 1e-15
    assert norms[-1] < 1e-8


def test_steps_reject_non_finite_theta():
    q = make_quadratic(np.eye(2))
    cfg = OptimConfig(eta=0.1)
    for bad in ([np.nan, 0.0], [np.inf, 1.0]):
        with pytest.raises(DivergenceError):
            SgdStepper().step(q, ParamVector(bad), None, cfg)
        with pytest.raises(DivergenceError):
            CflatStepper().step(q, ParamVector(bad), None, cfg)


def test_sgd_divergence_reports():
    q = make_quadratic(np.array([[4.0]]))
    with pytest.raises(DivergenceError), np.errstate(over="ignore"):
        theta = ParamVector([1e200])
        for _ in range(5):
            theta, _ = SgdStepper().step(q, theta, None, OptimConfig(eta=1e200))


# ---------------------------------------------------------------------------
# sam
# ---------------------------------------------------------------------------


def test_sam_perturb_hand_value_and_guard():
    out = sam_perturb(ParamVector([3.0, 4.0]), 0.5, EPS)
    np.testing.assert_allclose(out.data, [0.3, 0.4], rtol=1e-12)
    zero = sam_perturb(ParamVector([0.0, 0.0]), 0.5, EPS)
    assert np.array_equal(zero.data, [0.0, 0.0])


def test_sam_perturb_norm_property():
    rng = SeededRng(1)
    for _ in range(50):
        g = ParamVector(rng.normal(size=7))
        eps0 = sam_perturb(g, 0.3, EPS)
        assert 0.3 * (1 - 1e-6) <= norm2(eps0) <= 0.3 + 1e-15


def test_sam_reduces_to_sgd_at_zero_rho():
    rng = SeededRng(2)
    oracle = MlpOracle(MlpSpec(3, (4,), 2))
    theta = oracle.init_theta(rng.spawn(0))
    batch = dummy_batch(6, 3, 2, seed=3)
    cfg = OptimConfig(eta=0.1, rho=0.0)
    a, _ = SamStepper().step(oracle, theta, batch, cfg)
    b, _ = SgdStepper().step(oracle, theta, batch, cfg)
    assert np.array_equal(a.data, b.data)


def test_sam_closed_form_on_quadratic():
    H = np.diag([1.0, 2.0])
    q = make_quadratic(H)
    theta0 = np.array([1.0, 1.0])
    rho, eta = 0.1, 0.1
    got, stats = SamStepper().step(q, ParamVector(theta0), None, OptimConfig(eta=eta, rho=rho))
    # hand-expanded: theta - eta * H (theta + rho * H theta / ||H theta||)
    g = H @ theta0
    expected = theta0 - eta * H @ (theta0 + rho * g / (np.linalg.norm(g) + EPS))
    np.testing.assert_allclose(got.data, expected, rtol=1e-14)
    assert stats.grad_evals == 2


# ---------------------------------------------------------------------------
# cflat
# ---------------------------------------------------------------------------


def test_cflat_gradient_matches_hand_expansion_on_quadratic():
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.array([0.3, -0.2])
    q = make_quadratic(H, c)
    theta0 = np.array([1.0, 0.5])
    cfg = OptimConfig(eta=0.1, rho=0.2, lam=0.2)

    combined, stats = CflatStepper().direction(q, ParamVector(theta0), None, cfg)

    # every line expanded by hand with the analytic H
    g = H @ (theta0 - c)
    eps0 = cfg.rho * g / (np.linalg.norm(g) + EPS)
    g0 = H @ (theta0 + eps0 - c)
    h = H @ (g / (np.linalg.norm(g) + EPS))
    eps1 = cfg.rho * h / (np.linalg.norm(h) + EPS)
    gp = H @ (theta0 + eps1 - c)
    g1 = H @ (gp / (np.linalg.norm(gp) + EPS))
    expected = g0 + cfg.lam * g1

    np.testing.assert_allclose(combined.data, expected, rtol=1e-14)
    assert stats.grad_evals == 5 and stats.hvp_evals == 2 and stats.used_cflat


# C-Flat: the gradients at theta, the ascent point and theta1; each HVP reads
# the pass of the gradient at its own point
@pytest.mark.parametrize("stepper, passes", [(SgdStepper, 1), (CflatStepper, 3)])
def test_step_reads_its_loss_from_the_gradient_pass(monkeypatch, stepper, passes):
    rng = SeededRng(5)
    spec = MlpSpec(3, (4,), 3)
    oracle = MlpOracle(spec)
    theta = oracle.init_theta(rng.spawn(0))
    batch = dummy_batch(8, 3, 3, seed=6)
    expected = MlpOracle(spec).loss(theta, batch)
    calls = []
    forward = oracle._forward

    def counted(th, x):
        calls.append(x.shape[0])
        return forward(th, x)

    monkeypatch.setattr(oracle, "_forward", counted)
    _, stats = stepper().step(oracle, theta, batch, OptimConfig(eta=0.1, rho=0.2, lam=0.2))
    assert len(calls) == passes
    assert stats.loss == expected


def test_cflat_guards_at_exact_minimum():
    H = np.diag([1.0, 3.0])
    c = np.array([0.5, -0.5])
    q = make_quadratic(H, c)
    cfg = OptimConfig(eta=0.1, rho=0.2, lam=0.2)
    combined, _ = CflatStepper().direction(q, ParamVector(c), None, cfg)
    assert np.isfinite(combined.data).all()
    assert norm2(combined) <= cfg.lam * 3.0 * cfg.rho  # no blow-up through the guards


def test_reduction_lattice_bitwise():
    rng = SeededRng(3)
    oracle = MlpOracle(MlpSpec(3, (4,), 3))
    q = make_quadratic(np.diag([1.0, 2.0, 3.0, 0.5] + [1.0] * (oracle.dim - 4)))
    for trial in range(100):
        theta = ParamVector(rng.normal(size=oracle.dim), oracle.manifest)
        batch = dummy_batch(5, 3, 3, seed=trial)
        eta = float(abs(rng.normal()) * 0.2 + 0.01)
        rho = float(abs(rng.normal()) * 0.2)
        orc = oracle if trial % 2 == 0 else q

        cfg_sam = OptimConfig(eta=eta, rho=rho, lam=0.0)
        a, _ = CflatStepper().step(orc, theta, batch, cfg_sam)
        b, _ = SamStepper().step(orc, theta, batch, cfg_sam)
        assert np.array_equal(a.data, b.data)

        cfg_sgd = OptimConfig(eta=eta, rho=0.0, lam=0.0)
        c1, _ = CflatStepper().step(orc, theta, batch, cfg_sgd)
        c2, _ = SgdStepper().step(orc, theta, batch, cfg_sgd)
        assert np.array_equal(c1.data, c2.data)


def test_perturbation_norm_bounded_by_rho():
    rng = SeededRng(4)
    oracle = MlpOracle(MlpSpec(4, (5,), 3))
    cfg = OptimConfig(eta=0.05, rho=0.15, lam=0.2)
    for trial in range(20):
        theta = ParamVector(rng.normal(size=oracle.dim), oracle.manifest)
        batch = dummy_batch(6, 4, 3, seed=100 + trial)
        g = oracle.grad(theta, batch)
        eps0 = sam_perturb(g, cfg.rho, cfg.eps_guard)
        assert norm2(eps0) <= cfg.rho + 1e-15
        h = oracle.hvp(theta, g.with_data(g.data / (norm2(g) + EPS)), batch)
        eps1 = h.with_data(cfg.rho * h.data / (norm2(h) + EPS))
        assert norm2(eps1) <= cfg.rho + 1e-15


def test_two_valley_cflat_selects_flat_sgd_stays_sharp():
    # brute-force trajectory comparison over a grid of starts between the
    # valleys: at eta=0.2 the sharp basin is stable for SGD but the combined
    # update kicks C-Flat out of it once lam is large enough.
    oracle = TwoValley()

    def run(step_fn, x0, cfg, steps=600):
        theta = ParamVector([x0])
        for _ in range(steps):
            theta, _ = step_fn(oracle, theta, None, cfg)
        return theta.data[0]

    starts = [0.75, 0.8, 0.85, 0.9, 0.95]
    cfg_sgd = OptimConfig(eta=0.2, rho=0.0, lam=0.0)
    cfg_cflat = OptimConfig(eta=0.2, rho=0.2, lam=1.0)
    cfg_lam0 = OptimConfig(eta=0.2, rho=0.2, lam=0.0)
    for x0 in starts:
        assert abs(run(SgdStepper().step, x0, cfg_sgd) - 1.0) < 0.05
        assert abs(run(CflatStepper().step, x0, cfg_cflat) + 1.0) < 0.25
        # the zeroth-order part alone stalls at the basin boundary
        assert run(CflatStepper().step, x0, cfg_lam0) > 0.5


def test_monotone_loss_decrease_small_eta_all_optimizers():
    # eta = 0.1 / lambda_max; perturbation scales small enough that the
    # 100-step window stays in the descent regime (the normalized first-order
    # term gives constant-size steps once iterates reach a rho-scale ball)
    H = np.diag([1.0, 2.0, 4.0])
    q = make_quadratic(H)
    cfg = OptimConfig(eta=0.1 / 4.0, rho=0.01, lam=0.05)
    for name in ("sgd", "sam", "cflat", "cflat++"):
        stepper = make_stepper(name)
        theta = ParamVector([2.0, -2.0, 1.0])
        prev = q.loss(theta)
        for _ in range(100):
            theta, stats = stepper.step(q, theta, None, cfg)
            now = q.loss(theta)
            assert now <= prev + 1e-12
            prev = now


# ---------------------------------------------------------------------------
# schedules and proxy
# ---------------------------------------------------------------------------


def test_rho_schedule_endpoints_and_midpoint():
    cfg = OptimConfig(eta=1.0, rho=0.2, rho_min=0.05, rho_max=0.2,
                      eta_min=0.0, eta_max=1.0)
    assert rho_schedule(cfg, 1.0) == pytest.approx(0.2)
    assert rho_schedule(cfg, 0.0) == pytest.approx(0.05)
    assert rho_schedule(cfg, 0.5) == pytest.approx(0.125)


def test_rho_schedule_constant_when_eta_range_degenerate():
    cfg = OptimConfig(eta=0.3, rho=0.2, eta_min=0.3, eta_max=0.3)
    assert rho_schedule(cfg, 0.3) == 0.2


def test_rho_schedule_rejects_out_of_range_eta():
    cfg = OptimConfig(eta=1.0, rho=0.2, rho_min=0.05, rho_max=0.2,
                      eta_min=0.1, eta_max=1.0)
    with pytest.raises(ValueError, match="outside"):
        rho_schedule(cfg, 0.01)


def test_proxy_value_midpoint_asymptote_flat():
    state = ProxyState(A=5.0, k=0.01, i0=80, eta0=5e-3, i=80)
    assert proxy_value(state) == pytest.approx(2.5)
    far = ProxyState(A=5.0, k=0.01, i0=80, eta0=5e-3, i=80 + 10**6)
    assert abs(proxy_value(far) - 5.0) <= 1e-9
    flat = ProxyState(A=5.0, k=0.0, i0=80, eta0=5e-3, i=7)
    assert proxy_value(flat) == pytest.approx(2.5)


def test_cflatpp_error_feedback_arithmetic():
    # s = 3.0 > proxy = 2.5 so the flatness branch runs and A grows
    q = make_quadratic(np.eye(2))
    theta = ParamVector([math.sqrt(3.0), 0.0])
    stepper = CflatPPStepper(ProxyState(A=5.0, k=0.01, i0=80, eta0=5e-3, i=80))
    _, stats = stepper.step(q, theta, None, OptimConfig(eta=0.1))
    new_state = stepper.state
    assert stats.proxy_value == pytest.approx(2.5)
    assert stats.used_cflat
    assert new_state.A == pytest.approx(5.0 + 5e-3 * 0.5, rel=1e-12)
    assert new_state.i == 81


def test_cflatpp_sgd_branch_shrinks_bound():
    q = make_quadratic(np.eye(2))
    theta = ParamVector([0.1, 0.0])  # s = 0.01 < proxy
    stepper = CflatPPStepper(ProxyState(A=5.0, k=0.01, i0=80, eta0=5e-3, i=80))
    _, stats = stepper.step(q, theta, None, OptimConfig(eta=0.1))
    new_state = stepper.state
    assert not stats.used_cflat
    assert stats.hvp_evals == 0 and stats.grad_evals == 1
    assert new_state.A < 5.0


def test_cflatpp_stationary_point_never_fires():
    q = make_quadratic(np.eye(2), c=np.array([0.4, 0.4]))
    theta = ParamVector([0.4, 0.4])
    stepper = CflatPPStepper(ProxyState())
    for _ in range(50):
        theta, stats = stepper.step(q, theta, None, OptimConfig(eta=0.1))
        assert not stats.used_cflat


def test_cflatpp_gating_is_exact_on_mlp_run():
    rng = SeededRng(5)
    oracle = MlpOracle(MlpSpec(4, (6,), 3))
    x = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, 60)
    stepper = make_stepper("cflat++", proxy=ProxyState(A=1.0, k=0.05, i0=10, eta0=5e-3))
    theta, trace = train_epochs(
        oracle, oracle.init_theta(rng.spawn(0)), x, y, OptimConfig(eta=0.2), stepper,
        epochs=4, batch_size=10, rng=rng.spawn(1),
    )
    fired = sum(s.used_cflat for s in trace)
    assert 0 < fired < len(trace)
    for s in trace:
        assert s.used_cflat == (s.proxy_value - s.sq_grad_norm <= 0)
        if s.used_cflat:
            assert s.hvp_evals >= 2


# ---------------------------------------------------------------------------
# hybrid plans
# ---------------------------------------------------------------------------


def test_hybrid_plan_pure_cases():
    assert hybrid_step_plan(6, 1.0, "cflat_first").all()
    assert not hybrid_step_plan(6, 0.0, "cflat_last").any()


def test_hybrid_plan_suffix_rounding():
    plan = hybrid_step_plan(8, 0.25, "cflat_last")
    assert plan.tolist() == [False] * 6 + [True] * 2
    plan = hybrid_step_plan(8, 0.25, "cflat_first")
    assert plan.tolist() == [True] * 2 + [False] * 6


def test_hybrid_plan_contiguity_and_count():
    for p in (0.1, 0.3, 0.5, 0.9):
        for ordering in ("cflat_first", "cflat_last"):
            plan = hybrid_step_plan(17, p, ordering)
            assert plan.sum() == round(p * 17)
            idx = np.flatnonzero(plan)
            if len(idx):
                assert (np.diff(idx) == 1).all()


# ---------------------------------------------------------------------------
# train_epochs
# ---------------------------------------------------------------------------


def test_train_epochs_zero_epochs():
    q = make_quadratic(np.eye(2))
    theta0 = ParamVector([1.0, 1.0])
    theta, trace = train_epochs(
        q, theta0, np.zeros((4, 2)), np.zeros(4, dtype=int), OptimConfig(eta=0.1),
        make_stepper("sgd"), epochs=0, batch_size=2, rng=SeededRng(0),
    )
    assert trace == []
    assert np.array_equal(theta.data, theta0.data)


def test_train_epochs_full_batch_equals_deterministic_sequence():
    q = make_quadratic(np.diag([1.0, 2.0]))
    x = np.zeros((5, 2))
    y = np.zeros(5, dtype=int)
    cfg = OptimConfig(eta=0.1)
    theta, trace = train_epochs(
        q, ParamVector([1.0, 1.0]), x, y, cfg, make_stepper("sgd"),
        epochs=3, batch_size=5, rng=SeededRng(1),
    )
    manual = ParamVector([1.0, 1.0])
    for _ in range(3):
        manual, _ = SgdStepper().step(q, manual, Batch(x, y), cfg)
    assert np.array_equal(theta.data, manual.data)
    assert len(trace) == 3


def test_train_epochs_hybrid_proportion_matches_plan():
    rng = SeededRng(6)
    oracle = MlpOracle(MlpSpec(3, (4,), 2))
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, 40)
    stepper = make_stepper("hybrid", hybrid_p=0.25, hybrid_ordering="cflat_last")
    _, trace = train_epochs(
        oracle, oracle.init_theta(rng.spawn(0)), x, y, OptimConfig(eta=0.1), stepper,
        epochs=2, batch_size=10, rng=rng.spawn(1),
    )
    used = [s.used_cflat for s in trace]
    assert len(used) == 8
    assert used == [False] * 6 + [True] * 2


def test_train_epochs_milestone_decay():
    q = make_quadratic(np.eye(2))
    x = np.zeros((2, 2))
    y = np.zeros(2, dtype=int)
    cfg = OptimConfig(eta=0.5)
    theta, _ = train_epochs(
        q, ParamVector([1.0, 0.0]), x, y, cfg, make_stepper("sgd"),
        epochs=2, batch_size=2, rng=SeededRng(2), milestones=(1,), lr_decay=0.1,
    )
    # epoch 0 at eta=0.5, epoch 1 at eta=0.05
    expected = 1.0 * (1 - 0.5) * (1 - 0.05)
    assert theta.data[0] == pytest.approx(expected, rel=1e-14)


def test_train_epochs_divergence_carries_step_index():
    q = make_quadratic(np.array([[4.0]]))
    x = np.zeros((2, 1))
    y = np.zeros(2, dtype=int)
    with pytest.raises(DivergenceError) as err, np.errstate(over="ignore"):
        train_epochs(
            q, ParamVector([1e200]), x, y, OptimConfig(eta=1e200),
            make_stepper("sgd"), epochs=3, batch_size=2, rng=SeededRng(3),
        )
    assert err.value.step == 0
    assert err.value.last_loss is None and err.value.grad_norm is None
    # theta = 1 - 4e100 after step 0; step 1 is finite; step 2's loss overflows
    with pytest.raises(DivergenceError) as err, np.errstate(over="ignore"):
        train_epochs(
            q, ParamVector([1.0]), x, y, OptimConfig(eta=1e100),
            make_stepper("sgd"), epochs=3, batch_size=2, rng=SeededRng(3),
        )
    theta1 = 1.0 - 1e100 * 4.0
    assert err.value.step == 2
    assert err.value.task is None
    assert err.value.last_loss == q.loss(ParamVector([theta1]))
    assert err.value.grad_norm == abs(4.0 * theta1)


def test_divergence_error_keeps_its_context_through_pickle():
    import pickle

    err = DivergenceError("boom", step=3, task=1, last_loss=0.5, grad_norm=2.0)
    back = pickle.loads(pickle.dumps(err))
    assert (str(back), back.step, back.task, back.last_loss, back.grad_norm) == (
        "boom", 3, 1, 0.5, 2.0)


class CountingStepper(SgdStepper):
    def __init__(self):
        self.calls = 0

    def step(self, oracle, theta, batch, cfg):
        self.calls += 1
        return super().step(oracle, theta, batch, cfg)


@pytest.mark.parametrize("x_rows, y, message", [
    (5, [0, 1, 0, 1, -1], "labels must be nonnegative"),
    (5, [0, 1, 0, 1], "labels must be 1-D and aligned with features"),
])
def test_train_epochs_checks_every_label_before_any_step(x_rows, y, message):
    # batch_size 2 leaves a ragged row that no step would ever see
    q = make_quadratic(np.eye(2))
    stepper = CountingStepper()
    with pytest.raises(ValueError, match=message):
        train_epochs(
            q, ParamVector([1.0, 1.0]), np.zeros((x_rows, 2)), np.array(y),
            OptimConfig(eta=0.1), stepper, epochs=1, batch_size=2, rng=SeededRng(0),
        )
    assert stepper.calls == 0


def test_train_epochs_fills_each_step_record_in_place():
    rng = SeededRng(8)
    oracle = MlpOracle(MlpSpec(3, (4,), 2))
    x = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, 12)
    stepper = CflatPPStepper(ProxyState(A=1.0, i0=2))
    _, trace = train_epochs(oracle, oracle.init_theta(rng.spawn(0)), x, y, OptimConfig(eta=0.1), stepper,
                            epochs=3, batch_size=4, rng=rng.spawn(1))
    assert [s.epoch for s in trace] == [0] * 3 + [1] * 3 + [2] * 3
    assert len({id(s) for s in trace}) == len(trace)
    assert all(s.proxy_value is not None for s in trace)
    assert stepper.state.i == len(trace) + 1


def test_optimizer_vectors_are_read_only():
    rng = SeededRng(9)
    oracle = MlpOracle(MlpSpec(3, (4,), 2))
    theta = oracle.init_theta(rng.spawn(0))
    batch = Batch(rng.normal(size=(6, 3)), rng.integers(0, 2, 6))
    cfg = OptimConfig(eta=0.1)
    g = oracle.grad(theta, batch)
    vectors = [sam_perturb(g, 0.2, EPS), ascent_point(theta, g, cfg)]
    for name in OPTIMIZER_NAMES:
        d, _ = make_stepper(name).direction(oracle, theta, batch, cfg)
        vectors += [d, make_stepper(name).step(oracle, theta, batch, cfg)[0]]
    for v in vectors:
        assert not v.data.flags.writeable
        assert v.manifest == theta.manifest


def test_train_epochs_batch_size_validation():
    q = make_quadratic(np.eye(2))
    with pytest.raises(ValueError, match="batch_size"):
        train_epochs(
            q, ParamVector([1.0, 1.0]), np.zeros((2, 2)), np.zeros(2, dtype=int),
            OptimConfig(eta=0.1), make_stepper("sgd"), epochs=1, batch_size=5,
            rng=SeededRng(0),
        )


def test_sq_grad_norm_trend_decreases_on_converging_run():
    rng = SeededRng(7)
    oracle = MlpOracle(MlpSpec(4, (8,), 2))
    x = np.concatenate([rng.normal(size=(30, 4)) + 2.0, rng.normal(size=(30, 4)) - 2.0])
    y = np.array([0] * 30 + [1] * 30)
    for name in ("sgd", "cflat"):
        _, trace = train_epochs(
            oracle, oracle.init_theta(rng.spawn(0)), x, y, OptimConfig(eta=0.5, rho=0.1, lam=0.2),
            make_stepper(name), epochs=10, batch_size=20, rng=rng.spawn(1),
        )
        series = [s.sq_grad_norm for s in trace]
        assert np.mean(series[-10:]) < np.mean(series[:10])


def test_optim_config_validation():
    with pytest.raises(ValueError):
        OptimConfig(eta=-0.1)
    with pytest.raises(ValueError):
        OptimConfig(eta=0.1, rho=-0.2)
    with pytest.raises(ValueError):
        OptimConfig(eta=0.1, lam=-1.0)
    with pytest.raises(ValueError):
        OptimConfig(eta=0.1, rho=0.5, rho_min=0.6, rho_max=0.7)
    with pytest.raises(ValueError, match="unknown optimizer"):
        make_stepper("adam")
