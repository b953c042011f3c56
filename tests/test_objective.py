import math

import numpy as np
import pytest

from cflat.continual import DistillObjective
from cflat.numcore import ParamVector, SeededRng, norm2
from cflat.objective import (
    Batch,
    MlpOracle,
    MlpSpec,
    make_logreg,
    make_mlp,
    make_quadratic,
)
from test_acceptance import dense_logreg_hessian


def random_batch(rng, n, d_in, n_classes):
    return Batch(rng.normal(size=(n, d_in)), rng.integers(0, n_classes, n))


def central_diff_grad(loss_fn, theta, delta):
    """Per-coordinate central finite differences of the loss."""
    base = theta.data
    out = np.zeros(theta.dim)
    for i in range(theta.dim):
        up = base.copy()
        up[i] += delta
        dn = base.copy()
        dn[i] -= delta
        out[i] = (loss_fn(theta.with_data(up)) - loss_fn(theta.with_data(dn))) / (2 * delta)
    return out


def central_diff_hvp(grad_fn, theta, v, delta_fd=1e-4):
    """Two-sided HVP oracle: (g(theta + d vhat) - g(theta - d vhat)) / (2d) * ||v||."""
    vnorm = norm2(v)
    if vnorm == 0:
        return np.zeros(theta.dim)
    delta = delta_fd * (1.0 + norm2(theta))
    vhat = v.data / vnorm
    gp = grad_fn(theta.with_data(theta.data + delta * vhat))
    gm = grad_fn(theta.with_data(theta.data - delta * vhat))
    return (gp.data - gm.data) * (vnorm / (2 * delta))


# ---------------------------------------------------------------------------
# quadratic oracle
# ---------------------------------------------------------------------------


def test_quadratic_identity_loss():
    q = make_quadratic(np.eye(2))
    assert q.loss(ParamVector([1.0, 1.0])) == 1.0
    assert q.loss(ParamVector([0.0, 0.0])) == 0.0


def test_quadratic_gradient_and_stationarity():
    q = make_quadratic(np.diag([1.0, 2.0]))
    g = q.grad(ParamVector([1.0, 1.0]))
    np.testing.assert_allclose(g.data, [1.0, 2.0])
    assert np.array_equal(q.grad(ParamVector([0.0, 0.0])).data, np.zeros(2))


def test_quadratic_hvp_exact():
    q = make_quadratic(np.diag([1.0, 2.0, 3.0]))
    hv = q.hvp(ParamVector(np.zeros(3)), ParamVector([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(hv.data, [1.0, 2.0, 3.0])
    zero = q.hvp(ParamVector(np.zeros(3)), ParamVector(np.zeros(3)))
    assert np.array_equal(zero.data, np.zeros(3))


def test_quadratic_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        make_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_quadratic_center():
    c = np.array([1.0, -1.0])
    q = make_quadratic(2.0 * np.eye(2), c)
    assert q.loss(ParamVector(c)) == 0.0
    np.testing.assert_allclose(q.grad(ParamVector([2.0, 0.0])).data, [2.0, 2.0])


# ---------------------------------------------------------------------------
# logistic oracle
# ---------------------------------------------------------------------------


def test_logreg_uniform_loss_is_log_c():
    for C in (2, 3, 7):
        lr = make_logreg(4, C)
        theta = ParamVector(np.zeros(lr.dim), lr.manifest)
        batch = random_batch(SeededRng(1), 16, 4, C)
        assert lr.loss(theta, batch) == pytest.approx(math.log(C), rel=1e-12)


def test_logreg_exact_hvp_matches_finite_difference():
    rng = SeededRng(2)
    lr = make_logreg(3, 4, l2=0.01)
    theta = ParamVector(rng.normal(size=lr.dim), lr.manifest)
    batch = random_batch(rng, 12, 3, 4)
    for _ in range(5):
        v = ParamVector(rng.normal(size=lr.dim), lr.manifest)
        exact = lr.hvp(theta, v, batch)
        approx = central_diff_hvp(lambda th: lr.grad(th, batch), theta, v, 1e-5)
        rel = np.max(np.abs(exact.data - approx)) / max(np.max(np.abs(exact.data)), 1e-12)
        assert rel <= 1e-6


def test_logreg_hessian_positive_semidefinite():
    rng = SeededRng(3)
    lr = make_logreg(5, 3, l2=0.0)
    theta = ParamVector(rng.normal(size=lr.dim), lr.manifest)
    batch = random_batch(rng, 20, 5, 3)
    for _ in range(20):
        v = ParamVector(rng.normal(size=lr.dim), lr.manifest)
        hv = lr.hvp(theta, v, batch)
        assert float(v.data @ hv.data) >= -1e-10


def test_logreg_hvp_symmetry_and_linearity():
    rng = SeededRng(4)
    lr = make_logreg(4, 3, l2=0.05)
    theta = ParamVector(rng.normal(size=lr.dim), lr.manifest)
    batch = random_batch(rng, 10, 4, 3)
    u = ParamVector(rng.normal(size=lr.dim), lr.manifest)
    v = ParamVector(rng.normal(size=lr.dim), lr.manifest)
    hu = lr.hvp(theta, u, batch)
    hv = lr.hvp(theta, v, batch)
    assert abs(float(u.data @ hv.data) - float(v.data @ hu.data)) <= 1e-10
    # power-of-two scaling commutes with every rounding, so this is exact
    hv2 = lr.hvp(theta, v.with_data(2.0 * v.data), batch)
    assert np.array_equal(hv2.data, 2.0 * hv.data)
    hv3 = lr.hvp(theta, v.with_data(3.0 * v.data), batch)
    np.testing.assert_allclose(hv3.data, 3.0 * hv.data, rtol=1e-12)


@pytest.mark.parametrize("call", [
    lambda lr, theta: lr.loss(theta, None),
    lambda lr, theta: lr.grad(theta, None),
    lambda lr, theta: lr.hvp(theta, theta, None),
], ids=["loss", "grad", "hvp"])
def test_logreg_requires_a_batch(call):
    lr = make_logreg(2, 3)
    theta = ParamVector(np.zeros(lr.dim), lr.manifest)
    with pytest.raises(ValueError, match="requires a batch"):
        call(lr, theta)


def test_logreg_label_outside_head_rejected():
    lr = make_logreg(2, 2)
    theta = ParamVector(np.zeros(lr.dim), lr.manifest)
    batch = Batch(np.zeros((1, 2)), np.array([5]))
    with pytest.raises(ValueError, match="outside head width"):
        lr.loss(theta, batch)


# ---------------------------------------------------------------------------
# MLP oracle
# ---------------------------------------------------------------------------


def test_mlp_matches_straight_line_reimplementation():
    # duplicate implementation written inline, sharing nothing with the oracle
    rng = SeededRng(5)
    spec = MlpSpec(d_in=3, hidden=(4,), n_classes=3, activation="tanh", l2=0.01)
    oracle = make_mlp(spec, rng.spawn(0))
    theta = oracle.theta0
    batch = random_batch(rng, 8, 3, 3)

    W0 = theta.view("W0")
    b0 = theta.view("b0")
    W1 = theta.view("W1")
    b1 = theta.view("b1")
    hidden = np.tanh(batch.x @ W0.T + b0)
    logits = hidden @ W1.T + b1
    per_example = []
    for i in range(batch.n):
        z = logits[i]
        per_example.append(np.log(np.sum(np.exp(z))) - z[batch.y[i]])
    expected = float(np.mean(per_example)) + 0.5 * 0.01 * float(theta.data @ theta.data)

    assert oracle.loss(theta, batch) == pytest.approx(expected, rel=1e-12)


def test_mlp_hidden_unit_permutation_invariance():
    rng = SeededRng(6)
    spec = MlpSpec(d_in=4, hidden=(5,), n_classes=3)
    oracle = make_mlp(spec, rng.spawn(0))
    theta = oracle.theta0
    batch = random_batch(rng, 10, 4, 3)

    data = theta.data.copy()
    swapped = theta.with_data(data)
    W0 = swapped.view("W0").copy()
    b0 = swapped.view("b0").copy()
    W1 = swapped.view("W1").copy()
    W0[[1, 3]] = W0[[3, 1]]
    b0[[1, 3]] = b0[[3, 1]]
    W1[:, [1, 3]] = W1[:, [3, 1]]
    parts = np.concatenate([W0.ravel(), b0, W1.ravel(), swapped.view("b1")])
    theta_swapped = theta.with_data(parts)

    assert oracle.loss(theta, batch) == pytest.approx(
        oracle.loss(theta_swapped, batch), rel=1e-12
    )


def test_mlp_same_seed_same_initial_loss():
    spec = MlpSpec(d_in=4, hidden=(6,), n_classes=2)
    batch = random_batch(SeededRng(7), 12, 4, 2)
    a = make_mlp(spec, SeededRng(42, 1))
    b = make_mlp(spec, SeededRng(42, 1))
    assert a.loss(a.theta0, batch) == b.loss(b.theta0, batch)


def test_mlp_zero_hidden_reduces_to_logreg():
    # with no hidden layer the logits are affine in theta, so the HVP is the
    # exact logistic Hessian product, on a grown head as well
    rng = SeededRng(8)
    mlp = make_mlp(MlpSpec(d_in=5, hidden=(), n_classes=4, l2=0.02), rng.spawn(0))
    lr = make_logreg(5, 4, l2=0.02)
    assert isinstance(lr, MlpOracle) and lr.spec == mlp.spec
    for oracle in (mlp, mlp.with_head(5)):
        theta = ParamVector(rng.normal(size=oracle.dim), oracle.manifest)
        batch = random_batch(rng, 9, 5, oracle.n_classes)
        H = dense_logreg_hessian(oracle, theta, batch)
        for _ in range(3):
            v = ParamVector(rng.normal(size=oracle.dim), oracle.manifest)
            np.testing.assert_allclose(
                oracle.hvp(theta, v, batch).data, H @ v.data, rtol=0, atol=1e-10
            )


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_mlp_gradient_matches_central_differences(activation):
    rng = SeededRng(9)
    spec = MlpSpec(d_in=3, hidden=(4,), n_classes=3, activation=activation, l2=0.01)
    oracle = make_mlp(spec, rng.spawn(0))
    batch = random_batch(rng, 6, 3, 3)
    theta = oracle.theta0
    if activation == "relu":
        # keep pre-activations away from the kink before differencing
        _, pre = oracle._forward(theta, batch.x)
        assert np.min(np.abs(pre[0])) > 1e-6
    g = oracle.grad(theta, batch)
    fd = central_diff_grad(lambda th: oracle.loss(th, batch), theta, 1e-5)
    rel = np.max(np.abs(fd - g.data)) / np.max(np.abs(g.data))
    assert rel <= 1e-4


def count_forward_passes(monkeypatch, oracle):
    calls = []
    forward = oracle._forward

    def counted(theta, x):
        calls.append(x.shape[0])
        return forward(theta, x)

    monkeypatch.setattr(oracle, "_forward", counted)
    return calls


def softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_mlp_grad_is_one_forward_pass_and_matches_output_error_hook(monkeypatch, activation):
    rng = SeededRng(13)
    spec = MlpSpec(d_in=4, hidden=(6, 5), n_classes=3, activation=activation, l2=0.03)
    oracle = make_mlp(spec, rng.spawn(0))
    theta = oracle.theta0
    batch = random_batch(rng, 9, 4, 3)
    dlogits = softmax_rows(oracle.logits(theta, batch.x))
    dlogits[np.arange(batch.n), batch.y] -= 1.0
    dlogits /= batch.n
    expected = oracle.grad_from_output_error(theta, batch, lambda z: dlogits)

    calls = count_forward_passes(monkeypatch, oracle)
    got = oracle.grad(theta, batch)
    assert calls == [batch.n]
    assert got.data.tobytes() == expected.data.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_distill_grad_is_one_forward_pass_of_the_current_model(monkeypatch, activation):
    rng = SeededRng(14)
    oracle = make_mlp(MlpSpec(3, (5,), 4, activation=activation, l2=0.02), rng.spawn(0))
    old = oracle.with_head(2)
    theta_old = ParamVector(rng.normal(size=old.dim), old.manifest)
    obj = DistillObjective(oracle, theta_old, temperature=2.0)
    theta = ParamVector(rng.normal(size=oracle.dim), oracle.manifest)
    batch = random_batch(rng, 6, 3, 4)
    G = softmax_rows(oracle.logits(theta, batch.x))
    G[np.arange(batch.n), batch.y] -= 1.0
    G /= batch.n
    p = softmax_rows(old.logits(theta_old, batch.x) / 2.0)
    q = softmax_rows(oracle.logits(theta, batch.x)[:, :2] / 2.0)
    G[:, :2] += (q - p) / (2.0 * batch.n)
    expected = oracle.grad_from_output_error(theta, batch, lambda z: G)

    calls = count_forward_passes(monkeypatch, oracle)
    got = obj.grad(theta, batch)
    assert calls == [batch.n]
    assert got.data.tobytes() == expected.data.tobytes()


def route_forward_passes(monkeypatch, oracle, entries):
    """Patch ``oracle`` so each ``_forward`` call records the entry it came through."""
    inside = []
    forward = oracle._forward

    def recorded(theta, x):
        entries.append(inside[-1] if inside else None)
        return forward(theta, x)

    def entry(name):
        method = getattr(oracle, name)

        def wrapped(*args, **kwargs):
            inside.append(name)
            try:
                return method(*args, **kwargs)
            finally:
                inside.pop()
        return wrapped

    monkeypatch.setattr(oracle, "_forward", recorded)
    for name in ("logits", "grad_from_output_error"):
        monkeypatch.setattr(oracle, name, entry(name))


@pytest.mark.parametrize("objective", ["mlp", "logreg", "distill"])
def test_every_forward_pass_enters_through_logits_or_grad_from_output_error(
        monkeypatch, objective):
    rng = SeededRng(16)
    hidden = () if objective == "logreg" else (5,)
    oracle = MlpOracle(MlpSpec(3, hidden, 4, l2=0.01))
    models = [oracle]
    obj = oracle
    if objective == "distill":
        old = oracle.with_head(2)
        obj = DistillObjective(oracle, ParamVector(rng.normal(size=old.dim), old.manifest))
        models.append(obj.old_oracle)
    entries = []
    for model in models:
        route_forward_passes(monkeypatch, model, entries)
    theta = ParamVector(rng.normal(size=oracle.dim), oracle.manifest)
    v = theta.with_data(rng.normal(size=theta.dim))
    batch = random_batch(rng, 6, 3, 4)
    obj.loss(theta, batch)
    obj.grad(theta, batch)
    obj.hvp(theta, v, batch)
    assert entries and None not in entries


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_returned_arrays_survive_later_oracle_calls(activation):
    rng = SeededRng(15)
    oracle = make_mlp(MlpSpec(4, (6, 5), 3, activation=activation, l2=0.01), rng.spawn(0))
    theta = oracle.theta0
    batch = random_batch(rng, 12, 4, 3)
    logits = oracle.logits(theta, batch.x)
    reps = [oracle.representations(theta, batch.x, layer) for layer in range(3)]
    kept = [logits.copy()] + [r.copy() for r in reps]

    other = random_batch(rng, 12, 4, 3)
    shifted = theta.with_data(theta.data + rng.normal(size=theta.dim))
    oracle.loss(shifted, other)
    oracle.grad(shifted, other)
    oracle.hvp(shifted, theta, other)
    oracle.representations(shifted, other.x, 1)
    for got, want in zip([logits] + reps, kept):
        assert got.tobytes() == want.tobytes()
    assert reps[0] is not batch.x


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_workspace_results_match_a_fresh_oracle_across_row_counts(activation):
    rng = SeededRng(16)
    spec = MlpSpec(8, (16, 12), 5, activation=activation, l2=0.02)
    oracle = make_mlp(spec, rng.spawn(0))
    theta = oracle.theta0
    for n in (32, 512, 32, 512, 32):
        batch = random_batch(rng, n, 8, 5)
        v = theta.with_data(rng.normal(size=theta.dim))
        fresh = make_mlp(spec, rng.spawn(0))
        assert oracle.loss(theta, batch) == fresh.loss(theta, batch)
        assert oracle.grad(theta, batch).data.tobytes() == fresh.grad(theta, batch).data.tobytes()
        fresh = make_mlp(spec, rng.spawn(0))
        assert oracle.hvp(theta, v, batch).data.tobytes() == fresh.hvp(theta, v, batch).data.tobytes()
        theta = theta.with_data(theta.data - 0.1 * oracle.grad(theta, batch).data)


def test_repeated_grads_reuse_the_workspace_buffers():
    rng = SeededRng(17)
    oracle = make_mlp(MlpSpec(4, (6, 5), 3), rng.spawn(0))
    theta = oracle.theta0
    small, large = random_batch(rng, 32, 4, 3), random_batch(rng, 64, 4, 3)
    oracle.grad(theta, small)
    buffers = [buf for layer in oracle._workspace(32) for buf in layer]
    assert len(buffers) == 8
    for batch in (small, large, small):
        oracle.grad(theta, batch)
    again = [buf for layer in oracle._workspace(32) for buf in layer]
    assert all(a is b for a, b in zip(again, buffers))
    acts, pre = oracle._forward(theta, small.x)
    assert acts[1] is buffers[1] and pre[0] is buffers[0]


def test_workspace_keeps_a_bounded_number_of_row_counts():
    rng = SeededRng(18)
    oracle = make_mlp(MlpSpec(3, (4,), 2), rng.spawn(0))
    for n in range(1, 21):
        oracle.grad(oracle.theta0, random_batch(rng, n, 3, 2))
    assert 1 <= len(oracle._workspaces) <= 8
    assert 20 in oracle._workspaces


def test_mlp_hvp_zero_direction():
    rng = SeededRng(10)
    oracle = make_mlp(MlpSpec(3, (4,), 2), rng)
    theta = oracle.theta0
    batch = random_batch(rng, 5, 3, 2)
    out = oracle.hvp(theta, theta.with_data(np.zeros(theta.dim)), batch)
    assert np.array_equal(out.data, np.zeros(theta.dim))


def test_mlp_forward_hvp_close_to_central_hvp():
    rng = SeededRng(11)
    spec = MlpSpec(d_in=3, hidden=(5,), n_classes=3, activation="tanh")
    oracle = make_mlp(spec, rng.spawn(0))
    theta = oracle.theta0
    batch = random_batch(rng, 8, 3, 3)
    for _ in range(5):
        v = ParamVector(rng.normal(size=oracle.dim), oracle.manifest)
        fwd = oracle.hvp(theta, v, batch)
        ctr = central_diff_hvp(lambda th: oracle.grad(th, batch), theta, v)
        rel = np.linalg.norm(fwd.data - ctr) / max(np.linalg.norm(ctr), 1e-12)
        assert rel <= 1e-3


def test_mlp_dimension_mismatch():
    oracle = make_mlp(MlpSpec(3, (4,), 2), SeededRng(12))
    with pytest.raises(ValueError, match="dimension mismatch"):
        oracle.loss(ParamVector(np.zeros(3)), random_batch(SeededRng(0), 4, 3, 2))


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 2)), np.array([0, -1]))
    with pytest.raises(ValueError):
        Batch(np.zeros(3), np.array([0]))
