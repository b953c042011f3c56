import gc
import math
import weakref

import numpy as np
import pytest

from cflat.continual import DistillObjective
from cflat.numcore import ParamVector, SeededRng, norm2, stack
from cflat.continual import grow_head
from cflat.objective import (
    Batch,
    MlpOracle,
    MlpSpec,
    _TRACE_BLOCK_ROWS,
    _logsumexp,
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
        lr = MlpOracle(MlpSpec(4, (), C))
        theta = ParamVector(np.zeros(lr.dim), lr.manifest)
        batch = random_batch(SeededRng(1), 16, 4, C)
        assert lr.loss(theta, batch) == pytest.approx(math.log(C), rel=1e-12)


def test_logreg_exact_hvp_matches_finite_difference():
    rng = SeededRng(2)
    lr = MlpOracle(MlpSpec(3, (), 4, l2=0.01))
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
    lr = MlpOracle(MlpSpec(5, (), 3, l2=0.0))
    theta = ParamVector(rng.normal(size=lr.dim), lr.manifest)
    batch = random_batch(rng, 20, 5, 3)
    for _ in range(20):
        v = ParamVector(rng.normal(size=lr.dim), lr.manifest)
        hv = lr.hvp(theta, v, batch)
        assert float(v.data @ hv.data) >= -1e-10


def test_logreg_hvp_symmetry_and_linearity():
    rng = SeededRng(4)
    lr = MlpOracle(MlpSpec(4, (), 3, l2=0.05))
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
    lr = MlpOracle(MlpSpec(2, (), 3))
    theta = ParamVector(np.zeros(lr.dim), lr.manifest)
    with pytest.raises(ValueError, match="requires a batch"):
        call(lr, theta)


def test_logreg_label_outside_head_rejected():
    lr = MlpOracle(MlpSpec(2, (), 2))
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
    oracle = MlpOracle(spec)
    theta = oracle.init_theta(rng.spawn(0))
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
    oracle = MlpOracle(spec)
    theta = oracle.init_theta(rng.spawn(0))
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
    a, b = MlpOracle(spec), MlpOracle(spec)
    assert a.loss(a.init_theta(SeededRng(42, 1)), batch) == \
        b.loss(b.init_theta(SeededRng(42, 1)), batch)


def test_mlp_zero_hidden_reduces_to_logreg():
    # with no hidden layer the logits are affine in theta, so the HVP is the
    # exact logistic Hessian product, on a grown head as well
    rng = SeededRng(8)
    mlp = MlpOracle(MlpSpec(d_in=5, hidden=(), n_classes=4, l2=0.02))
    lr = MlpOracle(MlpSpec(5, (), 4, l2=0.02))
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
    oracle = MlpOracle(spec)
    batch = random_batch(rng, 6, 3, 3)
    theta = oracle.init_theta(rng.spawn(0))
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
    oracle = MlpOracle(spec)
    theta = oracle.init_theta(rng.spawn(0))
    batch = random_batch(rng, 9, 4, 3)
    dlogits = softmax_rows(oracle.logits(theta, batch.x))
    dlogits[np.arange(batch.n), batch.y] -= 1.0
    dlogits /= batch.n
    expected = oracle.grad_from_output_error(theta, batch, lambda z: (dlogits, _logsumexp(z)))

    calls = count_forward_passes(monkeypatch, oracle)
    got = oracle.grad(theta, batch)
    assert calls == [batch.n]
    assert got.data.tobytes() == expected.data.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_distill_grad_is_one_forward_pass_of_the_current_model(monkeypatch, activation):
    rng = SeededRng(14)
    oracle = MlpOracle(MlpSpec(3, (5,), 4, activation=activation, l2=0.02))
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
    expected = oracle.grad_from_output_error(theta, batch, lambda z: (G, _logsumexp(z)))

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


def objective_pair(kind, rng):
    """(objective, its current-model MlpOracle, a fresh objective equal to it)."""
    hidden = () if kind == "logreg" else (5,)
    spec = MlpSpec(3, hidden, 4, l2=0.01)
    if kind != "distill":
        oracle = MlpOracle(spec)
        return oracle, oracle, MlpOracle(spec)
    old = MlpOracle(spec).with_head(2)
    theta_old = ParamVector(rng.normal(size=old.dim), old.manifest)
    oracle = MlpOracle(spec)
    return DistillObjective(oracle, theta_old), oracle, DistillObjective(MlpOracle(spec), theta_old)


@pytest.mark.parametrize("kind", ["mlp", "logreg", "distill"])
def test_loss_after_grad_reads_the_gradient_pass_and_only_on_the_same_objects(
        monkeypatch, kind):
    rng = SeededRng(17)
    obj, oracle, fresh = objective_pair(kind, rng)
    theta = ParamVector(rng.normal(size=oracle.dim), oracle.manifest)
    batch = random_batch(rng, 6, 3, 4)
    expected = fresh.loss(theta, batch)

    obj.grad(theta, batch)
    calls = count_forward_passes(monkeypatch, oracle)
    assert obj.loss(theta, batch) == expected
    assert calls == []
    z = oracle._loss_and_logits(theta, batch)[1]
    assert not z.flags.writeable
    # an equal theta or batch in a new object runs the forward pass again
    assert obj.loss(theta.with_data(theta.data), batch) == expected
    assert calls == [batch.n]
    assert obj.loss(theta, Batch(batch.x, batch.y)) == expected
    assert calls == [batch.n, batch.n]


def test_batch_takes_its_largest_label_once():
    batch = Batch(np.zeros((3, 2)), np.array([2, 0, 5]))
    assert batch.y_max == 5
    with pytest.raises(TypeError):
        Batch(np.zeros((3, 2)), np.array([2, 0, 5]), 1)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_returned_arrays_survive_later_oracle_calls(activation):
    rng = SeededRng(15)
    oracle = MlpOracle(MlpSpec(4, (6, 5), 3, activation=activation, l2=0.01))
    theta = oracle.init_theta(rng.spawn(0))
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
    oracle = MlpOracle(spec)
    theta = oracle.init_theta(rng.spawn(0))
    for n in (32, 512, 32, 512, 32):
        batch = random_batch(rng, n, 8, 5)
        v = theta.with_data(rng.normal(size=theta.dim))
        fresh = MlpOracle(spec)
        assert oracle.loss(theta, batch) == fresh.loss(theta, batch)
        assert oracle.grad(theta, batch).data.tobytes() == fresh.grad(theta, batch).data.tobytes()
        fresh = MlpOracle(spec)
        assert oracle.hvp(theta, v, batch).data.tobytes() == fresh.hvp(theta, v, batch).data.tobytes()
        theta = theta.with_data(theta.data - 0.1 * oracle.grad(theta, batch).data)


def test_repeated_grads_reuse_the_workspace_buffers():
    rng = SeededRng(17)
    oracle = MlpOracle(MlpSpec(4, (6, 5), 3))
    theta = oracle.init_theta(rng.spawn(0))
    small, large = random_batch(rng, 32, 4, 3), random_batch(rng, 64, 4, 3)
    oracle.grad(theta, small)
    buffers = [buf for layer in oracle._workspace((32,)) for buf in layer]
    assert len(buffers) == 8
    for batch in (small, large, small):
        oracle.grad(theta, batch)
    again = [buf for layer in oracle._workspace((32,)) for buf in layer]
    assert all(a is b for a, b in zip(again, buffers))
    acts, pre = oracle._forward(theta, small.x)
    assert acts[1] is buffers[1] and pre[0] is buffers[0]


def test_workspace_keeps_a_bounded_number_of_row_counts():
    rng = SeededRng(18)
    oracle = MlpOracle(MlpSpec(3, (4,), 2))
    theta = oracle.init_theta(rng.spawn(0))
    for n in range(1, 21):
        oracle.grad(theta, random_batch(rng, n, 3, 2))
    assert 1 <= len(oracle._workspaces) <= 8
    assert (20,) in oracle._workspaces


def test_mlp_hvp_zero_direction():
    rng = SeededRng(10)
    oracle = MlpOracle(MlpSpec(3, (4,), 2))
    theta = oracle.init_theta(rng)
    batch = random_batch(rng, 5, 3, 2)
    out = oracle.hvp(theta, theta.with_data(np.zeros(theta.dim)), batch)
    assert np.array_equal(out.data, np.zeros(theta.dim))


def test_mlp_forward_hvp_close_to_central_hvp():
    rng = SeededRng(11)
    spec = MlpSpec(d_in=3, hidden=(5,), n_classes=3, activation="tanh")
    oracle = MlpOracle(spec)
    theta = oracle.init_theta(rng.spawn(0))
    batch = random_batch(rng, 8, 3, 3)
    for _ in range(5):
        v = ParamVector(rng.normal(size=oracle.dim), oracle.manifest)
        fwd = oracle.hvp(theta, v, batch)
        ctr = central_diff_hvp(lambda th: oracle.grad(th, batch), theta, v)
        rel = np.linalg.norm(fwd.data - ctr) / max(np.linalg.norm(ctr), 1e-12)
        # the R-op is exact: what is left is the central difference's own error
        assert rel <= 1e-6


def test_mlp_dimension_mismatch():
    oracle = MlpOracle(MlpSpec(3, (4,), 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        oracle.loss(ParamVector(np.zeros(3)), random_batch(SeededRng(0), 4, 3, 2))


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 2)), np.array([0, -1]))
    with pytest.raises(ValueError):
        Batch(np.zeros(3), np.array([0]))


class PlainMlp:
    """The MLP written out with per-name views and ``np.concatenate``, sharing
    nothing with the oracle's slices, workspaces or logits cache."""

    def __init__(self, spec):
        self.spec = spec
        self.layers = len(spec.hidden) + 1

    def forward(self, theta, x):
        acts, pre, a = [x], [], x
        for layer in range(self.layers):
            z = a @ theta.view(f"W{layer}").T
            z += theta.view(f"b{layer}")
            pre.append(z)
            if layer < self.layers - 1:
                a = np.tanh(z) if self.spec.activation == "tanh" else np.maximum(z, 0.0)
                acts.append(a)
        return acts, pre

    def loss(self, theta, batch):
        z = self.forward(theta, batch.x)[1][-1]
        ce = float(np.mean(_logsumexp(z) - z[np.arange(batch.n), batch.y]))
        return ce + 0.5 * self.spec.l2 * float(theta.data @ theta.data)

    def grad(self, theta, batch):
        acts, pre = self.forward(theta, batch.x)
        z = pre[-1]
        e = np.exp(z - z.max(axis=1, keepdims=True))
        G = e / e.sum(axis=1, keepdims=True)
        G[np.arange(batch.n), batch.y] -= 1.0
        G /= batch.n
        grads = {}
        for layer in range(self.layers - 1, -1, -1):
            grads[f"W{layer}"] = G.T @ acts[layer]
            grads[f"b{layer}"] = G.sum(axis=0)
            if layer > 0:
                a = acts[layer]
                deriv = 1.0 - a * a if self.spec.activation == "tanh" else pre[layer - 1] > 0.0
                G = (G @ theta.view(f"W{layer}")) * deriv
        flat = np.concatenate([grads[seg.name].ravel() for seg in theta.manifest])
        if self.spec.l2 > 0:
            flat = flat + self.spec.l2 * theta.data
        return flat

    def hvp(self, theta, v, batch):
        """Pearlmutter's R-op written out per layer: an R-forward pass, then an
        R-backward pass from the cross-entropy's logit curvature."""
        acts, pre = self.forward(theta, batch.x)
        tanh = self.spec.activation == "tanh"
        derivs = [1.0 - a * a if tanh else z > 0.0 for a, z in zip(acts[1:], pre)]
        Ras, Rzs = [None], []
        for layer in range(self.layers):
            Rz = acts[layer] @ v.view(f"W{layer}").T
            if layer > 0:
                Rz += Ras[layer] @ theta.view(f"W{layer}").T
            Rz += v.view(f"b{layer}")
            Rzs.append(Rz)
            if layer < self.layers - 1:
                Ras.append(derivs[layer] * Rz)
        z = pre[-1]
        m = z.max(axis=1, keepdims=True)
        e = np.exp(z - m)
        total = e.sum(axis=1, keepdims=True)
        G = e / total
        G[np.arange(batch.n), batch.y] -= 1.0
        G /= batch.n
        p = np.exp(z - (m[:, 0] + np.log(total[:, 0]))[:, None])
        RG = p * Rzs[-1]
        RG = (RG - p * RG.sum(axis=1, keepdims=True)) / batch.n
        grads = {}
        for layer in range(self.layers - 1, -1, -1):
            grads[f"W{layer}"] = RG.T @ acts[layer]
            if layer > 0:
                grads[f"W{layer}"] += G.T @ Ras[layer]
            grads[f"b{layer}"] = RG.sum(axis=0)
            if layer > 0:
                W, V = theta.view(f"W{layer}"), v.view(f"W{layer}")
                deriv = derivs[layer - 1]
                G_in = (G @ W) * deriv
                RG = (RG @ W + G @ V) * deriv
                if tanh:  # tanh'' = -2 tanh tanh'
                    RG = RG - acts[layer] * G_in * Rzs[layer - 1] * 2.0
                G = G_in
        flat = np.concatenate([grads[seg.name].ravel() for seg in theta.manifest])
        if self.spec.l2 > 0:
            flat = flat + self.spec.l2 * v.data
        return flat


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(), (9,), (7, 5)])
@pytest.mark.parametrize("l2", [0.0, 1e-3])
def test_mlp_loss_grad_hvp_equal_a_plain_reference_bit_for_bit(activation, hidden, l2):
    rng = SeededRng(19)
    spec = MlpSpec(6, hidden, 4, activation=activation, l2=l2)
    oracle = MlpOracle(spec)
    plain = PlainMlp(spec)
    theta = oracle.init_theta(rng.spawn(0))
    for n in (32, 512, 7, 32, 512, 7):
        batch = random_batch(rng, n, 6, 4)
        other = random_batch(rng, n, 6, 4)
        v = theta.with_data(rng.normal(size=theta.dim))
        # a loss with no gradient before it, then one read after a gradient
        assert oracle.loss(theta, other) == plain.loss(theta, other)
        g = oracle.grad(theta, batch)
        assert g.data.tobytes() == plain.grad(theta, batch).tobytes()
        assert oracle.loss(theta, batch) == plain.loss(theta, batch)
        hv = oracle.hvp(theta, v, batch)
        assert hv.data.tobytes() == plain.hvp(theta, v, batch).tobytes()
        theta = theta.with_data(theta.data + 0.1 * rng.normal(size=theta.dim))


def test_every_vector_the_oracles_return_is_read_only():
    rng = SeededRng(20)
    batch = random_batch(rng, 5, 3, 2)
    for oracle in (MlpOracle(MlpSpec(3, (), 2, l2=0.1)), MlpOracle(MlpSpec(3, (4,), 2)),
                   make_quadratic(np.eye(3))):
        theta = ParamVector(rng.normal(size=oracle.dim), getattr(oracle, "manifest", None))
        v = theta.with_data(rng.normal(size=oracle.dim))
        outputs = [oracle.grad(theta, batch), oracle.hvp(theta, v, batch),
                   oracle.hvp(theta, v.with_data(np.zeros(oracle.dim)), batch)]
        for out in outputs:
            assert not out.data.flags.writeable
            assert out.manifest == theta.manifest


def test_mlp_rejects_a_theta_laid_out_on_another_manifest():
    rng = SeededRng(21)
    oracle = MlpOracle(MlpSpec(4, (1,), 9))
    other = MlpOracle(MlpSpec(4, (3,), 2))
    assert other.dim == oracle.dim == 23
    theta = ParamVector(rng.normal(size=23), other.manifest)
    batch = random_batch(rng, 5, 4, 2)
    calls = [lambda: oracle.loss(theta, batch), lambda: oracle.grad(theta, batch),
             lambda: oracle.hvp(theta, theta, batch), lambda: oracle.logits(theta, batch.x)]
    for call in calls:
        with pytest.raises(ValueError, match=r"laid out as \[W0\(3, 4\)@0.*expects \[W0\(1, 4\)@0"):
            call()


def test_mlp_accepts_an_equal_manifest_built_elsewhere():
    rng = SeededRng(22)
    oracle = MlpOracle(MlpSpec(3, (4,), 2))
    grown = grow_head(oracle.init_theta(rng.spawn(0)), 2, rng.spawn(1))
    wide = oracle.with_head(4)
    batch = random_batch(rng, 6, 3, 4)
    rebuilt = ParamVector(grown.data, tuple(grown.manifest))
    copy = ParamVector(grown.data, [*grown.manifest])
    assert copy.manifest is not grown.manifest and copy.manifest == wide.manifest
    for theta in (grown, copy, grown, rebuilt):
        g = wide.grad(theta, batch)
        assert g.manifest is theta.manifest
        assert wide.loss(theta, batch) == PlainMlp(wide.spec).loss(theta, batch)


def complex_grad(spec, data, x, y, old=None):
    """The loss gradient written for complex parameters, for complex-step
    differentiation: cross-entropy, L2 and, with ``old = (p_old, T)``, the
    tempered KL to the old distribution on the first len(p_old[0]) classes."""
    widths = spec.widths
    Ws, bs, offset = [], [], 0
    for d_in, d_out in zip(widths[:-1], widths[1:]):
        Ws.append(data[offset:offset + d_out * d_in].reshape(d_out, d_in))
        offset += d_out * d_in
        bs.append(data[offset:offset + d_out])
        offset += d_out
    tanh = spec.activation == "tanh"
    acts, pre, a = [x], [], x
    for layer, (W, b) in enumerate(zip(Ws, bs)):
        z = a @ W.T + b
        pre.append(z)
        if layer < len(Ws) - 1:
            a = np.tanh(z) if tanh else np.where(z.real > 0, z, 0.0)
            acts.append(a)

    def softmax(z):
        e = np.exp(z - z.real.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    n = len(y)
    G = softmax(pre[-1])
    G[np.arange(n), y] -= 1.0
    G /= n
    if old is not None:
        p_old, t = old
        k = p_old.shape[1]
        G[:, :k] += (softmax(pre[-1][:, :k] / t) - p_old) / (t * n)
    parts = []
    for layer in range(len(Ws) - 1, -1, -1):
        parts = [(G.T @ acts[layer]).ravel(), G.sum(axis=0)] + parts
        if layer > 0:
            a = acts[layer]
            deriv = 1.0 - a * a if tanh else (pre[layer - 1].real > 0)
            G = (G @ Ws[layer]) * deriv
    return np.concatenate(parts) + spec.l2 * data


def complex_step_hessian(grad_fn, theta):
    """Dense Hessian, column j = Im(grad(theta + i h e_j)) / h: no subtraction,
    so exact to rounding."""
    h = 1e-30
    cols = []
    for j in range(theta.dim):
        shifted = theta.data.astype(complex)
        shifted[j] += 1j * h
        cols.append(grad_fn(shifted).imag / h)
    return np.array(cols).T


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
@pytest.mark.parametrize("distill", [False, True])
def test_mlp_hvp_equals_a_dense_complex_step_hessian(activation, hidden, distill):
    rng = SeededRng(30)
    spec = MlpSpec(3, hidden, 4, activation=activation, l2=0.02)
    oracle = MlpOracle(spec)
    theta = ParamVector(rng.normal(size=oracle.dim), oracle.manifest)
    batch = random_batch(rng, 9, 3, 4)
    # relu: every pre-activation away from the kink
    assert all(np.min(np.abs(z)) > 1e-3 for z in oracle._forward(theta, batch.x)[1][:-1])
    obj, old = oracle, None
    if distill:
        small = oracle.with_head(2)
        theta_old = ParamVector(rng.normal(size=small.dim), small.manifest)
        obj = DistillObjective(oracle, theta_old, temperature=1.5)
        old = (softmax_rows(small.logits(theta_old, batch.x) / 1.5), 1.5)
    H = complex_step_hessian(lambda data: complex_grad(spec, data, batch.x, batch.y, old), theta)
    np.testing.assert_allclose(H, H.T, rtol=0, atol=1e-13)
    # the gradient the complex step differentiates is the oracle's
    np.testing.assert_allclose(complex_grad(spec, theta.data, batch.x, batch.y, old).real,
                               obj.grad(theta, batch).data, rtol=0, atol=1e-15)
    scale = np.abs(H).max()
    for _ in range(4):
        v = theta.with_data(rng.normal(size=theta.dim))
        hv = obj.hvp(theta, v, batch)
        np.testing.assert_allclose(hv.data, H @ v.data, rtol=0, atol=1e-13 * scale)
    columns = np.array([obj.hvp(theta, theta.with_data(e), batch).data
                        for e in np.eye(theta.dim)]).T
    np.testing.assert_allclose(columns, H, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
@pytest.mark.parametrize("intruder", ["logits", "loss", "representations"])
def test_a_forward_pass_at_the_kept_row_count_drops_the_kept_pass(monkeypatch, hidden,
                                                                  intruder):
    rng = SeededRng(31)
    spec = MlpSpec(3, hidden, 4, l2=0.01)
    oracle = MlpOracle(spec)
    theta = ParamVector(rng.normal(size=oracle.dim), oracle.manifest)
    other = theta.with_data(rng.normal(size=theta.dim))
    batch, same_rows = random_batch(rng, 6, 3, 4), random_batch(rng, 6, 3, 4)
    v = theta.with_data(rng.normal(size=theta.dim))
    expected = MlpOracle(spec).hvp(theta, v, batch)

    oracle.grad(theta, batch)
    calls = count_forward_passes(monkeypatch, oracle)
    # a pass at another row count leaves the kept buffers alone
    oracle.logits(other, random_batch(rng, 7, 3, 4).x)
    assert oracle.hvp(theta, v, batch).data.tobytes() == expected.data.tobytes()
    assert calls == [7]
    run = {
        "logits": lambda: oracle.logits(other, same_rows.x),
        "loss": lambda: oracle.loss(other, same_rows),
        "representations": lambda: oracle.representations(other, same_rows.x, 0),
    }[intruder]
    run()
    assert oracle._last_pass is None
    assert oracle.hvp(theta, v, batch).data.tobytes() == expected.data.tobytes()
    # the product ran its own gradient pass, and the next one reads it
    assert calls == [7, 6, 6]
    assert oracle.hvp(theta, v, batch).data.tobytes() == expected.data.tobytes()
    assert calls == [7, 6, 6]


def test_a_pass_serves_only_the_objective_that_made_it(monkeypatch):
    rng = SeededRng(32)
    spec = MlpSpec(3, (5,), 4, l2=0.01)
    oracle = MlpOracle(spec)
    small = oracle.with_head(2)
    theta_old = ParamVector(rng.normal(size=small.dim), small.manifest)
    obj = DistillObjective(oracle, theta_old)
    theta = ParamVector(rng.normal(size=oracle.dim), oracle.manifest)
    batch = random_batch(rng, 6, 3, 4)
    v = theta.with_data(rng.normal(size=theta.dim))
    want_distill = DistillObjective(MlpOracle(spec), theta_old).hvp(theta, v, batch)
    want_ce = MlpOracle(spec).hvp(theta, v, batch)
    assert np.abs(want_distill.data - want_ce.data).max() > 1e-3

    calls = count_forward_passes(monkeypatch, oracle)
    oracle.grad(theta, batch)
    assert obj.hvp(theta, v, batch).data.tobytes() == want_distill.data.tobytes()
    assert calls == [6, 6]
    assert oracle.hvp(theta, v, batch).data.tobytes() == want_ce.data.tobytes()
    assert calls == [6, 6, 6]
    # a gradient through the shared entry with no objective serves no product
    oracle.grad_from_output_error(theta, batch, lambda z: (np.zeros_like(z), _logsumexp(z)))
    assert oracle.hvp(theta, v, batch).data.tobytes() == want_ce.data.tobytes()
    assert calls == [6, 6, 6, 6, 6]


def test_a_discarded_objective_is_freed_without_the_cycle_collector():
    # the kept pass names its objective weakly, so refcounting alone frees an
    # oracle and its workspaces once the harness drops them
    rng = SeededRng(33)
    spec = MlpSpec(3, (5,), 4, l2=0.01)
    small = MlpOracle(spec).with_head(2)
    theta_old = ParamVector(rng.normal(size=small.dim), small.manifest)
    batch = random_batch(rng, 6, 3, 4)
    gc.disable()
    try:
        oracle = MlpOracle(spec)
        obj = DistillObjective(oracle, theta_old)
        theta = ParamVector(rng.normal(size=oracle.dim), oracle.manifest)
        v = theta.with_data(rng.normal(size=theta.dim))
        obj.hvp(theta, v, batch)
        alive = [weakref.ref(oracle), weakref.ref(obj)]
        del obj
        assert alive[1]() is None
        oracle.hvp(theta, v, batch)
        del oracle
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# exact Hessian trace
# ---------------------------------------------------------------------------


def dense_diagonal_sum(obj, theta, batch):
    """Sum of the Hessian diagonal, one exact ``hvp`` per unit vector."""
    eye = np.eye(theta.dim)
    return math.fsum(obj.hvp(theta, theta._adopt(eye[i]), batch).data[i]
                     for i in range(theta.dim))


def trace_case(kind, rng):
    """(objective, its current-model MlpOracle, theta, batch) for a trace case."""
    n = 20
    if kind == "logreg":
        oracle = MlpOracle(MlpSpec(4, (), 3))
    elif kind == "distill":
        oracle = MlpOracle(MlpSpec(4, (6,), 5, l2=0.01))
    else:
        hidden, activation, l2, n = {
            "tanh7_l2": ((7,), "tanh", 0.1, 20),
            "tanh6_5": ((6, 5), "tanh", 0.0, 20),
            "relu6_5_4_l2": ((6, 5, 4), "relu", 0.05, 20),
            # two full trace blocks and a ragged third
            "ragged_rows": ((6, 5), "tanh", 0.0, 2 * _TRACE_BLOCK_ROWS + 22),
        }[kind]
        oracle = MlpOracle(MlpSpec(4, hidden, 3, activation, l2))
    theta = oracle.init_theta(rng.spawn(0))
    theta = theta.with_data(theta.data + 0.3 * rng.normal(size=theta.dim))
    batch = random_batch(rng, n, 4, oracle.n_classes)
    if kind != "distill":
        return oracle, oracle, theta, batch
    old = MlpOracle(MlpSpec(4, (6,), 3))
    return DistillObjective(oracle, old.init_theta(rng.spawn(1))), oracle, theta, batch


TRACE_CASES = ["logreg", "tanh7_l2", "tanh6_5", "relu6_5_4_l2", "distill", "ragged_rows"]


@pytest.mark.parametrize("kind", TRACE_CASES)
def test_hessian_trace_equals_the_dense_hessian_diagonal_sum(kind):
    rng = SeededRng(40)
    obj, _, theta, batch = trace_case(kind, rng)
    trace = obj.hessian_trace(theta, batch)
    want = dense_diagonal_sum(obj, theta, batch)
    assert isinstance(trace, float)
    assert abs(trace - want) <= 1e-12 * abs(want)


def test_quadratic_hessian_trace_is_the_trace_of_h():
    H = np.array([[2.0, 0.5, 0.0], [0.5, -1.0, 0.25], [0.0, 0.25, 4.5]])
    q = make_quadratic(H, ParamVector([1.0, 2.0, 3.0]))
    assert q.hessian_trace(ParamVector([0.3, -0.2, 0.1])) == 5.5


@pytest.mark.parametrize("kind", ["tanh6_5", "distill"])
def test_hessian_trace_after_a_gradient_reads_its_pass(monkeypatch, kind):
    rng = SeededRng(41)
    obj, oracle, theta, batch = trace_case(kind, rng)
    want = obj.hessian_trace(theta, batch)  # no kept pass: runs the gradient
    obj.grad(theta, batch)
    grad_calls = []
    grad = type(obj).grad

    def counted(self, *args, **kwargs):
        grad_calls.append(1)
        return grad(self, *args, **kwargs)

    monkeypatch.setattr(type(obj), "grad", counted)
    forwards = count_forward_passes(monkeypatch, oracle)
    assert obj.hessian_trace(theta, batch) == want
    assert grad_calls == [] and forwards == []
    # on an equal batch in a new object the gradient runs first
    assert obj.hessian_trace(theta, Batch(batch.x, batch.y)) == want
    assert grad_calls == [1] and forwards == [batch.n]


def test_hessian_trace_rejects_a_seed_stack():
    rng = SeededRng(42)
    oracle = MlpOracle(MlpSpec(3, (4,), 3))
    theta = oracle.init_theta(rng.spawn(0))
    stacked = stack([theta, theta])
    batch = random_batch(rng, 5, 3, 3)
    with pytest.raises(ValueError, match=r"theta of shape \(2, %d\)" % oracle.dim):
        oracle.hessian_trace(stacked, Batch(np.stack([batch.x] * 2), np.stack([batch.y] * 2)))
    with pytest.raises(ValueError, match=r"features of shape \(2, 5, 3\)"):
        oracle.hessian_trace(theta, Batch(np.stack([batch.x] * 2), np.stack([batch.y] * 2)))
    q = make_quadratic(np.eye(2))
    with pytest.raises(ValueError, match=r"theta of shape \(3, 2\)"):
        q.hessian_trace(stack([ParamVector([0.0, 0.0])] * 3))
