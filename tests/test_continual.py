import math
from dataclasses import replace

import numpy as np
import pytest

from cflat import continual
from cflat.continual import (
    CLConfig,
    DistillObjective,
    GpmStepper,
    MemoryBuffer,
    SyntheticSpec,
    buffer_contents,
    buffer_update,
    gpm_extract_basis,
    gpm_project,
    gpm_update_basis,
    grow_head,
    load_csv_dataset,
    make_stream,
    run_cl_experiment,
    seed_rows,
    scale_new_logits,
    split_dataset,
    synth_dataset,
    wa_align,
)
from cflat.continual import _significance_sensitivity
from cflat.metrics import last_accuracy
from cflat.numcore import ParamVector, SeededRng, axpy, norm2
from cflat.objective import Batch, MlpOracle, MlpSpec
from cflat.optim import (
    CflatStepper,
    OptimConfig,
    SamStepper,
    SgdStepper,
    ascent_point,
    make_stepper,
    train_epochs,
)


def quick_dataset(classes=4, dims=6, per_class=40, std=1.0, seed=11, noise=0.0):
    return synth_dataset(
        SyntheticSpec(classes=classes, dims=dims, per_class=per_class,
                      cluster_std=std, seed=seed, label_noise=noise)
    )


# ---------------------------------------------------------------------------
# datasets and streams
# ---------------------------------------------------------------------------


def test_synth_dataset_shapes_and_split():
    ds = quick_dataset(classes=3, per_class=50)
    assert ds.train_x.shape == (120, 6)
    assert ds.test_x.shape == (30, 6)
    assert ds.n_classes == 3
    for c in range(3):
        assert (ds.train_y == c).sum() == 40
        assert (ds.test_y == c).sum() == 10


def test_synth_dataset_needs_three_examples_per_class():
    with pytest.raises(ValueError, match="per_class must be >= 3"):
        quick_dataset(per_class=2)
    ds = quick_dataset(classes=4, per_class=3)  # the smallest size left with a test example
    assert np.array_equal(np.unique(ds.test_y), np.arange(4))


def test_synth_dataset_zero_std_is_separable():
    ds = quick_dataset(classes=3, per_class=20, std=0.0, seed=21)
    lr = MlpOracle(MlpSpec(ds.train_x.shape[1], (), 3))
    theta = ParamVector(np.zeros(lr.dim), lr.manifest)
    batch = Batch(ds.train_x, ds.train_y)
    for _ in range(200):
        theta, _ = SgdStepper().step(lr, theta, batch, OptimConfig(eta=1.0))
    assert float(np.mean(np.argmax(lr.logits(theta, ds.train_x), axis=1) == ds.train_y)) == 1.0


def test_synth_dataset_relabel_symmetry():
    ds = quick_dataset(classes=3, dims=5, per_class=60, seed=13)

    def trained_accuracy(train_y, test_y):
        lr = MlpOracle(MlpSpec(5, (), 3))
        theta = ParamVector(np.zeros(lr.dim), lr.manifest)
        batch = Batch(ds.train_x, train_y)
        for _ in range(150):
            theta, _ = SgdStepper().step(lr, theta, batch, OptimConfig(eta=1.0))
        return float(np.mean(np.argmax(lr.logits(theta, ds.test_x), axis=1) == test_y))

    swap = np.array([1, 0, 2])
    assert trained_accuracy(ds.train_y, ds.test_y) == trained_accuracy(
        swap[ds.train_y], swap[ds.test_y]
    )


def test_synth_dataset_bayes_accuracy_two_classes():
    sigma = 2.0
    ds = synth_dataset(SyntheticSpec(classes=2, dims=4, per_class=3000,
                                     cluster_std=sigma, seed=5))
    mu0 = ds.train_x[ds.train_y == 0].mean(axis=0)
    mu1 = ds.train_x[ds.train_y == 1].mean(axis=0)
    delta = float(np.linalg.norm(mu1 - mu0))
    bayes = 0.5 * (1 + math.erf(delta / (2 * sigma) / math.sqrt(2)))
    lr = MlpOracle(MlpSpec(4, (), 2))
    theta = ParamVector(np.zeros(lr.dim), lr.manifest)
    batch = Batch(ds.train_x, ds.train_y)
    for _ in range(300):
        theta, _ = SgdStepper().step(lr, theta, batch, OptimConfig(eta=1.0))
    acc = float(np.mean(np.argmax(lr.logits(theta, ds.test_x), axis=1) == ds.test_y))
    assert abs(acc - bayes) <= 0.03


def test_make_stream_b0_splits():
    ds = quick_dataset(classes=10, dims=4, per_class=10)
    stream = make_stream(ds, "B0", 5)
    assert len(stream.tasks) == 2
    assert all(t.n_new == 5 for t in stream.tasks)
    ids = [c for t in stream.tasks for c in t.class_ids]
    assert sorted(ids) == list(range(10))


def test_make_stream_b50_splits():
    ds = quick_dataset(classes=10, dims=4, per_class=10)
    stream = make_stream(ds, "B50", 1)
    assert [t.n_new for t in stream.tasks] == [5, 1, 1, 1, 1, 1]


def test_make_stream_determinism_and_seed_sensitivity():
    ds = quick_dataset(classes=6, dims=4, per_class=10)
    a = make_stream(ds, "B0", 2, perm_seed=1993)
    b = make_stream(ds, "B0", 2, perm_seed=1993)
    c = make_stream(ds, "B0", 2, perm_seed=7)
    assert [t.class_ids for t in a.tasks] == [t.class_ids for t in b.tasks]
    assert [t.class_ids for t in a.tasks] != [t.class_ids for t in c.tasks]


def test_make_stream_rejects_indivisible():
    ds = quick_dataset(classes=10, dims=4, per_class=10)
    with pytest.raises(ValueError, match="remainder 1"):
        make_stream(ds, "B0", 3)
    with pytest.raises(ValueError, match="remainder"):
        make_stream(ds, "B50", 3)


def test_stream_labels_are_remapped_contiguously():
    ds = quick_dataset(classes=6, dims=4, per_class=20)
    stream = make_stream(ds, "B0", 2)
    seen = 0
    for task in stream.tasks:
        assert set(np.unique(task.train_y)) == set(range(seen, seen + task.n_new))
        seen += task.n_new


def test_csv_loader_roundtrip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("label,f0,f1\n0,1.5,-2.0\n1,0.25,3.5\n0,0.0,1.0\n", encoding="utf-8")
    x, y = load_csv_dataset(str(path))
    assert y.tolist() == [0, 1, 0]
    np.testing.assert_allclose(x, [[1.5, -2.0], [0.25, 3.5], [0.0, 1.0]])
    # headerless variant parses identically
    path2 = tmp_path / "bare.csv"
    path2.write_text("0,1.5,-2.0\n1,0.25,3.5\n", encoding="utf-8")
    x2, y2 = load_csv_dataset(str(path2))
    assert y2.tolist() == [0, 1]


@pytest.mark.parametrize("body, match", [
    ("0,1.0,2.0\n1,nan,3.0\n", "data row 2 has a non-finite feature"),
    ("0,1.0,2.0\n1,0.5,3.0\n0,inf,1.0\n", "data row 3 has a non-finite feature"),
    ("0,1.0,2.0\n1,0.5\n", "data row 2 has 2 columns, expected 3"),
    ("0,1.0,2.0\n1.7,0.5,3.0\n", "data row 2 has non-integer label '1.7'"),
    ("0,1.0,2.0\n1,0.5,x\n", "data row 2 has a non-numeric cell"),
    ("0,1.0,2.0\n1,0.5,3.0\n-2,0.0,1.0\n", "data row 3 has negative label '-2'"),
], ids=["nan_feature", "inf_feature", "ragged_row", "fractional_label", "non_numeric",
        "negative_label"])
def test_csv_loader_rejects_bad_rows_by_data_row(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\n" + body, encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        load_csv_dataset(str(path))


def test_split_dataset_names_the_missing_labels():
    x = np.zeros((6, 2))
    with pytest.raises(ValueError, match=r"cover 0\.\.3 contiguously; missing \[0, 2\]"):
        split_dataset(x, np.array([1, 1, 3, 3, 1, 3]), test_fraction=0.5, seed=0)


def test_split_dataset_stratified():
    rng = SeededRng(1)
    x = rng.normal(size=(50, 3))
    y = np.array([0] * 25 + [1] * 25)
    ds = split_dataset(x, y, test_fraction=0.2, seed=0)
    assert (ds.test_y == 0).sum() == 5
    assert (ds.test_y == 1).sum() == 5
    assert len(ds.train_y) == 40


# ---------------------------------------------------------------------------
# memory buffer and replay
# ---------------------------------------------------------------------------


def test_buffer_stores_everything_below_capacity():
    rng = SeededRng(2)
    x = rng.normal(size=(6, 3))
    y = np.array([0, 0, 0, 1, 1, 1])
    buf = buffer_update(MemoryBuffer(10), x, y, rng.spawn(1))
    assert {c: len(rows) for c, rows in buf.store} == {0: 3, 1: 3}


def test_buffer_zero_capacity_stays_empty():
    rng = SeededRng(3)
    buf = buffer_update(MemoryBuffer(0), rng.normal(size=(4, 2)), np.array([0, 0, 1, 1]),
                        rng.spawn(1))
    assert not buf.store
    assert buffer_contents(buf) is None


def test_buffer_counts_after_three_tasks():
    rng = SeededRng(4)
    buf = MemoryBuffer(10)
    for task in range(3):
        x = rng.normal(size=(30, 2))
        y = np.repeat([2 * task, 2 * task + 1], 15)
        buf = buffer_update(buf, x, y, rng.spawn(task))
    counts = {c: len(rows) for c, rows in buf.store}
    assert sorted(counts) == [0, 1, 2, 3, 4, 5]
    assert all(v <= 10 for v in counts.values())


# ---------------------------------------------------------------------------
# distillation
# ---------------------------------------------------------------------------


def test_icarl_loss_self_distillation_identity():
    rng = SeededRng(8)
    oracle = MlpOracle(MlpSpec(4, (5,), 3))
    theta = oracle.init_theta(rng.spawn(0))
    batch = Batch(rng.normal(size=(7, 4)), rng.integers(0, 3, 7))
    value = DistillObjective(oracle, theta, temperature=1.0).loss(theta, batch)
    assert value == pytest.approx(oracle.loss(theta, batch), rel=1e-12)


def test_distill_kl_matches_hand_arithmetic():
    # 2 old classes, 2 examples, logreg heads; every number recomputed inline
    oracle = MlpOracle(MlpSpec(2, (), 3))
    old = MlpOracle(MlpSpec(2, (), 2))
    theta = ParamVector(np.array([0.5, -0.2, 0.1, 0.3, -0.4, 0.2, 0.05, -0.05, 0.1]),
                        oracle.manifest)
    theta_old = ParamVector(np.array([0.2, 0.1, -0.3, 0.4, 0.0, -0.1]), old.manifest)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    batch = Batch(x, np.array([0, 1]))
    tau = 2.0

    obj = DistillObjective(oracle, theta_old, temperature=tau)
    got = obj.loss(theta, batch)

    z_new = x @ theta.view("W0").T + theta.view("b0")
    z_old = x @ theta_old.view("W0").T + theta_old.view("b0")
    kl_total = 0.0
    for i in range(2):
        p = np.exp(z_old[i] / tau)
        p /= p.sum()
        q = np.exp(z_new[i, :2] / tau)
        q /= q.sum()
        kl_total += float(np.sum(p * (np.log(p) - np.log(q))))
    expected = oracle.loss(theta, batch) + kl_total / 2
    assert abs(got - expected) <= 1e-10


def test_distill_rejects_wider_old_head_and_bad_labels():
    rng = SeededRng(31)
    oracle = MlpOracle(MlpSpec(3, (4,), 2))
    wide_old = oracle.with_head(5)
    theta_old = ParamVector(rng.normal(size=wide_old.dim), wide_old.manifest)
    with pytest.raises(ValueError, match="wider"):
        DistillObjective(oracle, theta_old)

    old = oracle.with_head(2)
    obj = DistillObjective(oracle.with_head(4),
                           ParamVector(rng.normal(size=old.dim), old.manifest))
    theta = ParamVector(rng.normal(size=obj.dim), oracle.with_head(4).manifest)
    batch = Batch(rng.normal(size=(3, 3)), np.array([0, 1, 3]))
    bad_label = Batch(batch.x, np.array([0, 1, 4]))
    long_theta = ParamVector(rng.normal(size=obj.dim + 1))
    v = theta.with_data(rng.normal(size=obj.dim))
    for call in (obj.loss, obj.grad, lambda th, b: obj.hvp(th, v, b)):
        with pytest.raises(ValueError, match="outside head width"):
            call(theta, bad_label)
        with pytest.raises(ValueError, match="requires a batch"):
            call(theta, None)
        with pytest.raises(ValueError, match="dimension mismatch"):
            call(long_theta, batch)


def count_forward_rows(monkeypatch, oracle):
    rows = []
    forward = oracle._forward

    def counted(theta, x):
        rows.append(x.shape[0])
        return forward(theta, x)

    monkeypatch.setattr(oracle, "_forward", counted)
    return rows


def test_distill_loss_is_one_forward_pass_and_old_probs_once_per_batch(monkeypatch):
    rng = SeededRng(11)
    oracle = MlpOracle(MlpSpec(3, (5,), 4, l2=0.01))
    old = oracle.with_head(2)
    theta_old = ParamVector(rng.normal(size=old.dim), old.manifest)
    obj = DistillObjective(oracle, theta_old, temperature=2.0)
    theta = ParamVector(rng.normal(size=oracle.dim), oracle.manifest)
    batch = Batch(rng.normal(size=(6, 3)), rng.integers(0, 4, 6))

    def softmax(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    p = softmax(old.logits(theta_old, batch.x) / 2.0)
    q = softmax(oracle.logits(theta, batch.x)[:, :2] / 2.0)
    expected = oracle.loss(theta, batch) + float(np.mean((p * (np.log(p) - np.log(q))).sum(axis=1)))

    current = count_forward_rows(monkeypatch, oracle)
    previous = count_forward_rows(monkeypatch, obj.old_oracle)
    assert obj.loss(theta, batch) == expected
    assert current == [6] and previous == [6]
    v = theta.with_data(rng.normal(size=theta.dim))
    obj.grad(theta, batch)
    obj.hvp(theta, v, batch)
    obj.loss(theta, batch)
    assert previous == [6]
    other = Batch(batch.x.copy(), batch.y.copy())
    obj.grad(theta, other)
    assert previous == [6, 6]


def test_distill_gradient_matches_finite_differences():
    rng = SeededRng(10)
    oracle = MlpOracle(MlpSpec(3, (4,), 4))
    old_oracle = oracle.with_head(2)
    theta_old = ParamVector(rng.normal(size=old_oracle.dim), old_oracle.manifest)
    obj = DistillObjective(oracle, theta_old, temperature=2.0)
    theta = ParamVector(rng.normal(size=oracle.dim), oracle.manifest)
    batch = Batch(rng.normal(size=(5, 3)), rng.integers(0, 4, 5))
    g = obj.grad(theta, batch)
    delta = 1e-6
    for i in range(0, oracle.dim, 7):
        up = theta.data.copy()
        up[i] += delta
        dn = theta.data.copy()
        dn[i] -= delta
        fd = (obj.loss(theta.with_data(up), batch) - obj.loss(theta.with_data(dn), batch)) / (2 * delta)
        assert fd == pytest.approx(g.data[i], rel=1e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# weight alignment
# ---------------------------------------------------------------------------


def test_wa_align_hand_ratios():
    w_old = np.array([[3.0, 4.0], [0.0, 5.0]])  # norms 5, 5
    w_new_same = np.array([[5.0, 0.0]])
    assert wa_align(w_old, w_new_same) == pytest.approx(1.0)
    w_new_double = np.array([[6.0, 8.0]])  # norm 10
    assert wa_align(w_old, w_new_double) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        wa_align(w_old, np.zeros((2, 2)))


def test_wa_scaled_predictions_invariant_to_global_rescale():
    rng = SeededRng(11)
    w_old = rng.normal(size=(3, 4))
    w_new = rng.normal(size=(2, 4))
    x = rng.normal(size=(20, 4))
    logits = np.concatenate([x @ w_old.T, x @ w_new.T], axis=1)
    gamma = wa_align(w_old, w_new)
    base_pred = np.argmax(scale_new_logits(logits, 3, gamma), axis=1)
    for c in (0.5, 2.0, 7.0):
        gamma_c = wa_align(c * w_old, c * w_new)
        pred = np.argmax(scale_new_logits(c * logits, 3, gamma_c), axis=1)
        assert np.array_equal(pred, base_pred)


# ---------------------------------------------------------------------------
# head growth
# ---------------------------------------------------------------------------


def test_grow_head_rejects_zero():
    rng = SeededRng(12)
    oracle = MlpOracle(MlpSpec(3, (4,), 2))
    with pytest.raises(ValueError):
        grow_head(oracle.init_theta(rng.spawn(0)), 0, rng.spawn(1))


def test_grow_head_preserves_old_logits_bit_exactly():
    rng = SeededRng(13)
    oracle = MlpOracle(MlpSpec(3, (4,), 2))
    theta = oracle.init_theta(rng.spawn(0))
    x = rng.normal(size=(6, 3))
    before = oracle.logits(theta, x)
    grown = grow_head(theta, 2, rng.spawn(1))
    wide = oracle.with_head(4)
    after = wide.logits(grown, x)
    assert np.array_equal(after[:, :2], before)
    assert grown.manifest[-1].shape == (4,)


def test_grow_head_composition():
    rng = SeededRng(14)
    oracle = MlpOracle(MlpSpec(3, (4,), 2))
    theta = oracle.init_theta(rng.spawn(0))
    once = grow_head(grow_head(theta, 1, rng.spawn(1)), 1, rng.spawn(2))
    twice = grow_head(theta, 2, rng.spawn(3))
    # old-weight content identical; the freshly seeded rows may differ
    w_once = once.view("W1")
    w_twice = twice.view("W1")
    assert np.array_equal(w_once[:2], w_twice[:2])
    assert np.array_equal(once.view("b1")[:2], twice.view("b1")[:2])
    assert np.array_equal(once.view("W0"), twice.view("W0"))


# ---------------------------------------------------------------------------
# gradient projection
# ---------------------------------------------------------------------------


def gpm_setup(seed=15, n_classes=3):
    rng = SeededRng(seed)
    oracle = MlpOracle(MlpSpec(4, (6,), n_classes))
    batch = Batch(rng.normal(size=(30, 4)), rng.integers(0, n_classes, 30))
    return rng, oracle, oracle.init_theta(rng.spawn(0)), batch


def test_gpm_extract_rank_one_representations():
    rng, oracle, theta, _ = gpm_setup()
    base = rng.normal(size=4)
    x = np.outer(np.linspace(0.5, 2.0, 12), base)  # all rows on one line
    batch = Batch(x, np.zeros(12, dtype=np.int64))
    state = gpm_extract_basis(oracle, theta, batch, 0.5, layer=0)
    assert state.rank == 1
    state_full = gpm_extract_basis(oracle, theta, batch, 1.0, layer=0)
    assert state_full.rank == 1


def test_gpm_extract_rejects_zero_representations_and_missing_layers():
    _, oracle, theta, batch = gpm_setup()
    zeros = Batch(np.zeros((8, 4)), np.zeros(8, dtype=np.int64))
    with pytest.raises(ValueError, match="rank-0"):
        gpm_extract_basis(oracle, theta, zeros, 0.9, layer=0)
    for layer in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            gpm_extract_basis(oracle, theta, batch, 0.9, layer=layer)


def test_gpm_extract_full_rank_at_threshold_one():
    rng, oracle, theta, batch = gpm_setup()
    state = gpm_extract_basis(oracle, theta, batch, 1.0, layer=0)
    assert state.rank == 4  # raw features span R^4


def test_gpm_projector_idempotent():
    rng, oracle, theta, batch = gpm_setup()
    state = gpm_extract_basis(oracle, theta, batch, 0.9)
    M = state.basis
    P = M @ M.T
    assert np.linalg.norm(P @ P - P) <= 1e-8
    assert np.linalg.norm(M.T @ M - np.eye(state.rank)) <= 1e-8


def test_gpm_project_full_significance_annihilates_span():
    rng, oracle, theta, batch = gpm_setup()
    state = gpm_extract_basis(oracle, theta, batch, 0.95)
    g = oracle.grad(theta, batch)
    projected, in_span = gpm_project(state, g)
    assert in_span <= 1e-8 * norm2(g)
    block = projected.view(f"W{state.layer}")
    assert np.linalg.norm(block @ state.basis) <= 1e-8 * norm2(g)


def test_gpm_zero_significance_is_unprojected():
    rng, oracle, theta, batch = gpm_setup()
    state = gpm_extract_basis(oracle, theta, batch, 0.95)
    state = type(state)(basis=state.basis, significance=np.zeros(state.rank),
                        energy_threshold=state.energy_threshold, layer=state.layer)
    cfg = OptimConfig(eta=0.1, rho=0.2, lam=0.2)
    stepper = GpmStepper(CflatStepper(), eta1=0.0, eta2=0.1)
    stepper.gpm_states = [state]
    new_theta, _ = stepper.step(oracle, theta, batch, cfg)
    # reduces to an unprojected step along the perturbed gradient
    d, _ = CflatStepper().direction(oracle, theta, batch, cfg)
    g_c = oracle.grad(ascent_point(theta, d, cfg), batch)
    expected = axpy(-0.1, g_c, theta)
    assert np.array_equal(new_theta.data, expected.data)


def test_gpm_full_space_basis_freezes_block():
    rng, oracle, theta, batch = gpm_setup()
    # representations of layer 1 live in R^6; a full orthonormal basis
    state = gpm_extract_basis(oracle, theta, batch, 1.0)
    if state.rank < 6:
        M, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        state = type(state)(basis=M, significance=np.ones(6),
                            energy_threshold=1.0, layer=state.layer)
    cfg = OptimConfig(eta=0.1, rho=0.2, lam=0.2)
    stepper = GpmStepper(CflatStepper(), eta1=0.0, eta2=0.1)
    stepper.gpm_states = [state]
    new_theta, _ = stepper.step(oracle, theta, batch, cfg)
    name = f"W{state.layer}"
    np.testing.assert_allclose(new_theta.view(name), theta.view(name), atol=1e-12)


def test_gpm_significance_update_clamped():
    rng, oracle, theta, batch = gpm_setup()
    state = gpm_extract_basis(oracle, theta, batch, 0.95)
    cfg = OptimConfig(eta=0.1, rho=0.2, lam=0.2)
    stepper = GpmStepper(CflatStepper(), eta1=50.0, eta2=0.1)
    stepper.gpm_states = [state]
    stepper.step(oracle, theta, batch, cfg)
    new_state = stepper.gpm_states[0]
    assert (new_state.significance >= 0.0).all()
    assert (new_state.significance <= 1.0).all()


# settings under which a C-Flat++ gate switches on and off within a few steps
_GATE_SETTINGS = {"cflat++": dict(A=1.0, k=0.05, i0=10, eta0=5e-3), "hybrid": dict(p=0.4)}


@pytest.mark.parametrize("name", ["sgd", "sam", "cflat", "cflat++", "hybrid"])
def test_gpm_without_basis_is_bit_identical_to_its_inner_stepper(name):
    rng = SeededRng(21)
    oracle = MlpOracle(MlpSpec(4, (6,), 3))
    start = oracle.init_theta(rng.spawn(0))
    x = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, 60)
    kw = _GATE_SETTINGS.get(name, {})
    plain = make_stepper(name, **kw)
    wrapped = GpmStepper(make_stepper(name, **kw), eta1=0.5, eta2=0.05)
    runs = []
    for stepper in (plain, wrapped):
        theta, parts = start, []
        for task in range(2):  # two tasks: prepare restarts the gate and plans between them
            theta, part = train_epochs(oracle, theta, x, y, OptimConfig(eta=0.2), stepper,
                                       epochs=2, batch_size=10, rng=rng.spawn(1, task))
            parts.append(part)
        runs.append((theta, np.concatenate(parts)))
    assert np.array_equal(runs[0][0].data, runs[1][0].data)
    assert runs[0][1].tobytes() == runs[1][1].tobytes()  # every cell, empty ones too
    if name == "cflat++":
        assert (plain.bound, plain.i) == (wrapped.inner.bound, wrapped.inner.i)
        assert 0 < runs[0][1]["used_cflat"].sum() < len(runs[0][1])
    if name == "hybrid":
        assert plain.idx == wrapped.inner.idx
        assert np.array_equal(plain.plan, wrapped.inner.plan)


# (grad_evals, hvp_evals) of a step that takes the gradient, and of a C-Flat step
_STEP_COST = {False: (1, 0), True: (5, 2)}


@pytest.mark.parametrize("projected", [False, True])
@pytest.mark.parametrize("name", ["sgd", "sam", "cflat", "cflat++", "hybrid"])
def test_the_gate_runs_once_per_step_in_order_and_sets_the_step_cost(name, projected):
    rng, oracle, theta, batch = gpm_setup()
    x, y = rng.normal(size=(60, 4)), rng.integers(0, 3, 60)
    inner = make_stepper(name, **_GATE_SETTINGS.get(name, {}))
    stepper = inner
    if projected:
        stepper = GpmStepper(inner, eta1=0.0, eta2=0.05)
        stepper.gpm_states = [gpm_extract_basis(oracle, theta, batch, 0.95)]
    calls = []
    gate = inner.use_cflat

    def recorded(row, i):
        calls.append((row, i, gate(row, i)))
        return calls[-1][2]

    inner.use_cflat = recorded
    _, trace = train_epochs(oracle, theta, x, y, OptimConfig(eta=0.2), stepper,
                            epochs=2, batch_size=10, rng=rng.spawn(1))
    assert len(calls) == len(trace) == 12
    assert all(np.shares_memory(row, step) and i == 0
               for (row, i, _), step in zip(calls, trace))
    trace = trace[:, 0]
    assert [on for _, _, on in calls] == trace["used_cflat"].tolist()
    if name in ("cflat++", "hybrid"):
        assert 0 < trace["used_cflat"].sum() < len(trace)
    else:
        assert set(trace["used_cflat"].tolist()) == {name == "cflat"}
    for s in trace:
        grad_evals, hvp_evals = _STEP_COST[bool(s["used_cflat"])]
        if name == "sam":
            grad_evals = 2
        if projected and s["used_cflat"]:
            grad_evals += 1  # the gradient at the neighborhood point, projected
        assert (s["grad_evals"], s["hvp_evals"]) == (grad_evals, hvp_evals)


@pytest.mark.parametrize("name, plain", [("sgd", SgdStepper), ("sam", SamStepper)])
def test_projection_with_zero_significance_is_the_plain_step_at_eta2(name, plain):
    rng, oracle, theta, batch = gpm_setup()
    state = gpm_extract_basis(oracle, theta, batch, 0.95)
    stepper = GpmStepper(make_stepper(name), eta1=0.0, eta2=0.07)
    stepper.gpm_states = [replace(state, significance=np.zeros(state.rank))]
    got, stats = stepper.step(oracle, theta, batch, OptimConfig(eta=0.3, rho=0.2))
    expected, plain_stats = plain().step(oracle, theta, batch, OptimConfig(eta=0.07, rho=0.2))
    assert np.array_equal(got.data, expected.data)
    assert np.isfinite(stats["gpm_in_span"]).all()
    stats["gpm_in_span"] = stats["gpm_src_norm"] = np.nan
    assert stats.tobytes() == plain_stats.tobytes()


def test_gpm_update_basis_merges_orthonormally():
    rng, oracle, theta, batch = gpm_setup()
    base = rng.normal(size=4)
    line = Batch(np.outer(np.linspace(0.5, 2.0, 12), base), np.zeros(12, dtype=np.int64))
    state = gpm_extract_basis(oracle, theta, line, 0.99, layer=0)
    assert state.rank == 1
    merged = gpm_update_basis(state, oracle, theta, batch)
    assert merged.rank > state.rank
    gram = merged.basis.T @ merged.basis
    assert np.linalg.norm(gram - np.eye(merged.rank)) <= 1e-8


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_gpm_sensitivities_match_a_central_difference_of_the_post_step_loss(activation):
    rng = SeededRng(16)
    oracle = MlpOracle(MlpSpec(4, (6,), 3, activation, 0.01))
    theta = oracle.init_theta(rng.spawn(0))
    batch = Batch(rng.normal(size=(30, 4)), rng.integers(0, 3, 30))
    state = gpm_extract_basis(oracle, theta, batch, 0.95)
    state = replace(state, significance=rng.uniform(0.2, 0.8, state.rank))
    g_c = oracle.grad(theta, batch)
    eta2, h = 0.5, 1e-5
    (exact,) = _significance_sensitivity(oracle, theta, batch, [state], g_c, eta2)

    def post_step_loss(significance):
        proj, _ = gpm_project(replace(state, significance=significance), g_c)
        return oracle.loss(axpy(-eta2, proj, theta), batch)

    sig = state.significance
    central = np.array([(post_step_loss(sig + h * e) - post_step_loss(sig - h * e)) / (2 * h)
                        for e in np.eye(state.rank)])
    assert state.rank >= 2
    assert np.abs(exact - central).max() <= 1e-5 * np.abs(central).max()


def test_significance_update_costs_one_gradient_and_no_loss(monkeypatch):
    rng, oracle, theta, batch = gpm_setup()
    state = gpm_extract_basis(oracle, theta, batch, 0.95)
    calls = {"loss": 0, "grad": 0}
    for method in calls:
        def counted(*args, _original=getattr(oracle, method), _method=method, **kwargs):
            calls[_method] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(oracle, method, counted)
    counts = []
    for eta1 in (0.0, 0.5):
        stepper = GpmStepper(SgdStepper(), eta1=eta1, eta2=0.1)
        stepper.gpm_states = [state]
        before = dict(calls)
        _, (stats,) = stepper.step(oracle, theta, batch, OptimConfig(eta=0.1))
        counts.append((stats["grad_evals"], calls["grad"] - before["grad"],
                       calls["loss"] - before["loss"]))
    assert stepper.gpm_states[0].significance.tolist() != state.significance.tolist()
    assert counts == [(1, 1, 1), (2, 2, 1)]


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------


def small_stream(classes=4, increment=2, seed=11, std=1.0, per_class=40):
    ds = quick_dataset(classes=classes, dims=6, per_class=per_class, std=std, seed=seed)
    return make_stream(ds, "B0", increment)


def small_cl(**kw):
    defaults = dict(hidden=(8,), epochs=3, batch_size=16)
    defaults.update(kw)
    return CLConfig(**defaults)


def test_single_task_matrix_is_plain_accuracy():
    ds = quick_dataset(classes=4, dims=6, per_class=40)
    stream = make_stream(ds, "B0", 4)  # one task covering everything
    cl = small_cl()
    matrix = run_cl_experiment(stream, "finetune", OptimConfig(eta=0.5), cl,
                               seed_rows(make_stepper("sgd"), [0]))[0].matrix
    assert len(matrix) == 1 and len(matrix[0]) == 1
    assert 0.0 <= matrix[0][0] <= 1.0


def test_finetune_exhibits_forgetting():
    stream = small_stream()
    cl = small_cl(epochs=5)
    m = run_cl_experiment(stream, "finetune", OptimConfig(eta=0.5), cl,
                          seed_rows(make_stepper("sgd"), [0]))[0].matrix
    assert m[1][0] < m[0][0]


def test_replay_with_unbounded_memory_matches_joint_training():
    ds = quick_dataset(classes=4, dims=8, per_class=100, seed=11)
    two_task = make_stream(ds, "B0", 2)
    joint = make_stream(ds, "B0", 4)
    cl = CLConfig(hidden=(16,), epochs=10, batch_size=32, memory_capacity=10_000)
    replay = run_cl_experiment(two_task, "replay", OptimConfig(eta=0.5), cl,
                               seed_rows(make_stepper("sgd"), [0]))[0]
    joint_run = run_cl_experiment(joint, "finetune", OptimConfig(eta=0.5), cl,
                                  seed_rows(make_stepper("sgd"), [0]))[0]
    gap = abs(last_accuracy(replay.matrix) - last_accuracy(joint_run.matrix))
    assert gap <= 0.03


def test_memory_stays_legal_throughout(monkeypatch):
    stream = small_stream(classes=6, increment=2)
    trained = []
    train_epochs = continual.train_epochs

    def recording(oracle, theta, x, y, *args):
        trained.append((x, y))
        return train_epochs(oracle, theta, x, y, *args)

    monkeypatch.setattr(continual, "train_epochs", recording)
    cl = small_cl(memory_capacity=5)
    run_cl_experiment(stream, "replay", OptimConfig(eta=0.5), cl,
                      seed_rows(make_stepper("sgd"), [0]))[0]
    assert len(trained) == len(stream.tasks)
    seen: set[int] = set()
    for task, (x, y) in zip(stream.tasks, trained):
        own = set(np.unique(task.train_y).tolist())
        classes, counts = np.unique(y, return_counts=True)
        assert set(classes.tolist()) <= own | seen
        replayed = {c: n for c, n in zip(classes.tolist(), counts.tolist()) if c not in own}
        assert set(replayed) == seen  # every earlier class is replayed from task 1 on
        assert all(n <= 5 for n in replayed.values())
        seen |= own


@pytest.mark.parametrize("method", ["finetune", "replay", "icarl", "wa", "gpm"])
@pytest.mark.parametrize("optimizer", ["sgd", "sam", "cflat", "cflat++", "hybrid"])
def test_every_method_optimizer_combination_runs(method, optimizer):
    stream = small_stream()
    cl = small_cl(epochs=2)
    seed_result = run_cl_experiment(stream, method, OptimConfig(eta=0.3), cl,
                                    seed_rows(make_stepper(optimizer), [0]))[0]
    assert len(seed_result.matrix) == len(stream.tasks)
    for t, row in enumerate(seed_result.matrix):
        assert len(row) == t + 1
        assert all(0.0 <= v <= 1.0 for v in row)
    trace = seed_result.trace
    assert (trace["hvp_evals"][trace["used_cflat"]] >= 2).all()


def test_experiment_is_deterministic_per_seed():
    stream = small_stream()
    cl = small_cl()
    a = run_cl_experiment(stream, "replay", OptimConfig(eta=0.3), cl,
                          seed_rows(make_stepper("cflat"), [3]))[0]
    b = run_cl_experiment(stream, "replay", OptimConfig(eta=0.3), cl,
                          seed_rows(make_stepper("cflat"), [3]))[0]
    assert a.matrix == b.matrix
    assert np.array_equal(a.final_theta.data, b.final_theta.data)


def test_pre_train_and_baseline_recorded_for_fwt():
    stream = small_stream(classes=6, increment=2)
    cl = small_cl()
    r = run_cl_experiment(stream, "replay", OptimConfig(eta=0.5), cl,
                          seed_rows(make_stepper("sgd"), [0]))[0]
    assert r.pre_train_acc[0] is None
    assert len(r.pre_train_acc) == 3
    assert all(v is not None for v in r.pre_train_acc[1:])
    assert len(r.baseline_acc) == 3


def test_gpm_in_span_invariant_during_run():
    stream = small_stream(classes=6, increment=2)
    cl = small_cl(gpm_eta1=0.0)
    res = run_cl_experiment(stream, "gpm", OptimConfig(eta=0.3), cl,
                            seed_rows(make_stepper("cflat"), [0]))[0]
    projected = res.trace[~np.isnan(res.trace["gpm_in_span"])]
    assert projected.size, "projection never engaged"
    assert (projected["gpm_in_span"] <= 1e-8 * projected["gpm_src_norm"]).all()


def test_wa_gammas_recorded():
    stream = small_stream()
    cl = small_cl()
    gammas = run_cl_experiment(stream, "wa", OptimConfig(eta=0.5), cl,
                               seed_rows(make_stepper("sgd"), [0]))[0].gammas
    assert gammas[0] is None
    assert gammas[1] is not None and gammas[1] > 0


def test_unknown_method_rejected():
    stream = small_stream()
    cl = small_cl()
    with pytest.raises(ValueError, match="unknown method"):
        run_cl_experiment(stream, "ewc", OptimConfig(eta=0.5), cl,
                          seed_rows(make_stepper("sgd"), [0]))[0]


def test_cflat_throughput_below_sgd_on_identical_workload():
    # directional: the flatness step costs several gradient-equivalents
    ds = quick_dataset(classes=4, dims=16, per_class=100, seed=19)
    stream = make_stream(ds, "B0", 2)
    cl = CLConfig(hidden=(32,), epochs=6, batch_size=64)
    sgd = run_cl_experiment(stream, "replay", OptimConfig(eta=0.5), cl,
                            seed_rows(make_stepper("sgd"), [0]))[0]
    cflat = run_cl_experiment(stream, "replay", OptimConfig(eta=0.5), cl,
                              seed_rows(make_stepper("cflat"), [0]))[0]
    thr = lambda res: res.examples / res.train_seconds
    assert thr(cflat) < thr(sgd)
