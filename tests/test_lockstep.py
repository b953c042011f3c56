"""Seed lockstep: a stack of S seeds steps in one pass per oracle call, and
every row is byte-identical to the same call on that seed alone."""
import numpy as np
import pytest

from cflat.continual import (
    CLConfig,
    DistillObjective,
    GpmStepper,
    SyntheticSpec,
    gpm_extract_basis,
    make_stream,
    run_cl_experiment,
    seed_rows,
    synth_dataset,
)
from cflat.numcore import ParamVector, SeededRng, norm2, stack, unstack
from cflat.objective import Batch, MlpOracle, MlpSpec
from cflat.optim import (
    OPTIMIZER_NAMES,
    STEP_FIELDS,
    DivergenceError,
    OptimConfig,
    SeedGroup,
    make_stepper,
    train_epochs,
)

S = 3


def _setup(activation="tanh", n=12):
    rng = SeededRng(31)
    oracle = MlpOracle(MlpSpec(4, (6,), 3, activation=activation, l2=1e-3))
    thetas = [oracle.init_theta(rng.spawn(0, s)) for s in range(S)]
    batches = [Batch(rng.normal(size=(n, 4)), rng.integers(0, 3, n)) for _ in range(S)]
    stacked = Batch(np.stack([b.x for b in batches]), np.stack([b.y for b in batches]))
    return rng, oracle, thetas, batches, stacked


def _same(stacked: ParamVector, singles) -> bool:
    return stacked.data.tobytes() == stack(singles).data.tobytes()


def _differing_columns(record: np.ndarray, expected: np.ndarray) -> list[str]:
    """The step-record columns whose cells differ bit for bit, NaN (empty)
    cells included."""
    return [name for name in STEP_FIELDS.names
            if record[name].tobytes() != expected[name].tobytes()]


def test_stack_rows_and_norms_match_each_vector():
    rng = SeededRng(2)
    vectors = [ParamVector(rng.normal(size=d)) for d in (7, 7, 7)]
    stacked = stack(vectors)
    assert stacked.dim == 7 and stacked.data.shape == (3, 7)
    assert [v.data.tobytes() for v in unstack(stacked)] == [v.data.tobytes() for v in vectors]
    assert norm2(stacked).tolist() == [norm2(v) for v in vectors]
    with pytest.raises(ValueError, match="manifest"):
        stack([ParamVector(np.zeros(2)), ParamVector(np.zeros(3))])


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("distill", [False, True])
def test_stacked_loss_grad_hvp_equal_one_seed_calls(activation, distill):
    rng, oracle, thetas, batches, stacked = _setup(activation)
    vs = [ParamVector(rng.normal(size=oracle.dim), oracle.manifest) for _ in range(S)]
    if distill:
        small = oracle.with_head(2)
        olds = [small.init_theta(rng.spawn(1, s)) for s in range(S)]
        singles = [DistillObjective(oracle, old) for old in olds]
        group = DistillObjective(oracle, stack(olds))
    else:
        singles = [oracle] * S
        group = oracle
    theta = stack(thetas)
    g = group.grad(theta, stacked)
    loss = group.loss(theta, stacked)
    h = group.hvp(theta, stack(vs), stacked)
    expected = []
    for obj, th, b, v in zip(singles, thetas, batches, vs):
        expected.append((obj.grad(th, b), obj.loss(th, b), obj.hvp(th, v, b)))
    assert _same(g, [e[0] for e in expected])
    assert loss.tolist() == [e[1] for e in expected]
    assert _same(h, [e[2] for e in expected])


def _gpm_states(oracle, thetas, batches):
    return [gpm_extract_basis(oracle, th, b, 0.95) for th, b in zip(thetas, batches)]


def _split_proxy(objectives, thetas, batches) -> tuple[dict, int]:
    """The settings of a fixed C-Flat++ proxy that gates on the row with the
    largest squared gradient norm at ``thetas`` and off the others, and that row."""
    sq = [norm2(obj.grad(th, b)) ** 2 for obj, th, b in zip(objectives, thetas, batches)]
    top, second = sorted(sq)[-1], sorted(sq)[-2]
    return dict(A=top + second, k=0.0, i0=0), int(np.argmax(sq))


def _gated(name: str, proxy: dict):
    """The stepper ``name``, with the C-Flat++ settings ``proxy`` if it is cflat++."""
    return make_stepper(name, **(proxy if name == "cflat++" else {}))


@pytest.mark.parametrize("projected", [False, True])
@pytest.mark.parametrize("name", OPTIMIZER_NAMES)
def test_every_optimizer_step_on_a_stack_equals_one_seed_steps(name, projected):
    rng, oracle, thetas, batches, stacked = _setup()
    cfg = OptimConfig(eta=0.2)
    proxy, _ = _split_proxy([oracle] * S, thetas, batches)
    states = _gpm_states(oracle, thetas, batches)

    def stepper(inner, bases):
        inner.prepare(4)
        if not projected:
            return inner
        wrapped = GpmStepper(inner, eta1=0.5, eta2=0.1)
        wrapped.gpm_states = list(bases)
        return wrapped

    group = stepper(SeedGroup([_gated(name, proxy) for _ in range(S)]), states)
    singles = [stepper(_gated(name, proxy), [state]) for state in states]
    theta, alone = stack(thetas), list(thetas)
    flat = []
    for _ in range(4):
        theta, stats = group.step(oracle, theta, stacked, cfg)
        expected = []
        for i, single in enumerate(singles):
            alone[i], one_stats = single.step(oracle, alone[i], batches[i], cfg)
            expected.append(one_stats)
        assert _same(theta, alone)
        assert _differing_columns(stats, np.concatenate(expected)) == []
        flat.append(stats["used_cflat"].tolist())
    if name == "cflat++":
        assert len(set(flat[0])) == 2, "the first step's gates are not mixed"
    if projected:
        for i, single in enumerate(singles):
            assert group.gpm_states[i].significance.tobytes() == \
                single.gpm_states[0].significance.tobytes()


@pytest.mark.parametrize("distill", [False, True])
def test_cflatpp_mixed_gates_run_the_flat_branch_on_the_gated_rows_only(distill):
    rng, oracle, thetas, batches, stacked = _setup()
    objective, singles = oracle, [oracle] * S
    if distill:
        olds = [oracle.with_head(2).init_theta(rng.spawn(2, s)) for s in range(S)]
        objective = DistillObjective(oracle, stack(olds))
        singles = [DistillObjective(oracle, old) for old in olds]
    proxy, on = _split_proxy(singles, thetas, batches)
    cfg = OptimConfig(eta=0.1)
    group = SeedGroup([make_stepper("cflat++", **proxy) for _ in range(S)])
    calls = []
    grad, hvp = oracle.grad_from_output_error, oracle.hvp_from_curvature

    def counted_grad(theta, batch, *args, **kwargs):
        calls.append(("grad", theta.data.shape))
        return grad(theta, batch, *args, **kwargs)

    def counted_hvp(theta, v, batch, *args, **kwargs):
        calls.append(("hvp", theta.data.shape))
        return hvp(theta, v, batch, *args, **kwargs)

    oracle.grad_from_output_error, oracle.hvp_from_curvature = counted_grad, counted_hvp
    d, stats = group.direction(objective, stack(thetas), stacked, cfg)
    oracle.grad_from_output_error, oracle.hvp_from_curvature = grad, hvp
    assert stats["used_cflat"].tolist() == [row == on for row in range(S)]
    # one stacked gradient, then the C-Flat branch on the gated row alone (so
    # no other row can fail on it): the first product reads the narrowed kept
    # pass, so no gradient runs before it
    assert calls == [("grad", (S, oracle.dim)), ("hvp", (1, oracle.dim)),
                     ("grad", (1, oracle.dim)), ("grad", (1, oracle.dim)),
                     ("hvp", (1, oracle.dim))]
    for i in range(S):
        alone = make_stepper("cflat++", **proxy)
        d_i, s_i = alone.direction(singles[i], thetas[i], batches[i], cfg)
        assert d.data[i].tobytes() == d_i.data.tobytes()
        assert _differing_columns(stats[i:i + 1], s_i) == []


def test_a_narrowed_objective_reads_only_its_own_kept_pass():
    rng, oracle, thetas, batches, stacked = _setup()
    olds = [oracle.with_head(2).init_theta(rng.spawn(2, s)) for s in range(S)]
    theta = stack(thetas)
    oracle.grad(theta, stacked)  # a cross-entropy pass on the same objects
    objective = DistillObjective(oracle, stack(olds))
    sub, sub_theta, sub_batch = objective.select_rows(theta, stacked, np.array([1]))
    # the narrowed objective shares both oracles and narrows the old parameters
    assert sub.old_oracle is objective.old_oracle and sub.base is oracle
    assert sub.theta_old.data.tobytes() == stack(olds[1:2]).data.tobytes()
    v = ParamVector(rng.normal(size=(1, oracle.dim)), oracle.manifest)
    narrowed = sub.hvp(sub_theta, v, sub_batch)
    alone = DistillObjective(oracle, olds[1]).hvp(thetas[1], v.row(0), batches[1])
    assert narrowed.data[0].tobytes() == alone.data.tobytes()


@pytest.mark.parametrize("method, optimizer", [
    ("replay", "cflat"), ("icarl", "cflat++"), ("gpm", "cflat++"), ("wa", "hybrid"),
    ("replay", "sam"),
])
def test_a_seed_group_equals_one_seed_runs(method, optimizer):
    spec = SyntheticSpec(classes=6, dims=5, per_class=30, cluster_std=1.0, seed=4,
                         feature_scale=3.0)
    stream = make_stream(synth_dataset(spec), "B0", 2)
    cl = CLConfig(hidden=(8,), epochs=2, batch_size=16, gpm_eta1=0.3)
    stepper = _gated(optimizer, dict(A=2.0, k=0.05, i0=10))
    cfg = OptimConfig(eta=0.3)
    seeds = [4, 0, 9]
    group = run_cl_experiment(stream, method, cfg, cl, seed_rows(stepper, seeds))
    assert [r.seed for r in group] == seeds
    for r in group:
        (alone,) = run_cl_experiment(stream, method, cfg, cl, seed_rows(stepper, [r.seed]))
        assert _differing_columns(r.trace, alone.trace) == []
        assert r.matrix == alone.matrix and r.pre_train_acc == alone.pre_train_acc
        assert r.baseline_acc == alone.baseline_acc and r.gammas == alone.gammas
        assert r.examples == alone.examples
        assert r.final_theta.data.tobytes() == alone.final_theta.data.tobytes()
        assert r.final_theta.manifest == alone.final_theta.manifest
    if optimizer == "cflat++":
        on = np.array([r.trace["used_cflat"] for r in group])
        assert (on.any(axis=0) & ~on.all(axis=0)).any(), "no step had mixed gates"


@pytest.mark.parametrize("projected", [False, True])
@pytest.mark.parametrize("name", OPTIMIZER_NAMES)
def test_reported_grad_evals_equal_the_counted_oracle_rows(name, projected):
    rng, oracle, thetas, batches, stacked = _setup()
    proxy, _ = _split_proxy([oracle] * S, thetas, batches)  # mixed C-Flat++ gates
    inner = SeedGroup([_gated(name, proxy) for _ in range(S)])
    stepper = inner
    if projected:
        stepper = GpmStepper(inner, eta1=0.5, eta2=0.1)
        stepper.gpm_states = _gpm_states(oracle, thetas, batches)
    rows = []
    for method in ("grad", "hvp"):
        original = getattr(oracle, method)

        def counted(theta, *args, original=original):
            rows.append(theta.stack_size)
            return original(theta, *args)

        setattr(oracle, method, counted)
    inner.prepare(4)
    theta = stack(thetas)
    for _ in range(4):
        before = len(rows)
        theta, stats = stepper.step(oracle, theta, stacked, OptimConfig(eta=0.1))
        assert stats["grad_evals"].sum() == sum(rows[before:])


def test_divergence_names_the_first_failing_row_and_its_seed(monkeypatch):
    rng, oracle, thetas, batches, stacked = _setup()
    bad = stack(thetas).data.copy()
    bad[1, 0] = np.nan
    group = SeedGroup([make_stepper("sgd") for _ in range(S)])
    with pytest.raises(DivergenceError) as err:
        group.step(oracle, stack(thetas)._adopt(bad), stacked, OptimConfig(eta=0.1))
    assert err.value.row == 1

    from cflat import continual

    def poisoned(oracle, theta, x, y, *args):
        data = theta.data.copy()
        data[1] = np.nan
        return train_epochs(oracle, theta._adopt(data), x, y, *args)

    monkeypatch.setattr(continual, "train_epochs", poisoned)
    spec = SyntheticSpec(classes=4, dims=5, per_class=20, cluster_std=1.0, seed=4)
    stream = make_stream(synth_dataset(spec), "B0", 2)
    cl = CLConfig(hidden=(8,), epochs=1, batch_size=16)
    with pytest.raises(DivergenceError) as err:
        run_cl_experiment(stream, "replay", OptimConfig(eta=0.3), cl,
                          seed_rows(make_stepper("sgd"), [5, 6, 7]))
    assert (err.value.seed, err.value.row, err.value.task, err.value.step) == (6, 1, 0, 0)
    assert "of seed 6" in str(err.value)


def test_divergence_reports_the_failing_rows_last_finished_step(monkeypatch):
    rng, oracle, thetas, batches, stacked = _setup()

    def run():
        group = SeedGroup([make_stepper("sgd") for _ in range(S)])
        return train_epochs(oracle, stack(thetas), stacked.x, stacked.y, OptimConfig(eta=0.1),
                            group, epochs=2, batch_size=4,
                            rng=[SeededRng(s, 3) for s in range(S)])

    _, record = run()  # 3 steps an epoch, one gradient each
    grad, calls = oracle.grad, []

    def poisoned(theta, batch):
        g = grad(theta, batch)
        calls.append(None)
        if len(calls) < 5:
            return g
        data = g.data.copy()
        data[1] = np.nan
        return g._adopt(data)

    monkeypatch.setattr(oracle, "grad", poisoned)
    with pytest.raises(DivergenceError) as err:
        run()
    assert (err.value.row, err.value.step) == (1, 4)
    last = record[3]
    assert last["loss"][0] != last["loss"][1]
    assert err.value.last_loss == last["loss"][1]
    assert err.value.grad_norm == np.sqrt(last["sq_grad_norm"][1])


def test_the_harness_annotates_the_divergence_error_it_caught(monkeypatch):
    from cflat import continual

    raised = DivergenceError("non-finite loss encountered", step=4, last_loss=0.5,
                             grad_norm=2.0, row=2)

    def diverging(*args):
        raise raised

    monkeypatch.setattr(continual, "train_epochs", diverging)
    spec = SyntheticSpec(classes=4, dims=5, per_class=20, cluster_std=1.0, seed=4)
    stream = make_stream(synth_dataset(spec), "B0", 2)
    cl = CLConfig(hidden=(8,), epochs=1, batch_size=16)
    with pytest.raises(DivergenceError) as err:
        run_cl_experiment(stream, "replay", OptimConfig(eta=0.3), cl,
                          seed_rows(make_stepper("sgd"), [5, 6, 7]))
    assert err.value is raised
    assert (err.value.task, err.value.seed, err.value.row, err.value.step) == (0, 7, 2, 4)
    assert (err.value.last_loss, err.value.grad_norm) == (0.5, 2.0)
    assert str(err.value) == ("divergence in task 0 at step 4 of seed 7: "
                              "non-finite loss encountered")


def test_a_one_row_stack_and_a_vector_take_the_same_step():
    rng, oracle, thetas, batches, _ = _setup()
    cfg = OptimConfig(eta=0.2)
    one = Batch(batches[0].x[None], batches[0].y[None])
    stacked_theta, stacked_stats = make_stepper("cflat").step(oracle, stack(thetas[:1]), one, cfg)
    theta, stats = make_stepper("cflat").step(oracle, thetas[0], batches[0], cfg)
    assert stacked_theta.data[0].tobytes() == theta.data.tobytes()
    assert _differing_columns(stacked_stats, stats) == []


def test_a_stack_needs_one_gate_and_one_rng_per_row():
    rng, oracle, thetas, batches, stacked = _setup()
    with pytest.raises(ValueError, match="one gate per row"):
        make_stepper("sgd").step(oracle, stack(thetas), stacked, OptimConfig(eta=0.1))
    group = SeedGroup([make_stepper("sgd") for _ in range(S)])
    with pytest.raises(ValueError, match="one rng per seed"):
        train_epochs(oracle, stack(thetas), stacked.x, stacked.y, OptimConfig(eta=0.1), group,
                     epochs=1, batch_size=4, rng=[rng.spawn(s) for s in range(S - 1)])
