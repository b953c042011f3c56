"""Property tests over random MLPs: the optimizer reductions are bit-identical."""
import numpy as np
from hypothesis import given, settings, strategies as st

from cflat.continual import GpmStepper
from cflat.numcore import ParamVector, SeededRng
from cflat.objective import Batch, MlpOracle, MlpSpec
from cflat.optim import (
    OPTIMIZER_NAMES,
    CflatStepper,
    OptimConfig,
    ProxyState,
    SamStepper,
    SgdStepper,
    make_stepper,
    train_epochs,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def mlp_problems(draw):
    """(oracle, theta, batch) for an MLP with 0-2 hidden layers, tanh or relu, l2 >= 0."""
    d_in = draw(st.integers(1, 5))
    hidden = tuple(draw(st.lists(st.integers(1, 6), min_size=0, max_size=2)))
    n_classes = draw(st.integers(2, 4))
    activation = draw(st.sampled_from(["tanh", "relu"]))
    l2 = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    n = draw(st.integers(1, 8))
    rng = SeededRng(draw(st.integers(0, 2**31 - 1)))
    oracle = MlpOracle(MlpSpec(d_in, hidden, n_classes, activation, l2))
    theta = ParamVector(rng.normal(0.0, 1.0, oracle.dim), oracle.manifest)
    batch = Batch(rng.normal(0.0, 1.0, (n, d_in)), rng.integers(0, n_classes, n))
    return oracle, theta, batch


etas = st.floats(0.01, 0.5)
rhos = st.floats(0.0, 0.5)


@PROPERTY
@given(mlp_problems(), etas, rhos)
def test_cflat_at_zero_lam_is_sam(problem, eta, rho):
    oracle, theta, batch = problem
    cfg = OptimConfig(eta=eta, rho=rho, lam=0.0)
    a, _ = CflatStepper().step(oracle, theta, batch, cfg)
    b, _ = SamStepper().step(oracle, theta, batch, cfg)
    assert np.array_equal(a.data, b.data)


@PROPERTY
@given(mlp_problems(), etas)
def test_cflat_at_zero_lam_and_rho_is_sgd(problem, eta):
    oracle, theta, batch = problem
    cfg = OptimConfig(eta=eta, rho=0.0, lam=0.0)
    a, _ = CflatStepper().step(oracle, theta, batch, cfg)
    b, _ = SgdStepper().step(oracle, theta, batch, cfg)
    assert np.array_equal(a.data, b.data)


@PROPERTY
@given(mlp_problems(), st.sampled_from(OPTIMIZER_NAMES), etas, rhos, st.integers(0, 2**31 - 1))
def test_gpm_without_basis_is_its_inner_stepper(problem, name, eta, rho, seed):
    oracle, theta, batch = problem
    x = np.concatenate([batch.x] * 3)
    y = np.concatenate([batch.y] * 3)
    kw = dict(proxy=ProxyState(A=0.5, k=0.05, i0=3, eta0=5e-3), hybrid_p=0.5)
    cfg = OptimConfig(eta=eta, rho=rho)
    runs = []
    for stepper in (make_stepper(name, **kw), GpmStepper(make_stepper(name, **kw), 0.5, 0.05)):
        runs.append(train_epochs(oracle, theta, x, y, cfg, stepper, epochs=2,
                                 batch_size=len(batch.y), rng=SeededRng(seed)))
    assert np.array_equal(runs[0][0].data, runs[1][0].data)
    assert runs[0][1] == runs[1][1]
