"""Property tests over random MLPs: the optimizer reductions are bit-identical
and head growth keeps every old head weight; over the config resolver: a
non-finite number is rejected by its key; and over the CSV loader: a corrupted
row is rejected by its number."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cflat.cli import _DEFAULT_CONFIG, ConfigError, resolve_config
from cflat.continual import GpmStepper, grow_head, load_csv_dataset
from cflat.numcore import ParamVector, SeededRng
from cflat.objective import Batch, MlpOracle, MlpSpec
from cflat.optim import (
    OPTIMIZER_NAMES,
    CflatStepper,
    OptimConfig,
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
    kw = {"cflat++": dict(A=0.5, k=0.05, i0=3, eta0=5e-3), "hybrid": dict(p=0.5)}.get(name, {})
    cfg = OptimConfig(eta=eta, rho=rho)
    runs = []
    for stepper in (make_stepper(name, **kw), GpmStepper(make_stepper(name, **kw), 0.5, 0.05)):
        runs.append(train_epochs(oracle, theta, x, y, cfg, stepper, epochs=2,
                                 batch_size=len(batch.y), rng=SeededRng(seed)))
    assert np.array_equal(runs[0][0].data, runs[1][0].data)
    assert runs[0][1].tobytes() == runs[1][1].tobytes()  # every cell, empty ones too


@PROPERTY
@given(st.integers(1, 6), st.lists(st.integers(1, 6), max_size=2), st.integers(2, 5),
       st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_grow_head_keeps_every_old_head_weight_and_bias(d_in, hidden, n_out, new, seed):
    rng = SeededRng(seed)
    oracle = MlpOracle(MlpSpec(d_in, tuple(hidden), n_out))
    theta = ParamVector(rng.normal(0.0, 1.0, oracle.dim), oracle.manifest)
    grown = grow_head(theta, new, rng.spawn(1))
    assert grown.manifest == oracle.with_head(n_out + new).manifest
    w_name, b_name = (seg.name for seg in theta.manifest[-2:])
    assert grown.view(w_name)[:n_out].tobytes() == theta.view(w_name).tobytes()
    assert grown.view(b_name)[:n_out].tobytes() == theta.view(b_name).tobytes()
    assert (grown.view(b_name)[n_out:] == 0.0).all()
    body = theta.manifest[-2].offset
    assert grown.data[:body].tobytes() == theta.data[:body].tobytes()


# (cell to write, column it goes in: "label", "feature" or "any"); None means
# the row loses its last cell, "extra" that it gains one
CSV_CORRUPTIONS = [
    (None, "any"), ("extra", "any"), ("abc", "any"), ("", "any"),
    ("nan", "any"), ("inf", "any"), ("-inf", "feature"),
    ("-1", "label"), ("-3", "label"), ("0.5", "label"), ("2.25", "label"),
]


@PROPERTY
@given(st.integers(2, 6), st.integers(1, 4), st.sampled_from(CSV_CORRUPTIONS),
       st.data(), st.integers(0, 2**31 - 1))
def test_load_csv_dataset_rejects_a_corrupted_row_by_its_number(tmp_path_factory, n, dims,
                                                                corruption, data, seed):
    rng = SeededRng(seed)
    rows = [[str(int(label))] + [repr(float(v)) for v in features]
            for label, features in zip(rng.integers(0, 3, n), rng.normal(size=(n, dims)))]
    cell, where = corruption
    # the first data row sets the width, so a width change goes on a later row
    k = data.draw(st.integers(1 if cell in (None, "extra") else 0, n - 1), label="row")
    if cell is None:
        rows[k].pop()
    elif cell == "extra":
        rows[k].append("0.0")
    else:
        columns = {"label": [0], "feature": list(range(1, dims + 1))}.get(where, range(dims + 1))
        rows[k][data.draw(st.sampled_from(list(columns)), label="column")] = cell
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    lines = ["label," + ",".join(f"f{j}" for j in range(dims))] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f": data row {k + 1} has"):
        load_csv_dataset(str(path))


def _numeric_leaves(node: dict, prefix: str = "") -> list[str]:
    """Dotted keys of the config's number leaves (None marks an optional number)."""
    leaves = []
    for key, value in node.items():
        if isinstance(value, dict):
            leaves += _numeric_leaves(value, f"{prefix}{key}.")
        elif value is None or isinstance(value, (int, float)) and not isinstance(value, bool):
            leaves.append(prefix + key)
    return leaves


NUMERIC_LEAVES = _numeric_leaves(_DEFAULT_CONFIG)


def test_the_config_has_float_int_and_optional_number_leaves():
    kinds = set()
    for path in NUMERIC_LEAVES:
        node = _DEFAULT_CONFIG
        for part in path.split("."):
            node = node[part]
        kinds.add(type(node))
    assert kinds == {float, int, type(None)}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(NUMERIC_LEAVES), st.sampled_from([float("nan"), float("inf"), float("-inf")]))
def test_a_non_finite_number_is_rejected_by_its_key(path, value):
    *sections, key = path.split(".")
    doc: dict = {}
    node = doc
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    with pytest.raises(ConfigError) as err:
        resolve_config(doc)
    assert err.value.field == path
