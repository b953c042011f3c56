"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The benchmark workloads are synthetic 10-class B0_Inc2 streams (d=16, MLP).
Criteria 9-11 and 13 run on a tanh model; criterion 12 runs on a relu model
with scaled features so squared gradient norms are commensurate with the
default sharpness-proxy constants. Everything is seeded, so every number
asserted here is reproducible bit-for-bit.
"""
import json
import math
import time

import numpy as np
import pytest

from cflat.cli import main as cli_main
from cflat.continual import (
    CLConfig,
    SyntheticSpec,
    make_stream,
    run_cl_experiment,
    seed_rows,
    synth_dataset,
)
from cflat.landscape import (
    hutchinson_trace,
    power_iter_lambda_max,
    r0_bruteforce,
    r1_bruteforce,
)
from cflat.metrics import average_accuracy, bwt, cflat_proportion
from cflat.numcore import ParamVector, SeededRng, norm2
from cflat.objective import Batch, MlpOracle, MlpSpec, QuadraticOracle
from cflat.optim import CflatStepper, OptimConfig, SamStepper, SgdStepper, make_stepper

SEEDS = [0, 1, 2, 3, 4]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# shared benchmark runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench():
    """Tanh benchmark: replay/wa/finetune under sgd and cflat, 5 seeds."""
    spec = SyntheticSpec(classes=10, dims=16, per_class=80, cluster_std=1.2,
                         seed=7, label_noise=0.2)
    stream = make_stream(synth_dataset(spec), "B0", 2)
    cl = CLConfig(hidden=(32,), activation="tanh", epochs=15, batch_size=32)
    cfg = OptimConfig(eta=0.5)
    runs = {}
    for method, opt in [("finetune", "sgd"), ("replay", "sgd"), ("replay", "cflat"),
                        ("wa", "sgd"), ("wa", "cflat")]:
        runs[(method, opt)] = run_cl_experiment(stream, method, cfg, cl,
                                                seed_rows(make_stepper(opt), SEEDS))
    return {"stream": stream, "cl": cl, "cfg": cfg, "runs": runs}


@pytest.fixture(scope="module")
def efficiency_bench():
    """Relu benchmark with scaled features: gradient norms engage the proxy."""
    spec = SyntheticSpec(classes=10, dims=16, per_class=80, cluster_std=1.2,
                         seed=7, label_noise=0.2, feature_scale=3.0)
    stream = make_stream(synth_dataset(spec), "B0", 2)
    cl = CLConfig(hidden=(32,), activation="relu", epochs=15, batch_size=32)
    cfg = OptimConfig(eta=0.1)
    runs = {
        opt: [run_cl_experiment(stream, "replay", cfg, cl, seed_rows(make_stepper(opt), [s]))[0]
              for s in SEEDS]
        for opt in ("cflat", "cflat++")
    }
    return {"stream": stream, "cl": cl, "cfg": cfg, "runs": runs}


def mean_avg_accuracy(results) -> float:
    return float(np.mean([average_accuracy(r.matrix) for r in results]))


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------


def central_diff_grad(loss_fn, theta, delta):
    out = np.zeros(theta.dim)
    for i in range(theta.dim):
        up = theta.data.copy()
        up[i] += delta
        dn = theta.data.copy()
        dn[i] -= delta
        out[i] = (loss_fn(theta.with_data(up)) - loss_fn(theta.with_data(dn))) / (2 * delta)
    return out


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = SeededRng(101)
    worst_mlp, worst_analytic = 0.0, 0.0

    mlp = MlpOracle(MlpSpec(3, (4,), 3, activation="tanh", l2=0.01))
    logreg = MlpOracle(MlpSpec(4, (), 3, l2=0.01))
    quad = QuadraticOracle(np.diag([1.0, 2.0, 3.0]), c=np.array([0.1, -0.2, 0.3]))

    for trial in range(20):
        theta = ParamVector(rng.normal(size=mlp.dim), mlp.manifest)
        batch = Batch(rng.normal(size=(6, 3)), rng.integers(0, 3, 6))
        fd = central_diff_grad(lambda th: mlp.loss(th, batch), theta, 1e-5)
        g = mlp.grad(theta, batch).data
        worst_mlp = max(worst_mlp, np.max(np.abs(fd - g)) / np.max(np.abs(g)))

    for trial in range(15):
        theta = ParamVector(rng.normal(size=logreg.dim), logreg.manifest)
        batch = Batch(rng.normal(size=(6, 4)), rng.integers(0, 3, 6))
        fd = central_diff_grad(lambda th: logreg.loss(th, batch), theta, 1e-6)
        g = logreg.grad(theta, batch).data
        worst_analytic = max(worst_analytic, np.max(np.abs(fd - g)) / np.max(np.abs(g)))

    for trial in range(15):
        theta = ParamVector(rng.normal(size=3))
        fd = central_diff_grad(lambda th: quad.loss(th), theta, 1e-6)
        g = quad.grad(theta).data
        worst_analytic = max(worst_analytic, np.max(np.abs(fd - g)) / np.max(np.abs(g)))

    elapsed = time.perf_counter() - start
    ok = worst_mlp <= 1e-4 and worst_analytic <= 1e-8 and elapsed < 10
    report(1, ok, f"mlp rel err {worst_mlp:.2e} (<=1e-4), analytic {worst_analytic:.2e} "
                  f"(<=1e-8), {elapsed:.2f}s (<10s)")


# ---------------------------------------------------------------------------
# 2. hvp correctness
# ---------------------------------------------------------------------------


def dense_logreg_hessian(oracle, theta, batch):
    """Independent dense assembly of the softmax-CE Hessian for small dims."""
    n, d = batch.x.shape
    C = oracle.n_classes
    dim = C * d + C
    z = batch.x @ theta.view("W0").T + theta.view("b0")
    e = np.exp(z - z.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    H = np.zeros((dim, dim))
    for i in range(n):
        A = np.diag(p[i]) - np.outer(p[i], p[i])
        J = np.zeros((C, dim))
        for k in range(C):
            J[k, k * d:(k + 1) * d] = batch.x[i]
            J[k, C * d + k] = 1.0
        H += J.T @ A @ J
    H /= n
    H += oracle.l2 * np.eye(dim)
    return H


def central_diff_hvp(grad_fn, theta, v, delta_fd=1e-4):
    vnorm = norm2(v)
    delta = delta_fd * (1.0 + norm2(theta))
    vhat = v.data / vnorm
    gp = grad_fn(theta.with_data(theta.data + delta * vhat))
    gm = grad_fn(theta.with_data(theta.data - delta * vhat))
    return (gp.data - gm.data) * (vnorm / (2 * delta))


def test_criterion_2_hvp_correctness():
    start = time.perf_counter()
    rng = SeededRng(102)

    quad_H = np.array([[2.0, 0.4, 0.0], [0.4, 1.0, -0.3], [0.0, -0.3, 3.0]])
    quad = QuadraticOracle(quad_H)
    logreg = MlpOracle(MlpSpec(3, (), 3, l2=0.02))
    worst_exact = 0.0
    for trial in range(10):
        theta_q = ParamVector(rng.normal(size=3))
        v_q = ParamVector(rng.normal(size=3))
        got = quad.hvp(theta_q, v_q).data
        worst_exact = max(worst_exact, np.max(np.abs(got - quad_H @ v_q.data)))

        theta_l = ParamVector(rng.normal(size=logreg.dim), logreg.manifest)
        batch = Batch(rng.normal(size=(5, 3)), rng.integers(0, 3, 5))
        H = dense_logreg_hessian(logreg, theta_l, batch)
        v_l = ParamVector(rng.normal(size=logreg.dim), logreg.manifest)
        got = logreg.hvp(theta_l, v_l, batch).data
        worst_exact = max(worst_exact, np.max(np.abs(got - H @ v_l.data)))

    mlp = MlpOracle(MlpSpec(3, (5,), 3, activation="tanh"))
    worst_mlp = 0.0
    for trial in range(10):
        theta = ParamVector(rng.normal(size=mlp.dim), mlp.manifest)
        batch = Batch(rng.normal(size=(6, 3)), rng.integers(0, 3, 6))
        v = ParamVector(rng.normal(size=mlp.dim), mlp.manifest)
        fwd = mlp.hvp(theta, v, batch).data
        ctr = central_diff_hvp(lambda th: mlp.grad(th, batch), theta, v)
        worst_mlp = max(worst_mlp, np.linalg.norm(fwd - ctr) / np.linalg.norm(ctr))

    elapsed = time.perf_counter() - start
    ok = worst_exact <= 1e-10 and worst_mlp <= 1e-3 and elapsed < 10
    report(2, ok, f"analytic abs err {worst_exact:.2e} (<=1e-10), mlp rel err "
                  f"{worst_mlp:.2e} (<=1e-3), {elapsed:.2f}s (<10s)")


# ---------------------------------------------------------------------------
# 3. reduction lattice
# ---------------------------------------------------------------------------


def test_criterion_3_reduction_lattice():
    rng = SeededRng(103)
    mlp = MlpOracle(MlpSpec(3, (4,), 3))
    quad = QuadraticOracle(np.diag(np.linspace(0.5, 2.0, mlp.dim)))
    identical = 0
    total = 0
    for trial in range(100):
        oracle = mlp if trial % 2 == 0 else quad
        theta = ParamVector(rng.normal(size=mlp.dim), mlp.manifest)
        batch = Batch(rng.normal(size=(5, 3)), rng.integers(0, 3, 5))
        eta = float(abs(rng.normal()) * 0.2 + 0.01)
        rho = float(abs(rng.normal()) * 0.2)

        cfg = OptimConfig(eta=eta, rho=rho, lam=0.0)
        a, _ = CflatStepper().step(oracle, theta, batch, cfg)
        b, _ = SamStepper().step(oracle, theta, batch, cfg)
        total += 1
        identical += np.array_equal(a.data, b.data)

        cfg0 = OptimConfig(eta=eta, rho=0.0, lam=0.0)
        c, _ = CflatStepper().step(oracle, theta, batch, cfg0)
        d, _ = SgdStepper().step(oracle, theta, batch, cfg0)
        total += 1
        identical += np.array_equal(c.data, d.data)
    ok = identical == total
    report(3, ok, f"{identical}/{total} updates bit-identical across the lattice")


# ---------------------------------------------------------------------------
# 4. zeroth-order bounded by first-order flatness
# ---------------------------------------------------------------------------


def test_criterion_4_sharpness_ordering():
    start = time.perf_counter()
    rng = SeededRng(104)
    violations = 0
    for trial in range(100):
        d = int(rng.integers(2, 6))
        A = rng.normal(size=(d, d))
        oracle = QuadraticOracle(A + A.T)
        theta = ParamVector(rng.normal(size=d))
        rho = [0.05, 0.1, 0.2][trial % 3]
        probes = SeededRng(104, 1000 + trial)
        r0 = r0_bruteforce(oracle, theta, None, rho, 2000, probes.spawn(0))
        r1 = r1_bruteforce(oracle, theta, None, rho, 2000, probes.spawn(1))
        if r0 > 1.02 * r1:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30
    report(4, ok, f"{violations}/100 ordering violations, {elapsed:.1f}s (<30s)")


# ---------------------------------------------------------------------------
# 5. first-order flatness equals rho^2 * lambda_max at quadratic minima
# ---------------------------------------------------------------------------


def test_criterion_5_eigenvalue_relation():
    rng = SeededRng(105)
    ratios = []
    for d in (2, 3, 4, 5):
        A = rng.normal(size=(d, d))
        H = A @ A.T + 0.5 * np.eye(d)
        oracle = QuadraticOracle(H)
        lam_max = float(np.linalg.eigvalsh(H)[-1])
        rho = 0.1
        r1 = r1_bruteforce(oracle, ParamVector(np.zeros(d)), None, rho, 10_000,
                           SeededRng(105, d))
        ratios.append(r1 / (rho ** 2 * lam_max))
    ok = all(0.9 <= r <= 1.0 for r in ratios)
    report(5, ok, "ratios r1/(rho^2 lam_max) = "
                  + ", ".join(f"{r:.4f}" for r in ratios) + " (all in [0.9, 1.0])")


# ---------------------------------------------------------------------------
# 6. eigenvalue and trace estimators vs dense oracles
# ---------------------------------------------------------------------------


def test_criterion_6_eigen_trace_oracles():
    rng = SeededRng(106)
    worst_eig = 0.0
    worst_trace = 0.0
    for trial in range(5):
        d = 6
        A = rng.normal(size=(d, d))
        H_sym = A + A.T
        oracle = QuadraticOracle(H_sym)
        vals = np.linalg.eigvalsh(H_sym)
        dominant = vals[np.argmax(np.abs(vals))]
        got = power_iter_lambda_max(oracle, ParamVector(np.zeros(d)), None,
                                    iters=3000, tol=1e-13, rng=SeededRng(106, trial))
        worst_eig = max(worst_eig, abs(got - dominant) / abs(dominant))

        # PSD matrices so the trace dominates the off-diagonal probe variance
        H_psd = A @ A.T
        est = hutchinson_trace(QuadraticOracle(H_psd), ParamVector(np.zeros(d)), None,
                               probes=10_000, rng=SeededRng(106, 100 + trial))
        worst_trace = max(worst_trace, abs(est - np.trace(H_psd)) / abs(np.trace(H_psd)))
    ok = worst_eig <= 1e-4 and worst_trace <= 0.02
    report(6, ok, f"power-iteration rel err {worst_eig:.2e} (<=1e-4), "
                  f"hutchinson rel err {worst_trace:.2e} (<=2%)")


# ---------------------------------------------------------------------------
# 7. proxy gating replayed from trace.csv
# ---------------------------------------------------------------------------


def test_criterion_7_proxy_gating_replay(tmp_path):
    cfg = {
        "dataset": {"kind": "synthetic", "classes": 6, "dims": 8, "per_class": 60,
                    "cluster_std": 1.2, "seed": 9, "label_noise": 0.2,
                    "feature_scale": 3.0},
        "increment": 2,
        "method": "replay",
        "optimizer": "cflat++",
        "optim": {"eta": 0.1},
        "model": {"hidden": [16], "activation": "relu"},
        "train": {"epochs": 4, "batch_size": 16},
        "seeds": [0, 1],
        "out_dir": str(tmp_path / "run"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg_path)]) == 0

    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    A0 = manifest["config"]["proxy"]["A"]
    k = manifest["config"]["proxy"]["k"]
    i0 = manifest["config"]["proxy"]["i0"]
    eta0 = manifest["config"]["proxy"]["eta0"]

    lines = (tmp_path / "run" / "trace.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]

    checked = 0
    state: dict[tuple, tuple] = {}  # (seed, task) -> (A, i)
    for row in rows:
        key = (row["seed"], row["task"])
        A, i = state.get(key, (A0, 1))
        proxy = A / (1.0 + math.exp(-k * (i - i0)))
        s = float(row["sq_grad_norm"])
        feedback = proxy - s
        assert float(row["proxy_value"]) == proxy, "proxy mismatch on replay"
        assert (row["used_cflat"] == "true") == (feedback <= 0), "gating mismatch"
        state[key] = (A - eta0 * feedback, i + 1)
        checked += 1
    fired = sum(1 for r in rows if r["used_cflat"] == "true")
    ok = checked == len(rows) and 0 < fired < len(rows)
    report(7, ok, f"replayed {checked} steps exactly; gate fired {fired}/{len(rows)}")


# ---------------------------------------------------------------------------
# 8. gradient projection stays out of the stored span
# ---------------------------------------------------------------------------


def test_criterion_8_gpm_projection():
    spec = SyntheticSpec(classes=6, dims=8, per_class=60, cluster_std=1.0, seed=17)
    stream = make_stream(synth_dataset(spec), "B0", 2)
    cl = CLConfig(hidden=(12,), epochs=4, batch_size=16, gpm_eta1=0.0)
    checked = 0
    worst = 0.0
    for r in run_cl_experiment(stream, "gpm", OptimConfig(eta=0.3), cl,
                               seed_rows(make_stepper("cflat"), (0, 1))):
        projected = r.trace[~np.isnan(r.trace["gpm_in_span"])]
        checked += projected.size
        ratios = projected["gpm_in_span"] / np.maximum(projected["gpm_src_norm"], 1e-300)
        worst = max(worst, *ratios.tolist())
    ok = checked > 0 and worst <= 1e-8
    report(8, ok, f"{checked} projected steps, worst in-span ratio {worst:.2e} (<=1e-8)")


# ---------------------------------------------------------------------------
# 9. forgetting and its mitigation by replay
# ---------------------------------------------------------------------------


def test_criterion_9_forgetting_and_replay(bench):
    start = time.perf_counter()
    finetune = bench["runs"][("finetune", "sgd")]
    replay = bench["runs"][("replay", "sgd")]
    bwts = [bwt(r.matrix) for r in finetune]
    improvement = mean_avg_accuracy(replay) - mean_avg_accuracy(finetune)
    elapsed = time.perf_counter() - start
    ok = max(bwts) < -0.05 and improvement >= 0.03
    report(9, ok, f"finetune bwt max {max(bwts):.3f} (<-0.05), replay improvement "
                  f"{improvement:+.3f} (>=0.03), check {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 10. flatter is better: cflat vs sgd on replay and weight alignment
# ---------------------------------------------------------------------------


def test_criterion_10_flatter_is_better(bench):
    diffs = {}
    for method in ("replay", "wa"):
        sgd = mean_avg_accuracy(bench["runs"][(method, "sgd")])
        cf = mean_avg_accuracy(bench["runs"][(method, "cflat")])
        diffs[method] = cf - sgd
    ok = all(d >= 0 for d in diffs.values()) and np.mean(list(diffs.values())) > 0
    report(10, ok, "mean avg-accuracy improvement "
                   + ", ".join(f"{m}: {d:+.4f}" for m, d in diffs.items()))


# ---------------------------------------------------------------------------
# 11. flatness ordering at end of training
# ---------------------------------------------------------------------------


def end_of_training_curvature(bench, result):
    stream = bench["stream"]
    cl = bench["cl"]
    d_in = stream.tasks[0].train_x.shape[1]
    C = sum(t.n_new for t in stream.tasks)
    oracle = MlpOracle(MlpSpec(d_in, cl.hidden, C, cl.activation, cl.l2))
    x = np.concatenate([t.train_x for t in stream.tasks])[:512]
    y = np.concatenate([t.train_y for t in stream.tasks])[:512]
    batch = Batch(x, y)
    lam = power_iter_lambda_max(oracle, result.final_theta, batch, iters=300,
                                tol=1e-10, rng=SeededRng(111, 1))
    trace = hutchinson_trace(oracle, result.final_theta, batch, probes=100,
                             rng=SeededRng(111, 2))
    return lam, trace


def test_criterion_11_flatness_ordering(bench):
    lam_wins = 0
    trace_wins = 0
    for r_sgd, r_cf in zip(bench["runs"][("replay", "sgd")],
                           bench["runs"][("replay", "cflat")]):
        lam_s, tr_s = end_of_training_curvature(bench, r_sgd)
        lam_c, tr_c = end_of_training_curvature(bench, r_cf)
        lam_wins += lam_c <= lam_s
        trace_wins += tr_c <= tr_s
    ok = lam_wins >= 4 and trace_wins >= 4
    report(11, ok, f"lambda_max lower in {lam_wins}/5 seeds, trace lower in "
                   f"{trace_wins}/5 (need >=4)")


# ---------------------------------------------------------------------------
# 12. selective sharpness minimization is cheaper and as accurate
# ---------------------------------------------------------------------------


def test_criterion_12_cflatpp_efficiency(efficiency_bench):
    cf = efficiency_bench["runs"]["cflat"]
    pp = efficiency_bench["runs"]["cflat++"]
    proportion = float(np.mean([cflat_proportion(r.trace) for r in pp]))
    thr_cf = float(np.mean([r.examples / r.train_seconds for r in cf]))
    thr_pp = float(np.mean([r.examples / r.train_seconds for r in pp]))
    speedup = thr_pp / thr_cf
    gap = abs(mean_avg_accuracy(pp) - mean_avg_accuracy(cf))
    ok = 0.10 <= proportion <= 0.60 and speedup >= 1.3 and gap <= 0.02
    report(12, ok, f"proportion {proportion:.3f} (in [0.10, 0.60]), throughput "
                   f"x{speedup:.2f} (>=1.3), accuracy gap {gap:.4f} (<=0.02)")


# ---------------------------------------------------------------------------
# 13. hybrid mixing: accuracy non-decreasing in the flatness share
# ---------------------------------------------------------------------------


def spearman(xs, ys):
    rx = np.argsort(np.argsort(xs)).astype(float)
    ry = np.argsort(np.argsort(ys)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def test_criterion_13_hybrid_grid(bench):
    stream, cfg = bench["stream"], bench["cfg"]
    ps = [0.0, 0.25, 0.5, 0.75, 1.0]
    accs = []
    for p in ps:
        cl = CLConfig(hidden=(32,), activation="tanh", epochs=15, batch_size=32)
        rows = seed_rows(make_stepper("hybrid", p=p, ordering="cflat_last"), SEEDS)
        accs.append(mean_avg_accuracy(run_cl_experiment(stream, "replay", cfg, cl, rows)))
    corr = spearman(ps, accs)
    ok = corr > 0
    report(13, ok, "accuracy by p: " + ", ".join(f"{a:.4f}" for a in accs)
                   + f"; spearman {corr:.2f} (>0)")


# ---------------------------------------------------------------------------
# 14. end-to-end determinism
# ---------------------------------------------------------------------------


def test_criterion_14_end_to_end_determinism(tmp_path):
    def run(out):
        cfg = {
            "dataset": {"kind": "synthetic", "classes": 4, "dims": 6, "per_class": 40,
                        "cluster_std": 1.0, "seed": 3},
            "increment": 2,
            "method": "replay",
            "optimizer": "cflat",
            "optim": {"eta": 0.3},
            "model": {"hidden": [8]},
            "train": {"epochs": 3, "batch_size": 16},
            "seeds": [0, 1],
            "out_dir": str(out),
        }
        path = tmp_path / f"{out.name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli_main(["run", "--config", str(path)]) == 0
        return (out / "metrics.csv").read_bytes()

    first = run(tmp_path / "one")
    second = run(tmp_path / "two")
    ok = first == second
    report(14, ok, f"metrics.csv byte-identical across reruns ({len(first)} bytes)")
