import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from cflat.cli import _GATE_SECTIONS, ConfigError, _defaults, _fmt, _inputs, main, resolve_config
from cflat.continual import CLConfig, SyntheticSpec
from cflat.optim import CflatPPStepper, HybridStepper, OptimConfig


def base_config(out_dir, **overrides):
    cfg = {
        "dataset": {"kind": "synthetic", "classes": 4, "dims": 6, "per_class": 40,
                    "cluster_std": 1.0, "seed": 3},
        "protocol": "B0",
        "increment": 2,
        "method": "replay",
        "optimizer": "cflat",
        "optim": {"eta": 0.3},
        "model": {"hidden": [8]},
        "train": {"epochs": 2, "batch_size": 16},
        "seeds": [0],
        "out_dir": str(out_dir),
    }
    for key, value in overrides.items():
        cfg[key] = value
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_config_enums_are_the_library_name_tuples():
    from cflat import cli, continual, objective, optim

    assert cli._ENUMS["protocol"] is continual.PROTOCOL_NAMES
    assert cli._ENUMS["method"] is continual.METHOD_NAMES
    assert cli._ENUMS["optimizer"] is optim.OPTIMIZER_NAMES
    assert cli._ENUMS["model.activation"] is objective.ACTIVATION_NAMES
    assert cli._ENUMS["hybrid.ordering"] is optim.HYBRID_ORDERINGS


@pytest.mark.parametrize("value, text", [
    (np.True_, "true"), (np.False_, "false"), (True, "true"),
    (np.int64(3), "3"), (np.float64(0.1), "0.1"), (None, ""),
    # NaN only turns into an empty cell in the trace writer, never in _fmt
    (np.float64("nan"), "nan"),
])
def test_csv_cells_format_numpy_scalars_like_python_ones(value, text):
    assert _fmt(value) == text


def test_run_produces_all_outputs(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, base_config(out))
    assert main(["run", "--config", cfg]) == 0
    for name in ("manifest.json", "metrics.csv", "trace.csv", "checkpoint_seed0.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["optimizer"] == "cflat"
    assert manifest["aggregate"]["cflat_proportion_mean"] == 1.0


def test_run_rerun_is_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_a = write_config(tmp_path, base_config(out_a), "a.json")
    cfg_b = write_config(tmp_path, base_config(out_b), "b.json")
    assert main(["run", "--config", cfg_a]) == 0
    assert main(["run", "--config", cfg_b]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


def test_demo_config_twice_in_one_process_writes_identical_files(tmp_path):
    from cflat.cli import run_experiment_from_config

    demo = Path(__file__).resolve().parent.parent / "configs" / "demo.json"
    cfg = resolve_config(json.loads(demo.read_text(encoding="utf-8")))
    for out in ("a", "b"):
        run_experiment_from_config(cfg, _inputs(cfg), tmp_path / out)
    for name in ("metrics.csv", "trace.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_jobs_writes_the_same_files_as_one_job(tmp_path, monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    from cflat import cli

    pools = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, mp_context=mp_context)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountedPool)
    outs = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        cfg = write_config(tmp_path, base_config(out, seeds=[0, 1, 2]), f"j{jobs}.json")
        assert main(["run", "--config", cfg, "--jobs", str(jobs)]) == 0
        outs[jobs] = out
    # a single seed runs in this process whatever --jobs asks for
    one = write_config(tmp_path, base_config(tmp_path / "one", seeds=[0]), "one.json")
    assert main(["run", "--config", one, "--jobs", "2"]) == 0
    assert pools == [2]
    names = ["metrics.csv", "trace.csv"] + [f"checkpoint_seed{s}.json" for s in (0, 1, 2)]
    for name in names:
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name
    manifests = [json.loads((outs[j] / "manifest.json").read_text()) for j in (1, 2)]
    for manifest in manifests:
        del manifest["timing"]
        manifest["config"].pop("out_dir")
    assert manifests[0] == manifests[1]


def test_subprocess_run_matches_in_process(tmp_path):
    import subprocess
    import sys

    out_a = tmp_path / "inproc"
    out_b = tmp_path / "subproc"
    cfg_a = write_config(tmp_path, base_config(out_a), "a.json")
    cfg_b = write_config(tmp_path, base_config(out_b), "b.json")
    assert main(["run", "--config", cfg_a]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "cflat.cli", "run", "--config", cfg_b],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


def test_run_from_manifest_reproduces(tmp_path):
    out = tmp_path / "orig"
    cfg = write_config(tmp_path, base_config(out))
    assert main(["run", "--config", cfg]) == 0
    replay_out = tmp_path / "replayed"
    rc = main(["run", "--config", str(out / "manifest.json"), "--out", str(replay_out)])
    assert rc == 0
    assert (out / "metrics.csv").read_bytes() == (replay_out / "metrics.csv").read_bytes()


def test_invalid_optimizer_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(tmp_path / "x", optimizer="adamw"))
    assert main(["run", "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "config"
    assert err["error"]["field"] == "optimizer"


def test_unknown_key_rejected(tmp_path, capsys):
    doc = base_config(tmp_path / "x")
    doc["optim"]["lambda"] = 0.5
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "optim.lambda" in err["error"]["message"]


@pytest.mark.parametrize("field, value", [
    ("optim.rho_max", 0.2),
    ("optim.eta_max", 0.5),
    ("optim.eps_guard", 1e-12),
    ("train.milestones", [1]),
    ("train.lr_decay", 0.1),
])
def test_a_removed_or_moved_schedule_key_fails_at_load(tmp_path, capsys, field, value):
    out = tmp_path / "run"
    doc = base_config(out)
    section, key = field.split(".")
    doc[section][key] = value
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and error["field"] == field
    assert not out.exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_divergent_run_exits_with_error_json(tmp_path, capsys):
    # relu activations compound the blow-up until the forward pass overflows
    # (tanh saturates and never reaches non-finite values)
    doc = base_config(tmp_path / "x")
    doc["optim"] = {"eta": 1e200}
    doc["model"] = {"hidden": [8], "activation": "relu"}
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "divergence"
    assert err["error"]["task"] == 0
    assert err["error"]["step"] >= 1
    assert math.isfinite(err["error"]["last_loss"])
    assert math.isfinite(err["error"]["grad_norm"]) and err["error"]["grad_norm"] > 0
    assert err["error"]["message"].startswith(f"divergence in task 0 at step {err['error']['step']}")
    assert "step" in err["error"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_diverging_run_writes_one_json_line_to_stderr(tmp_path, jobs):
    # the forward pass overflows on the way to the non-finite gradient norm
    # that ends the run; no numpy warning may come before the payload, in
    # this process or in a worker
    import subprocess
    import sys

    doc = json.loads((Path(__file__).resolve().parent.parent / "configs" / "demo.json")
                     .read_text(encoding="utf-8"))
    doc["dataset"]["feature_scale"] = 1e155
    doc["model"] = {"hidden": [32], "activation": "relu"}
    doc["seeds"] = [0, 1]
    cfg = write_config(tmp_path, doc)
    proc = subprocess.run(
        [sys.executable, "-m", "cflat.cli", "run", "--config", cfg, "--jobs", jobs,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"]["kind"] == "divergence"


def test_seeds_flag_overrides_config(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, base_config(out))
    assert main(["run", "--config", cfg, "--seeds", "7,8"]) == 0
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["7", "8"]
    assert (out / "checkpoint_seed7.json").exists()


def test_manifest_mean_matrix_averages_seeds(tmp_path):
    out = tmp_path / "run"
    doc = base_config(out, optimizer="sgd", optim={"eta": 0.5}, seeds=[0, 1])
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    mean = manifest["aggregate"]["mean_accuracy_matrix"]
    assert len(mean) == manifest["n_tasks"] == 2
    for t, row in enumerate(mean):
        assert len(row) == t + 1
        for i in range(t + 1):
            direct = np.mean([s["accuracy_matrix"][t][i] for s in manifest["per_seed"]])
            assert row[i] == pytest.approx(direct, rel=1e-12)


def test_lr_milestones_below_eta_min_train_at_the_floor(tmp_path):
    out = tmp_path / "run"
    doc = base_config(out, optim={"eta": 0.5, "eta_min": 0.1, "rho_min": 0.05,
                                  "milestones": [1], "lr_decay": 0.1})
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    assert (out / "metrics.csv").exists()


def test_resolve_config_fills_defaults():
    cfg = resolve_config({"seeds": [1, 2]})
    assert cfg["optim"]["rho"] == 0.2
    assert cfg["optim"]["lam"] == 0.2
    assert cfg["perm_seed"] == 1993
    assert cfg["memory"]["capacity_per_class"] == 20
    assert cfg["proxy"]["A"] == 5.0
    with pytest.raises(ConfigError):
        resolve_config({"seeds": []})


def test_dataclasses_built_from_the_default_config_are_the_library_defaults():
    cfg = resolve_config({})
    _, optim, cl, _ = _inputs(cfg)
    assert cl == CLConfig()
    assert optim == OptimConfig()
    # each gate's settings, read from the config's proxy.* and hybrid.* keys
    for name, cls in (("cflat++", CflatPPStepper), ("hybrid", HybridStepper)):
        built = _inputs({**cfg, "optimizer": name})[3]
        assert type(built) is cls
        assert {key: getattr(built, key) for key in _defaults(cls)} == \
            {key: getattr(cls(), key) for key in _defaults(cls)}
    assert set(_GATE_SECTIONS) == {"optimizer", "proxy", "hybrid", "out_dir"}


def test_the_default_synthetic_dataset_is_the_library_default():
    dataset = resolve_config({})["dataset"]
    defaults = dataclasses.asdict(SyntheticSpec())
    assert {key: dataset[key] for key in defaults} == defaults


def test_gpm_cflatpp_run_replays_its_gate_from_trace(tmp_path):
    doc = base_config(tmp_path / "run", method="gpm", optimizer="cflat++", seeds=[0, 1])
    doc["dataset"].update(classes=6, dims=8, per_class=60, cluster_std=1.2, seed=9,
                          label_noise=0.2, feature_scale=3.0)
    doc["optim"] = {"eta": 0.1}
    doc["model"] = {"hidden": [16], "activation": "relu"}
    doc["train"] = {"epochs": 4, "batch_size": 16}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    proxy_cfg = json.loads((tmp_path / "run" / "manifest.json").read_text())["config"]["proxy"]

    lines = (tmp_path / "run" / "trace.csv").read_text().strip().splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    state = {}  # (seed, task) -> (A, i)
    for row in rows:
        A, i = state.get((row["seed"], row["task"]), (proxy_cfg["A"], 1))
        proxy = A / (1.0 + math.exp(-proxy_cfg["k"] * (i - proxy_cfg["i0"])))
        feedback = proxy - float(row["sq_grad_norm"])
        assert float(row["proxy_value"]) == proxy
        assert (row["used_cflat"] == "true") == (feedback <= 0)
        state[(row["seed"], row["task"])] = (A - proxy_cfg["eta0"] * feedback, i + 1)
    projected = [r for r in rows if r["gpm_in_span"]]
    fired = [r for r in projected if r["used_cflat"] == "true"]
    assert 0 < len(fired) < len(projected)
    assert all(r["grad_evals"] == "6" for r in fired)  # the C-Flat step plus g_c


@pytest.mark.parametrize("reset, task1_proxy", [(True, 1.5608433470857979),
                                                (False, 2.051017390284791)])
def test_icarl_cflatpp_gate_carries_over_tasks_only_when_not_reset(tmp_path, reset,
                                                                   task1_proxy):
    demo = json.loads((Path(__file__).resolve().parent.parent / "configs" / "demo.json")
                      .read_text(encoding="utf-8"))
    demo.update(method="icarl", optimizer="cflat++", seeds=[0], out_dir=str(tmp_path / "run"),
                proxy={"reset_per_task": reset})
    assert main(["run", "--config", write_config(tmp_path, demo)]) == 0
    proxy_cfg = json.loads((tmp_path / "run" / "manifest.json").read_text())["config"]["proxy"]
    lines = (tmp_path / "run" / "trace.csv").read_text().strip().splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    first = next(row for row in rows if row["task"] == "1")
    assert float(first["proxy_value"]) == task1_proxy
    # the gate's bound and counter restart at each task, or run on through them
    A, i, task = proxy_cfg["A"], 1, "0"
    for row in rows:
        if reset and row["task"] != task:
            A, i, task = proxy_cfg["A"], 1, row["task"]
        proxy = A / (1.0 + math.exp(-proxy_cfg["k"] * (i - proxy_cfg["i0"])))
        assert float(row["proxy_value"]) == proxy
        A, i = A - proxy_cfg["eta0"] * (proxy - float(row["sq_grad_norm"])), i + 1


def test_sweep_lambda_zero_cell_matches_sam_run_byte_identically(tmp_path):
    sweep_out = tmp_path / "sweep"
    cfg = write_config(tmp_path, base_config(sweep_out), "sweep.json")
    rc = main(["sweep", "--config", cfg, "--axis", "optim.lam=0.0,0.1,0.2,0.5"])
    assert rc == 0
    assert (sweep_out / "sweep.csv").exists()
    cells = sorted(p for p in sweep_out.iterdir() if p.is_dir())
    assert len(cells) == 4

    sam_out = tmp_path / "sam"
    sam_cfg = base_config(sam_out, optimizer="sam")
    sam_path = write_config(tmp_path, sam_cfg, "sam.json")
    assert main(["run", "--config", sam_path]) == 0

    lam0_metrics = (sweep_out / "cell_optim_lam=0.0" / "metrics.csv").read_bytes()
    assert lam0_metrics == (sam_out / "metrics.csv").read_bytes()


def test_sweep_hybrid_grid_structure(tmp_path):
    # the full share-times-ordering grid: 5 x 2 = 10 cells
    sweep_out = tmp_path / "hsweep"
    doc = base_config(sweep_out, optimizer="hybrid")
    doc["train"] = {"epochs": 1, "batch_size": 16}
    cfg = write_config(tmp_path, doc, "h.json")
    rc = main([
        "sweep", "--config", cfg,
        "--axis", "hybrid.p=0.0,0.25,0.5,0.75,1.0",
        "--axis", "hybrid.ordering=cflat_first,cflat_last",
    ])
    assert rc == 0
    cells = [p for p in sweep_out.iterdir() if p.is_dir()]
    assert len(cells) == 10
    lines = (sweep_out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 11  # header + cells


def test_parallel_sweep_matches_sequential(tmp_path, monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    from cflat import cli

    start_methods = []

    class RecordedPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, mp_context=None):
            start_methods.append(mp_context.get_start_method() if mp_context else None)
            super().__init__(max_workers=max_workers, mp_context=mp_context)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordedPool)
    seq_out = tmp_path / "seq"
    par_out = tmp_path / "par"
    doc = base_config(seq_out)
    doc["train"] = {"epochs": 1, "batch_size": 16}
    cfg = write_config(tmp_path, doc, "p.json")
    assert main(["sweep", "--config", cfg, "--axis", "optim.rho=0.1,0.2"]) == 0
    assert main(["sweep", "--config", cfg, "--axis", "optim.rho=0.1,0.2",
                 "--out", str(par_out), "--jobs", "2"]) == 0
    for cell in ("cell_optim_rho=0.1", "cell_optim_rho=0.2"):
        a = (seq_out / cell / "metrics.csv").read_bytes()
        b = (par_out / cell / "metrics.csv").read_bytes()
        assert a == b
    assert (seq_out / "sweep.csv").read_bytes() == (par_out / "sweep.csv").read_bytes()
    # a single cell runs in this process whatever --jobs asks for
    assert main(["sweep", "--config", cfg, "--axis", "optim.rho=0.1",
                 "--out", str(tmp_path / "one"), "--jobs", "2"]) == 0
    assert start_methods == ["spawn"]


def test_report_reads_no_timing_and_is_identical_across_jobs(tmp_path):
    doc = base_config(tmp_path / "unused", seeds=[0, 1])
    doc["train"] = {"epochs": 1, "batch_size": 16}
    cfg = write_config(tmp_path, doc)
    outs = [tmp_path / f"jobs{jobs}" for jobs in (1, 2)]
    for jobs, out in enumerate(outs, 1):
        assert main(["sweep", "--config", cfg, "--axis", "optimizer=sgd,cflat++",
                     "--out", str(out), "--jobs", str(jobs)]) == 0
        assert main(["report", "--results", str(out)]) == 0
    reports = [(out / "report.md").read_bytes() for out in outs]
    assert reports[0] == reports[1]
    # the manifest keeps measured seconds only; a rate is examples / seconds
    for out in outs:
        manifest = json.loads((out / "cell_optimizer=sgd" / "manifest.json").read_text())
        assert list(manifest["timing"]) == ["per_seed_train_seconds"]
    lines = reports[0].decode("utf-8").splitlines()
    assert lines[5] == ("| method | optimizer | avg acc | last acc | proportion | rel. return "
                        "| run |")
    assert [ln.split(" | ")[:2] for ln in lines[7:]] == [["| replay", "cflat++"],
                                                         ["| replay", "sgd"]]


def test_landscape_on_quadratic_checkpoint(tmp_path):
    ckpt = tmp_path / "quad.json"
    H = [[3.0, 0.0], [0.0, 1.0]]
    ckpt.write_text(json.dumps({
        "kind": "quadratic", "H": H, "c": [0.0, 0.0], "theta": [0.0, 0.0],
    }), encoding="utf-8")
    out = tmp_path / "land"
    rc = main(["landscape", "--checkpoint", str(ckpt), "--out", str(out),
               "--rho", "0.1", "--samples", "2000", "--probes", "200"])
    assert rc == 0
    report = json.loads((out / "flatness.json").read_text())
    assert abs(report["lambda_max"] - 3.0) <= 1e-12
    assert report["lanczos_products"] == 2
    assert report["lanczos_residual"] <= report["lanczos_tol"] == 1e-10
    assert report["r0_le_r1"] is True
    slice_lines = (out / "slice.csv").read_text().strip().splitlines()
    assert slice_lines[0] == "dir1_offset,dir2_offset,loss"
    assert len(slice_lines) == 1 + 21 * 21

    out2 = tmp_path / "land2"
    rc = main(["landscape", "--checkpoint", str(ckpt), "--out", str(out2),
               "--rho", "0.1", "--samples", "2000", "--probes", "200"])
    assert rc == 0
    assert (out / "flatness.json").read_bytes() == (out2 / "flatness.json").read_bytes()
    assert (out / "slice.csv").read_bytes() == (out2 / "slice.csv").read_bytes()


def test_landscape_on_mlp_checkpoint_from_run(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, base_config(out))
    assert main(["run", "--config", cfg]) == 0
    land = tmp_path / "mlp_land"
    rc = main(["landscape", "--checkpoint", str(out / "checkpoint_seed0.json"),
               "--out", str(land), "--samples", "500", "--probes", "50",
               "--iters", "50", "--grid", "5"])
    assert rc == 0
    report = json.loads((land / "flatness.json").read_text())
    assert np.isfinite(report["lambda_max"])
    assert np.isfinite(report["trace"])


def test_landscape_missing_checkpoint(tmp_path, capsys):
    rc = main(["landscape", "--checkpoint", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.fixture(scope="module")
def mlp_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ckpt")
    assert main(["run", "--config", write_config(tmp, base_config(tmp / "run"))]) == 0
    return json.loads((tmp / "run" / "checkpoint_seed0.json").read_text())


@pytest.mark.parametrize("iters", [1, 5])
def test_landscape_iters_bounds_the_eigen_solve_products(tmp_path, monkeypatch, mlp_checkpoint,
                                                         iters):
    from cflat.objective import MlpOracle

    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(mlp_checkpoint), encoding="utf-8")
    hvp = MlpOracle.hvp
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return hvp(self, *args, **kwargs)

    monkeypatch.setattr(MlpOracle, "hvp", counted)
    out = tmp_path / "land"
    assert main(["landscape", "--checkpoint", str(ckpt), "--out", str(out), "--samples", "4",
                 "--probes", "3", "--iters", str(iters), "--grid", "3"]) == 0
    report = json.loads((out / "flatness.json").read_text())
    # the exact trace reads the gradient pass: every product is the eigen-solve's
    assert report["lanczos_products"] == iters == len(calls)
    # not converged at the cap, and still a finite certificate
    assert math.isfinite(report["lanczos_residual"]) and report["lanczos_residual"] > 1e-10
    assert "power_iters" not in report
    assert len((out / "slice.csv").read_text().splitlines()) == 1 + 9


def test_landscape_probes_flag_is_checked_but_changes_no_byte(tmp_path, mlp_checkpoint):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(mlp_checkpoint), encoding="utf-8")
    outs = {}
    for probes in ("10", "200"):
        outs[probes] = tmp_path / f"land{probes}"
        assert main(["landscape", "--checkpoint", str(ckpt), "--out", str(outs[probes]),
                     "--samples", "4", "--probes", probes, "--iters", "5", "--grid", "3"]) == 0
    for name in ("flatness.json", "slice.csv"):
        assert (outs["10"] / name).read_bytes() == (outs["200"] / name).read_bytes()
    report = json.loads((outs["10"] / "flatness.json").read_text())
    assert "trace_probes" not in report and math.isfinite(report["trace"])


def test_landscape_fails_on_a_non_finite_ball_value(tmp_path, capsys, mlp_checkpoint):
    # at this radius the ball points overflow, so their loss and gradient are NaN
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(mlp_checkpoint), encoding="utf-8")
    out = tmp_path / "land"
    assert main(["landscape", "--checkpoint", str(ckpt), "--out", str(out), "--rho", "1e308",
                 "--samples", "4", "--probes", "3", "--iters", "5", "--grid", "3"]) == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "divergence"
    assert "at ball sample 0" in error["message"]
    assert not (out / "flatness.json").exists()


def test_landscape_ball_workers_keep_the_quiet_float_state(tmp_path, capsys, monkeypatch,
                                                           mlp_checkpoint):
    from cflat import landscape

    # 100 samples are one block of two units: on two CPUs the second, whose
    # points overflow too, runs on a pool thread, which starts with numpy's
    # default error state unless it takes the caller's
    monkeypatch.setattr(landscape, "_cpus", lambda: 2)
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(mlp_checkpoint), encoding="utf-8")
    out = tmp_path / "land"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["landscape", "--checkpoint", str(ckpt), "--out", str(out), "--rho", "1e308",
                     "--samples", "100", "--probes", "3", "--iters", "5", "--grid", "3"]) == 3
    assert [str(w.message) for w in caught] == []
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "divergence"
    assert "at ball sample 0" in error["message"]
    assert not (out / "flatness.json").exists()


def test_landscape_writes_the_checkpoint_path_relative_to_out(tmp_path, mlp_checkpoint):
    outs = []
    for copy in ("a", "b"):
        ckpt = tmp_path / copy / "run" / "checkpoint_seed0.json"
        ckpt.parent.mkdir(parents=True)
        ckpt.write_text(json.dumps(mlp_checkpoint), encoding="utf-8")
        outs.append(tmp_path / copy / "land")
        assert main(["landscape", "--checkpoint", str(ckpt), "--out", str(outs[-1]),
                     "--samples", "4", "--probes", "3", "--iters", "5", "--grid", "3"]) == 0
    a, b = ((out / "flatness.json").read_bytes() for out in outs)
    assert a == b
    assert json.loads(a)["checkpoint"] == str(Path("..", "run", "checkpoint_seed0.json"))


def _drop(key):
    def corrupt(doc):
        del doc[key]
    return corrupt


def _set(key, value):
    def corrupt(doc):
        doc[key] = value(doc[key])
    return corrupt


@pytest.mark.parametrize("field, corrupt", [
    ("manifest", _drop("manifest")),
    ("theta", _drop("theta")),
    ("eval_y", _drop("eval_y")),
    ("model", _set("model", lambda m: {**m, "activation": "gelu"})),
    ("model", _set("model", lambda m: {k: v for k, v in m.items() if k != "d_in"})),
    ("manifest", _set("model", lambda m: {**m, "hidden": [9]})),
    ("manifest", _set("manifest", lambda m: [[n, o + 1, s] for n, o, s in m])),
    ("theta", _set("theta", lambda t: t[:-1])),
    ("theta", _set("theta", lambda t: [float("nan")] + t[1:])),
    ("eval_x", _set("eval_x", lambda x: [row[:-1] for row in x])),
    ("eval_x", _set("eval_x", lambda x: [[float("inf")] + x[0][1:]] + x[1:])),
    ("eval_y", _set("eval_y", lambda y: y[:-1])),
    ("eval_y", _set("eval_y", lambda y: [4] + y[1:])),
    ("eval_y", _set("eval_y", lambda y: [-1] + y[1:])),
    ("eval_y", _set("eval_y", lambda y: [0.5] + y[1:])),
    ("kind", _set("kind", lambda k: "conv")),
], ids=["no_manifest", "no_theta", "no_eval_y", "bad_activation", "no_d_in",
        "manifest_of_other_model", "shifted_manifest", "short_theta", "nan_theta",
        "narrow_eval_x", "inf_eval_x", "short_eval_y", "label_past_head",
        "negative_label", "fractional_label", "unknown_kind"])
def test_landscape_rejects_a_corrupted_checkpoint_field(tmp_path, capsys, mlp_checkpoint,
                                                        field, corrupt):
    doc = json.loads(json.dumps(mlp_checkpoint))
    corrupt(doc)
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["landscape", "--checkpoint", str(ckpt), "--out", str(tmp_path / "o"),
               "--samples", "4", "--probes", "2", "--iters", "2", "--grid", "2"])
    assert rc == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and error["field"] == field


@pytest.mark.parametrize("field, corrupt", [
    ("H", _drop("H")),
    ("theta", _set("theta", lambda t: t + [1.0])),
    ("H", _set("H", lambda H: [row + [0.0] for row in H])),
    ("H", _set("H", lambda H: [[1.0, 0.5], [0.0, 2.0]])),
    ("c", _set("c", lambda c: c + [0.0])),
    ("H", _set("H", lambda H: [[1.0, "a"], [0.0, 2.0]])),
    ("H", _set("H", lambda H: [[float("nan"), 0.0], [0.0, 2.0]])),
], ids=["no_H", "long_theta", "non_square_H", "asymmetric_H", "long_c",
        "non_numeric_H", "nan_H"])
def test_landscape_rejects_a_corrupted_quadratic_checkpoint(tmp_path, capsys, field, corrupt):
    doc = {"kind": "quadratic", "H": [[1.0, 0.0], [0.0, 2.0]], "c": [0.0, 0.0],
           "theta": [0.0, 0.0]}
    corrupt(doc)
    ckpt = tmp_path / "quad.json"
    ckpt.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["landscape", "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and error["field"] == field


def test_report_single_manifest_and_sgd_reference(tmp_path):
    results = tmp_path / "results"
    for optimizer in ("sgd", "cflat"):
        doc = base_config(results / optimizer, optimizer=optimizer)
        doc["seeds"] = [0, 1, 2]
        cfg = write_config(tmp_path, doc, f"{optimizer}.json")
        assert main(["run", "--config", cfg]) == 0

    assert main(["report", "--results", str(results)]) == 0
    report = (results / "report.md").read_text()
    lines = [ln for ln in report.splitlines() if ln.startswith("| replay")]
    assert len(lines) == 2
    sgd_line = next(ln for ln in lines if "| sgd |" in ln)
    assert "+0.00%" in sgd_line

    # std over 3 seeds matches a hand calculation from the manifest
    manifest = json.loads((results / "sgd" / "manifest.json").read_text())
    avgs = [s["metrics"]["avg_accuracy"] for s in manifest["per_seed"]]
    mean = sum(avgs) / 3
    hand_std = (sum((a - mean) ** 2 for a in avgs) / 3) ** 0.5
    assert manifest["aggregate"]["avg_accuracy_std"] == pytest.approx(hand_std, rel=1e-12)


def test_report_rows_of_a_hyperparameter_sweep_take_rel_return_from_their_own_sgd_cell(tmp_path):
    cfg = write_config(tmp_path, base_config(tmp_path / "unused", seeds=[0, 1]))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--axis", "optim.rho=0.1,0.2", "--axis", "optimizer=sgd,cflat"]) == 0
    assert main(["report", "--results", str(out)]) == 0
    lines = (out / "report.md").read_text(encoding="utf-8").splitlines()
    rows = [[cell.strip() for cell in ln.split("|")[1:-1]] for ln in lines[7:]]
    assert len(rows) == 4
    by_run = {row[-1]: row for row in rows}
    for rho in ("0.1", "0.2"):
        sgd = json.loads((out / f"cell_optim_rho={rho}__optimizer=sgd" / "manifest.json")
                         .read_text())["aggregate"]["avg_accuracy_mean"]
        run = f"cell_optim_rho={rho}__optimizer=cflat"
        acc = json.loads((out / run / "manifest.json").read_text()
                         )["aggregate"]["avg_accuracy_mean"]
        assert by_run[run][:2] == ["replay", "cflat"]
        assert by_run[run][5] == f"{(acc - sgd) / sgd * 100:+.2f}%"
        assert by_run[f"cell_optim_rho={rho}__optimizer=sgd"][5] == "+0.00%"


def test_report_rejects_empty_dir(tmp_path, capsys):
    assert main(["report", "--results", str(tmp_path)]) == 2


def test_report_rejects_mixed_schema(tmp_path, capsys):
    results = tmp_path / "results"
    out = results / "a"
    cfg = write_config(tmp_path, base_config(out))
    assert main(["run", "--config", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["schema_version"] = 99
    manifest["config"]["optimizer"] = "sgd"
    other = results / "b"
    other.mkdir(parents=True)
    (other / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["report", "--results", str(results)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "schema" in err["error"]["message"]


@pytest.mark.parametrize("flag, value", [
    ("--samples", "0"), ("--samples", "-3"), ("--probes", "0"), ("--iters", "0"),
    ("--grid", "0"), ("--rho", "0"), ("--rho", "-1"), ("--rho", "inf"), ("--rho", "nan"),
    ("--extent", "0"), ("--extent", "-1"), ("--extent", "inf"), ("--extent", "nan"),
])
def test_landscape_rejects_a_bad_flag_before_any_work(tmp_path, capsys, flag, value):
    ckpt = tmp_path / "quad.json"
    ckpt.write_text(json.dumps({"kind": "quadratic", "H": [[1.0, 0.0], [0.0, 2.0]],
                                "theta": [0.0, 0.0]}), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["landscape", "--checkpoint", str(ckpt), "--out", str(out), flag, value]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and error["field"] == flag
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flag, value", [
    ("--seeds", "0,x"), ("--seeds", "0,,1"), ("--seeds", "0,0"), ("--seeds", "1,2,1"),
    ("--jobs", "0"), ("--jobs", "-1"),
])
def test_run_and_sweep_reject_a_bad_seeds_or_jobs_flag(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, base_config(out)), flag, value]
    if command == "sweep":
        argv += ["--axis", "optim.eta=0.1,0.2"]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and error["field"] == flag
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("gpm.energy_threshold", 1.5),
    ("gpm.sample", 0),
    ("gpm.eta2", -0.5),
    ("icarl.temperature", 0.0),
    ("optim.lr_decay", -1.0),
    ("train.epochs", 0),
    ("train.batch_size", 0),
    ("optim.eta", -1.0),
    ("hybrid.p", 1.5),
    ("memory.capacity_per_class", -1),
    ("model.hidden", [0]),
    ("increment", 0),
    ("dataset.classes", 1),
    ("optim", {"rho": 0.1, "rho_min": 0.15}),
    ("seeds", [3, 0, 3]),
    ("dataset.per_class", 2),
])
def test_config_value_the_library_rejects_fails_at_load(tmp_path, capsys, field, value):
    out = tmp_path / "run"
    doc = base_config(out)
    *sections, key = field.split(".")
    node = doc
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and error["field"] == field
    assert not out.exists()


@pytest.mark.parametrize("protocol, increment", [("B0", 3), ("B50", 3)])
def test_unsplittable_synthetic_classes_fail_at_load(tmp_path, capsys, monkeypatch,
                                                     protocol, increment):
    from cflat import cli

    def no_dataset(spec):
        raise AssertionError("the dataset was generated")

    monkeypatch.setattr(cli, "synth_dataset", no_dataset)
    out = tmp_path / "run"
    doc = base_config(out, protocol=protocol, increment=increment)  # 4 classes
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and error["field"] == "increment"
    assert "cannot divide" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("case", ["B0", "B50", "csv", "sweep"])
def test_a_first_task_of_one_class_fails_at_load_naming_increment(tmp_path, capsys, case):
    out = tmp_path / "out"
    doc = base_config(out, increment=1)  # B0: four tasks of one class
    argv = ["run"]
    if case == "B50":
        doc["protocol"] = "B50"
        doc["dataset"]["classes"] = 2  # a first half of one class
    if case == "csv":
        data = tmp_path / "data.csv"
        data.write_text("".join(f"{c},{i}.0,1.0\n" for c in range(3) for i in range(5)),
                        encoding="utf-8")
        doc["dataset"] = {"kind": "csv", "path": str(data)}
    if case == "sweep":
        doc["increment"] = 2
        argv = ["sweep", "--axis", "increment=2,1"]  # the first cell would run
    assert main(argv + ["--config", write_config(tmp_path, doc)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and error["field"] == "increment"
    assert "a first task of 1 class(es)" in error["message"]
    assert not out.exists()


def test_unsplittable_csv_classes_fail_before_any_output(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = [f"{c}," + ",".join(f"{v:.6f}" for v in rng.normal(size=3))
            for c in range(3) for _ in range(10)]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "run"
    doc = base_config(out, increment=2)  # 3 classes
    doc["dataset"] = {"kind": "csv", "path": str(data)}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and error["field"] == "increment"
    assert "cannot divide 3 classes" in error["message"]
    assert not out.exists()


def test_sweep_checks_every_csv_cell_split_before_running_any(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = [f"{c}," + ",".join(f"{v:.6f}" for v in rng.normal(size=3))
            for c in range(4) for _ in range(10)]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "sweep"
    doc = base_config(out)
    doc["dataset"] = {"kind": "csv", "path": str(data)}
    # 4 classes split into tasks of 2 but not of 3
    assert main(["sweep", "--config", write_config(tmp_path, doc),
                 "--axis", "increment=2,3"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and error["field"] == "increment"
    assert "cannot divide 4 classes" in error["message"]
    assert not out.exists()


# csv datasets that cannot be loaded or split: name -> file text (None: no file)
_BAD_CSVS = {
    "missing": None,
    "bad_cell": "0,1.0,2.0\n1,1.0,x\n",
    "gap": "".join(f"{c},{i}.0,1.0\n" for c in (0, 1, 3) for i in range(5)),  # no label 2
    "label_only": "0\n1\n0\n1\n",
}


@pytest.mark.parametrize("name", sorted(_BAD_CSVS))
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_unloadable_csv_fails_naming_the_file_before_any_output(tmp_path, capsys,
                                                                   command, name):
    data = tmp_path / f"{name}.csv"
    if _BAD_CSVS[name] is not None:
        data.write_text(_BAD_CSVS[name], encoding="utf-8")
    out = tmp_path / "out"
    doc = base_config(out)
    doc["dataset"] = {"kind": "csv", "path": str(data)}
    argv = [command, "--config", write_config(tmp_path, doc)]
    if command == "sweep":
        argv += ["--axis", "increment=1,2"]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and error["field"] == "dataset.path"
    assert str(data) in error["message"]
    if name == "gap":
        assert "missing [2]" in error["message"]
    if name == "label_only":
        assert "data row 1" in error["message"]
    assert not out.exists()


def test_a_csv_sweep_reads_its_dataset_once_and_its_cells_share_a_stream(tmp_path, monkeypatch):
    from cflat import cli

    load = cli.load_csv_dataset
    reads = []

    def counted_load(path):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(cli, "load_csv_dataset", counted_load)
    rng = np.random.default_rng(0)
    rows = [f"{c}," + ",".join(f"{v:.6f}" for v in rng.normal(size=3))
            for c in range(4) for _ in range(10)]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "sweep"
    doc = base_config(out)
    doc["dataset"] = {"kind": "csv", "path": str(data)}
    doc["train"] = {"epochs": 1, "batch_size": 16}
    assert main(["sweep", "--config", write_config(tmp_path, doc),
                 "--axis", "optim.rho=0.1,0.2,0.3"]) == 0
    assert reads == [str(data)]
    # the last cell trained on the stream the other two trained on first, and
    # writes the bytes of a run of its own
    run = tmp_path / "run"
    doc.update(optim={"eta": 0.3, "rho": 0.3}, out_dir=str(run))
    assert main(["run", "--config", write_config(tmp_path, doc, "run.json")]) == 0
    for name in ("metrics.csv", "trace.csv", "checkpoint_seed0.json"):
        cell = out / "cell_optim_rho=0.3" / name
        assert cell.read_bytes() == (run / name).read_bytes(), name


@pytest.mark.parametrize("command", ["run", "run_flags", "sweep"])
def test_a_config_whose_root_is_not_an_object_names_the_file(tmp_path, capsys, monkeypatch,
                                                            command):
    monkeypatch.chdir(tmp_path)  # a run would write to the default out_dir under it
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]\n", encoding="utf-8")
    argv = {
        "run": ["run", "--config", str(bad)],
        "run_flags": ["run", "--config", str(bad), "--seeds", "0", "--out", "o"],
        "sweep": ["sweep", "--config", str(bad), "--axis", "optim.eta=0.1"],
    }[command]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config"
    assert error["message"] == f"{bad}: config root must be a JSON object"
    assert [p.name for p in tmp_path.iterdir()] == ["list.json"]


def test_csv_test_fraction_outside_the_open_unit_interval_fails_at_load(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("".join(f"{c},{i}.0\n" for c in range(4) for i in range(5)),
                    encoding="utf-8")
    for fraction in (0.0, 1.0):
        out = tmp_path / "run"
        doc = base_config(out)
        doc["dataset"] = {"kind": "csv", "path": str(data), "test_fraction": fraction}
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "config" and error["field"] == "dataset.test_fraction"
        assert not out.exists()


@pytest.mark.parametrize("field, literal", [
    ("optim.eta", "Infinity"),
    ("optim.rho", "1e999"),
    ("optim.rho_min", "-Infinity"),
    ("dataset.cluster_std", "NaN"),
    pytest.param("optim.eta_min", "1" + "0" * 400, id="optim.eta_min-huge_integer"),
])
def test_a_non_finite_config_number_fails_at_load(tmp_path, capsys, field, literal):
    out = tmp_path / "run"
    doc = base_config(out)
    section, key = field.split(".")
    doc[section][key] = "LITERAL"
    text = json.dumps(doc).replace('"LITERAL"', literal)
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and error["field"] == field
    assert "must be finite" in error["message"]
    assert not out.exists()


def test_divergence_payload_names_the_first_seed_to_diverge(tmp_path, capsys, monkeypatch):
    from cflat import continual

    train_epochs = continual.train_epochs

    def poisoned(oracle, theta, x, y, *args):
        data = theta.data.copy()
        data[-1] = np.nan  # the group's last seed
        return train_epochs(oracle, theta._adopt(data), x, y, *args)

    monkeypatch.setattr(continual, "train_epochs", poisoned)
    cfg = write_config(tmp_path, base_config(tmp_path / "x", seeds=[3, 8]))
    assert main(["run", "--config", cfg]) == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "divergence"
    assert (error["seed"], error["task"], error["step"]) == (8, 0, 0)
    assert error["last_loss"] is None


@pytest.mark.parametrize("seeds, jobs, groups", [
    ([0, 1, 2, 3, 4], 1, [[0, 1, 2, 3, 4]]),
    ([0, 1, 2, 3, 4], 2, [[0, 1], [2, 3, 4]]),
    ([5, 6, 7], 3, [[5], [6], [7]]),
    ([5, 6], 8, [[5], [6]]),
    ([-1, 2**64 - 1, 5], 2, [[-1], [2**64 - 1, 5]]),  # seeds stay exact ints
])
def test_jobs_split_the_seeds_into_contiguous_groups(seeds, jobs, groups):
    from cflat.cli import _seed_groups

    assert _seed_groups(seeds, jobs) == groups


def test_sweep_rejects_a_bad_cell_before_running_any(tmp_path, capsys):
    out = tmp_path / "sweep"
    cfg = write_config(tmp_path, base_config(out))
    assert main(["sweep", "--config", cfg, "--axis", "gpm.sample=16,0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["field"] == "gpm.sample"
    assert not out.exists()


def test_sweep_rejects_an_out_dir_that_is_not_a_string(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = base_config(tmp_path)
    doc["out_dir"] = 5
    assert main(["sweep", "--config", write_config(tmp_path, doc),
                 "--axis", "optim.eta=0.1"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and error["field"] == "out_dir"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("axes", [
    ["optim.lam=0.1,0.1"],                # one value twice
    ["optim.lam=0.1,0.10"],               # two spellings of one value
    ["dataset.path=a/b,a_b"],             # two values with one directory slug
    ["optim.lam=0.1", "optim.lam=0.2"],   # one key in two flags
    ["optim.lam"],                        # no values
    ["method.kind=1"],                    # a key below a leaf
])
def test_sweep_rejects_a_bad_axis_before_running_any(tmp_path, capsys, axes):
    out = tmp_path / "sweep"
    args = ["sweep", "--config", write_config(tmp_path, base_config(out))]
    for axis in axes:
        args += ["--axis", axis]
    assert main(args) == 2
    assert json.loads(capsys.readouterr().err)["error"]["field"] == "--axis"
    assert not out.exists()


def _report_manifest():
    return {
        "schema_version": 1,
        "config": {"method": "replay", "optimizer": "sgd"},
        "aggregate": {"avg_accuracy_mean": 0.5, "avg_accuracy_std": 0.0,
                      "last_accuracy_mean": 0.5, "last_accuracy_std": 0.0,
                      "cflat_proportion_mean": 0.0},
    }


@pytest.mark.parametrize("command", ["run", "sweep", "landscape", "report"])
def test_malformed_json_names_the_file_line_and_column(tmp_path, capsys, command):
    bad = tmp_path / "cell" / "manifest.json"
    bad.parent.mkdir()
    bad.write_text('{\n  "seeds": [0,\n}\n', encoding="utf-8")
    argv = {
        "run": ["run", "--config", str(bad)],
        "sweep": ["sweep", "--config", str(bad), "--axis", "optim.lam=0.1"],
        "landscape": ["landscape", "--checkpoint", str(bad), "--out", str(tmp_path / "land")],
        "report": ["report", "--results", str(tmp_path)],
    }[command]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config"
    assert error["message"].startswith(f"{bad}: malformed JSON at line 3 column 1")


@pytest.mark.parametrize("command", ["run", "landscape", "report"])
def test_non_utf8_json_names_the_file(tmp_path, capsys, command):
    bad = tmp_path / "cell" / "manifest.json"
    bad.parent.mkdir()
    bad.write_bytes(b'\xff{"seeds": [0]}\n')
    argv = {
        "run": ["run", "--config", str(bad)],
        "landscape": ["landscape", "--checkpoint", str(bad), "--out", str(tmp_path / "land")],
        "report": ["report", "--results", str(tmp_path)],
    }[command]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config"
    assert error["message"].startswith(f"{bad}: 'utf-8' codec can't decode byte 0xff in position 0")


@pytest.mark.parametrize("command, path", [
    ("run", "missing"), ("run", "directory"), ("sweep", "missing"), ("sweep", "directory"),
    ("landscape", "missing"), ("landscape", "directory"), ("report", "directory"),
])
def test_an_unreadable_input_path_names_it(tmp_path, capsys, command, path):
    bad = tmp_path / "cell" / "manifest.json"
    if path == "directory":
        bad.mkdir(parents=True)
    argv = {
        "run": ["run", "--config", str(bad)],
        "sweep": ["sweep", "--config", str(bad), "--axis", "optim.lam=0.1"],
        "landscape": ["landscape", "--checkpoint", str(bad), "--out", str(tmp_path / "land")],
        "report": ["report", "--results", str(tmp_path)],
    }[command]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config"
    assert error["message"].startswith(f"{bad}: ")
    assert not (tmp_path / "land").exists()


@pytest.mark.parametrize("section, key", [
    ("config", None), ("config", "optimizer"), ("aggregate", "avg_accuracy_std"),
])
def test_report_names_a_malformed_manifest(tmp_path, capsys, section, key):
    results = tmp_path / "results"
    (results / "ok").mkdir(parents=True)
    (results / "ok" / "manifest.json").write_text(json.dumps(_report_manifest()))
    assert main(["report", "--results", str(results)]) == 0

    manifest = _report_manifest()
    if key is None:
        del manifest[section]
    else:
        del manifest[section][key]
    path = results / "ok" / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["report", "--results", str(results), "--out", str(tmp_path / "r.md")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config"
    assert error["field"] == f"{section}.{key or 'method'}"
    assert str(path) in error["message"]
    assert not (tmp_path / "r.md").exists()


# ---------------------------------------------------------------------------
# sweep cells that differ only in gate keys train as one lockstep group
# ---------------------------------------------------------------------------


def _gated_doc(out_dir, **overrides):
    """Two seeds at a tiny shape whose C-Flat++ gates switch on and off, and
    whose GPM significances adapt."""
    doc = base_config(out_dir, seeds=[0, 1], **overrides)
    doc["dataset"]["feature_scale"] = 3.0
    doc["proxy"] = {"A": 1.0, "k": 0.05, "i0": 10}
    doc["gpm"] = {"eta1": 0.3}
    return doc


def _run_files(out_dir):
    """A run directory's deterministic files: metrics, trace and checkpoints."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}


def _group_sizes(monkeypatch) -> list:
    """The rows of every ``run_cl_experiment`` call the CLI makes in this process."""
    from cflat import cli
    from cflat.continual import run_cl_experiment

    sizes = []

    def recorded(stream, method, cfg, cl, rows):
        sizes.append(len(rows))
        return run_cl_experiment(stream, method, cfg, cl, rows)

    monkeypatch.setattr(cli, "run_cl_experiment", recorded)
    return sizes


def _assert_cells_equal_runs_alone(sweep_out, alone_out) -> list:
    cells = sorted(p for p in sweep_out.iterdir() if p.is_dir())
    for cell in cells:
        alone = alone_out / cell.name
        assert main(["run", "--config", str(cell / "manifest.json"), "--out", str(alone)]) == 0
        files = _run_files(alone)
        assert len(files) == 4, files.keys()  # metrics, trace and two checkpoints
        assert _run_files(cell) == files, cell.name
    return cells


def test_a_grouped_sweep_writes_each_cells_bytes_of_a_run_alone(tmp_path, monkeypatch):
    # one group per method: distillation or a GPM basis with adapted
    # significances, SAM's ascent rows, and C-Flat++ rows whose gates differ
    # at one step, all stepping with the other optimizers' rows
    cfg = write_config(tmp_path, _gated_doc(tmp_path / "unused"))
    axes = ["--axis", "method=icarl,gpm", "--axis", "optimizer=sgd,sam,cflat,cflat++,hybrid"]
    sizes = _group_sizes(monkeypatch)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "jobs1"), *axes]) == 0
    assert sizes == [10, 10]
    # three jobs for two groups: one runs whole, the other in two parts
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "jobs3"), "--jobs", "3",
                 *axes]) == 0
    cells = _assert_cells_equal_runs_alone(tmp_path / "jobs1", tmp_path / "alone")
    assert len(cells) == 10
    for cell in cells:
        assert _run_files(tmp_path / "jobs3" / cell.name) == _run_files(cell), cell.name
    assert ((tmp_path / "jobs1" / "sweep.csv").read_bytes()
            == (tmp_path / "jobs3" / "sweep.csv").read_bytes())
    for method in ("icarl", "gpm"):
        lines = (tmp_path / "jobs1" / f"cell_method={method}__optimizer=cflat++" / "trace.csv"
                 ).read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        gates = {seed: [r["used_cflat"] for r in rows if r["seed"] == seed] for seed in "01"}
        assert gates["0"] != gates["1"] and set(gates["0"]) == {"true", "false"}


@pytest.mark.parametrize("optimizer, axis, sizes", [
    ("hybrid", "hybrid.p=0.25,0.75", [4]),
    ("cflat++", "proxy.A=1.0,2.0", [4]),
    ("cflat++", "optim.rho=0.1,0.2", [2, 2]),
    ("cflat++", "method=icarl,gpm", [2, 2]),
])
def test_only_cells_that_differ_in_gate_keys_share_a_group(tmp_path, monkeypatch, optimizer,
                                                            axis, sizes):
    cfg = write_config(tmp_path, _gated_doc(tmp_path / "unused", optimizer=optimizer))
    recorded = _group_sizes(monkeypatch)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep"), "--axis", axis]) == 0
    assert recorded == sizes
    assert len(_assert_cells_equal_runs_alone(tmp_path / "sweep", tmp_path / "alone")) == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_diverging_row_aborts_its_group_and_the_payload_names_its_cell(tmp_path, jobs):
    import subprocess
    import sys

    doc = json.loads((Path(__file__).resolve().parent.parent / "configs" / "demo.json")
                     .read_text(encoding="utf-8"))
    doc["dataset"]["feature_scale"] = 1e155  # every row's first forward pass overflows
    doc["model"] = {"hidden": [32], "activation": "relu"}
    doc["seeds"] = [0]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep"
    for command, extra in (("sweep", ["--axis", "optimizer=sgd,cflat"]), ("run", [])):
        proc = subprocess.run(
            [sys.executable, "-m", "cflat.cli", command, "--config", cfg, "--jobs", jobs,
             "--out", str(out if command == "sweep" else tmp_path / "run"), *extra],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        error = json.loads(lines[0])["error"]
        assert error["kind"] == "divergence"
        assert (error["seed"], error["task"], error["step"]) == (0, 0, 0)
        if command == "sweep":
            # the first row of the group to diverge is the sgd cell's
            assert (error["optimizer"], error["cell"]) == ("sgd", "cell_optimizer=sgd")
        else:
            assert error["optimizer"] == "cflat" and "cell" not in error
    assert not out.exists() or not list(out.glob("cell_*"))


def test_checkpoints_are_their_documents_json_encoded_with_sorted_keys(tmp_path):
    # the eval rows are encoded once per stream and spliced into every seed's
    # document; the bytes stay those of json.dumps of the whole document
    from cflat.cli import run_experiment_from_config
    from cflat.continual import run_cl_experiment, seed_rows

    demo = Path(__file__).resolve().parent.parent / "configs" / "demo.json"
    cfg = resolve_config(json.loads(demo.read_text(encoding="utf-8")))
    stream, optim, cl, stepper = inputs = _inputs(cfg)
    run_experiment_from_config(cfg, inputs, tmp_path)
    x = np.concatenate([task.test_x for task in stream.tasks])[:512]
    y = np.concatenate([task.test_y for task in stream.tasks])[:512]
    results = run_cl_experiment(stream, cfg["method"], optim, cl,
                                seed_rows(stepper, cfg["seeds"]))
    for r in results:
        text = (tmp_path / f"checkpoint_seed{r.seed}.json").read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), sort_keys=True) == text
        theta = r.final_theta
        doc = {  # the document as it was built whole
            "kind": "mlp",
            "schema_version": 1,
            "seed": r.seed,
            "model": {"d_in": int(x.shape[1]), "hidden": list(cfg["model"]["hidden"]),
                      "n_classes": int(theta.manifest[-1].shape[0]),
                      "activation": cfg["model"]["activation"], "l2": cfg["model"]["l2"]},
            "manifest": [[seg.name, seg.offset, list(seg.shape)] for seg in theta.manifest],
            "theta": [float(v) for v in theta.data],
            "eval_x": [[float(v) for v in row] for row in x],
            "eval_y": [int(v) for v in y],
        }
        assert text == json.dumps(doc, sort_keys=True)


def test_trace_lines_format_every_cell_as_fmt_does(tmp_path):
    # NaN cells (no proxy on the projection's first task, no gpm_* before a
    # basis), bools, ints and floats, over two seeds' columns
    from cflat.cli import _trace_lines
    from cflat.continual import run_cl_experiment, seed_rows
    from cflat.optim import STEP_FIELDS

    cfg = resolve_config(_gated_doc(tmp_path, method="gpm", optimizer="cflat++"))
    stream, optim, cl, stepper = _inputs(cfg)
    results = run_cl_experiment(stream, "gpm", optim, cl, seed_rows(stepper, [0, 1]))
    expected = [
        ",".join(_fmt(None if isinstance(v, float) and v != v else v) for v in (
            r.seed, cells["task"], cells["epoch"], step,
            *(cells[name] for name in STEP_FIELDS.names[2:])))
        for r in results for step, cells in enumerate(r.trace)
    ]
    assert any(",," in line for line in expected)
    assert _trace_lines(results) == expected
