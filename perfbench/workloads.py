"""The benchmark's workloads: inputs made from a seed, one iteration through
``cflat.cli.main``, and the checks on what the iteration wrote.

Each workload generates its config (or checkpoint) in set-up; the program
only ever sees those files. For the continual-learning workloads seed ``s``
maps to ``dataset.seed = 7 + s`` and to run seeds starting at ``n * s`` for
``n`` seeds, so seed 0 reproduces the shapes and seeds of
``configs/demo.json``. For ``landscape`` it maps to the probe seed only (see
``Landscape``).
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DEMO = {
    "dataset": {"kind": "synthetic", "classes": 10, "dims": 16, "per_class": 80,
                "cluster_std": 1.2, "label_noise": 0.2, "seed": 7},
    "protocol": "B0",
    "increment": 2,
    "perm_seed": 1993,
    "method": "replay",
    "optimizer": "cflat",
    "optim": {"eta": 0.5, "rho": 0.2, "lam": 0.2},
    "model": {"hidden": [32], "activation": "tanh"},
    "train": {"epochs": 15, "batch_size": 32},
    "memory": {"capacity_per_class": 20},
}

# `cflat landscape` probe counts, passed explicitly so the workload stays
# fixed if the command's defaults change. These are today's defaults.
PROBES = {"samples": 2000, "probes": 200, "iters": 200, "grid": 21}

# Tiny shapes for the smoke test: every layer is still entered.
SMOKE_DATASET = {"classes": 4, "dims": 4, "per_class": 20}
SMOKE_PROBES = {"samples": 8, "probes": 3, "iters": 4, "grid": 3}

SWEEP_AXES = (("method", ("icarl", "gpm")), ("optimizer", ("cflat++", "hybrid")))


def _config(seed: int, n_seeds: int, smoke: bool, **overrides) -> dict:
    cfg = json.loads(json.dumps(DEMO))
    cfg["dataset"]["seed"] = 7 + seed
    cfg["seeds"] = [n_seeds * seed + k for k in range(n_seeds)]
    cfg.update(overrides)
    if smoke:
        cfg["dataset"].update(SMOKE_DATASET)
        cfg["train"].update(epochs=1, batch_size=8)
        cfg["seeds"] = cfg["seeds"][:1]
    return cfg


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def planned_steps(cflat, cfg: dict) -> int:
    """Optimizer steps the config implies, from the task sizes alone.

    Replay-family methods train task t on its rows plus the stored exemplars
    (up to capacity per earlier class); each epoch drops the ragged tail.
    """
    continual = cflat.continual
    ds = cfg["dataset"]
    spec = continual.SyntheticSpec(
        classes=ds["classes"], dims=ds["dims"], per_class=ds["per_class"],
        cluster_std=ds["cluster_std"], seed=ds["seed"], label_noise=ds["label_noise"],
    )
    stream = continual.make_stream(continual.synth_dataset(spec), cfg["protocol"],
                                   cfg["increment"], cfg["perm_seed"])
    cap = cfg["memory"]["capacity_per_class"]
    batch = cfg["train"]["batch_size"]
    steps, memory = 0, 0
    for task in stream.tasks:
        steps += cfg["train"]["epochs"] * ((len(task.train_y) + memory) // batch)
        for c in set(task.train_y.tolist()):
            memory += min(cap, int((task.train_y == c).sum()))
    return steps * len(cfg["seeds"])


def _read_trace(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class Check:
    """Named pass/fail results of one iteration, plus the values it produced."""

    def __init__(self):
        self.results: list[tuple[str, bool]] = []
        self.values: dict = {}

    def add(self, name: str, ok: bool) -> None:
        self.results.append((name, bool(ok)))


class ClWorkload:
    """Shared shape of the two continual-learning workloads."""

    cells = 1

    def __init__(self, seed: int, smoke: bool, work: Path):
        self.seed = seed
        self.smoke = smoke
        self.config_path = work / "inputs" / "config.json"
        self.cfg = self.make_config()
        self.planned = None

    def make_config(self) -> dict:
        raise NotImplementedError

    def setup(self, cli) -> None:
        self.config_path.parent.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.cfg, sort_keys=True), encoding="utf-8")

    def prepare_checks(self, cflat) -> None:
        self.planned = planned_steps(cflat, self.cfg) * self.cells

    def check(self, out: Path, reference: dict | None) -> Check:
        chk = Check()
        runs = sorted(p.parent for p in out.rglob("manifest.json"))
        metrics = [r / "metrics.csv" for r in runs]
        traces = [r / "trace.csv" for r in runs]
        present = bool(runs) and all(p.is_file() for p in metrics + traces)
        chk.add("outputs_present", present)
        if not present:
            return chk
        digest = _digest(metrics + traces)
        chk.values["digest"] = digest
        chk.add("digest_matches_first", reference is None or digest == reference["digest"])
        rows = [row for path in traces for row in _read_trace(path)]
        chk.add("trace_rows_equal_plan", len(rows) == self.planned)
        chk.add("losses_finite", all(math.isfinite(float(r["loss"])) for r in rows))
        manifests = [json.loads((r / "manifest.json").read_text(encoding="utf-8")) for r in runs]
        per_seed = [s for m in manifests for s in m["per_seed"]]
        chk.values.update(
            steps=len(rows),
            examples=sum(s["examples"] for s in per_seed),
            avg_accuracy=sum(s["metrics"]["avg_accuracy"] for s in per_seed) / len(per_seed),
            last_accuracy=sum(s["metrics"]["last_accuracy"] for s in per_seed) / len(per_seed),
            flat_steps=sum(r["used_cflat"] == "true" for r in rows),
            reported_grad_evals=sum(int(r["grad_evals"]) for r in rows),
            bytes_written=_dir_bytes(out),
        )
        return chk


class ClCflat(ClWorkload):
    """``cflat run`` on the demo shape: every step a full C-Flat step."""

    name = "cl_cflat"

    def make_config(self):
        return _config(self.seed, 5, self.smoke)

    def iteration(self, cli, out: Path) -> list[int]:
        return [cli.main(["run", "--config", str(self.config_path), "--out", str(out),
                          "--jobs", "1"])]


class ClGatedSweep(ClWorkload):
    """``cflat sweep`` over icarl/gpm x cflat++/hybrid on B50_Inc1, then ``cflat report``."""

    name = "cl_gated_sweep"
    cells = len(SWEEP_AXES[0][1]) * len(SWEEP_AXES[1][1])

    def make_config(self):
        return _config(self.seed, 3, self.smoke, protocol="B50", increment=1)

    def iteration(self, cli, out: Path) -> list[int]:
        sweep = out / "sweep"
        args = ["sweep", "--config", str(self.config_path), "--out", str(sweep), "--jobs", "1"]
        for key, values in SWEEP_AXES:
            args += ["--axis", f"{key}={','.join(values)}"]
        return [cli.main(args), cli.main(["report", "--results", str(sweep)])]

    def check(self, out, reference):
        chk = super().check(out, reference)
        report = out / "sweep" / "report.md"
        text = report.read_text(encoding="utf-8") if report.is_file() else ""
        chk.add("report_lists_cells", all(
            f"| {method} | {opt} |" in text
            for method in SWEEP_AXES[0][1] for opt in SWEEP_AXES[1][1]
        ))
        return chk


class Landscape:
    """``cflat landscape`` with default probe counts on a 2,762-parameter MLP.

    The checkpoint is the same for every seed (dataset seed 7, run seed 0) and
    the seed picks the probe directions. Power iteration stops on convergence,
    and its length differs far more between checkpoints than between probe
    seeds on one checkpoint, so a seed that changed the checkpoint would
    change how much work an iteration does.
    """

    name = "landscape"

    def __init__(self, seed: int, smoke: bool, work: Path):
        self.seed = seed
        self.cfg = {
            "dataset": {"kind": "synthetic", "classes": 10, "dims": 32, "per_class": 300,
                        "cluster_std": 1.2, "label_noise": 0.2, "seed": 7},
            "protocol": "B0",
            "increment": 5,
            "method": "replay",
            "optimizer": "sgd",
            "optim": {"eta": 0.5},
            "model": {"hidden": [64], "activation": "tanh"},
            "train": {"epochs": 2, "batch_size": 32},
            "seeds": [0],
        }
        self.probes = PROBES
        if smoke:
            self.cfg["dataset"].update(SMOKE_DATASET, classes=10)
            self.cfg["model"]["hidden"] = [8]
            self.cfg["train"]["batch_size"] = 8
            self.probes = SMOKE_PROBES
        self.config_path = work / "inputs" / "checkpoint_run.json"
        self.run_dir = work / "inputs" / "checkpoint_run"
        self.checkpoint = self.run_dir / "checkpoint_seed0.json"
        self.setup_accuracy = None

    def setup(self, cli) -> None:
        self.config_path.parent.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.cfg, sort_keys=True), encoding="utf-8")
        code = cli.main(["run", "--config", str(self.config_path), "--out", str(self.run_dir)])
        if code != 0 or not self.checkpoint.is_file():
            raise RuntimeError(f"checkpoint training failed with exit code {code}")

    def prepare_checks(self, cflat) -> None:
        manifest = json.loads((self.run_dir / "manifest.json").read_text(encoding="utf-8"))
        self.setup_accuracy = (manifest["aggregate"]["avg_accuracy_mean"],
                               manifest["aggregate"]["last_accuracy_mean"])

    def iteration(self, cli, out: Path) -> list[int]:
        args = ["landscape", "--checkpoint", str(self.checkpoint), "--out", str(out),
                "--probe-seed", str(self.seed)]
        for key, value in self.probes.items():
            args += [f"--{key}", str(value)]
        return [cli.main(args)]

    def probe_points(self) -> int:
        """Points the command evaluates, fixed by its probe counts: the ball
        samples of r0 and r1, the Hutchinson probes and the slice grid."""
        p = self.probes
        return 2 * p["samples"] + p["probes"] + p["grid"] ** 2

    def check(self, out: Path, reference: dict | None) -> Check:
        chk = Check()
        flat_path, slice_path = out / "flatness.json", out / "slice.csv"
        present = flat_path.is_file() and slice_path.is_file()
        chk.add("outputs_present", present)
        if not present:
            return chk
        raw = flat_path.read_bytes()
        doc = json.loads(raw)
        chk.values["digest"] = hashlib.sha256(raw).hexdigest()
        chk.add("flatness_finite", all(
            math.isfinite(v) for v in doc.values()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        ))
        chk.add("digest_matches_first",
                reference is None or chk.values["digest"] == reference["digest"])
        chk.add("r0_le_r1", doc.get("r0_le_r1") is True)
        rows = len(slice_path.read_text(encoding="utf-8").splitlines()) - 1
        chk.add("slice_rows_grid_squared", rows == self.probes["grid"] ** 2)
        chk.values.update(
            examples=self.probe_points(),
            avg_accuracy=self.setup_accuracy[0],
            last_accuracy=self.setup_accuracy[1],
            bytes_written=_dir_bytes(out),
        )
        return chk


WORKLOADS = {w.name: w for w in (ClCflat, ClGatedSweep, Landscape)}
