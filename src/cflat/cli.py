"""Experiment runner CLI: run, sweep, landscape, report.

Configs are strict JSON: every field has a default, unknown keys are
rejected, and the resolved config is embedded in the run manifest so a run
can be reproduced from its own output. All CSV output uses repr-formatted
floats, so reruns with the same config are byte-identical; wall-clock timing
is isolated in the manifest under "timing".
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import itertools
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .continual import (
    CLConfig,
    Dataset,
    load_csv_dataset,
    make_stream,
    run_cl_experiment,
    split_dataset,
    synth_dataset,
    SyntheticSpec,
    task_sizes,
    METHOD_NAMES,
    PROTOCOL_NAMES,
)
from .landscape import flatness_report, landscape_slice_2d, top2_eigenpairs
from .metrics import (
    average_accuracy,
    bwt,
    cflat_proportion,
    fwt,
    last_accuracy,
    relative_return,
)
from .numcore import ParamVector, SeededRng
from .objective import ACTIVATION_NAMES, Batch, MlpOracle, MlpSpec, make_quadratic
from .optim import (DivergenceError, OptimConfig, ProxyState, HYBRID_ORDERINGS, OPTIMIZER_NAMES,
                    STEP_FIELDS)

SCHEMA_VERSION = 1

# Config keys that set a dataclass field: JSON path -> (dataclass, field).
# Their defaults come from the dataclass, and _build_dataset / _build_optim /
# _build_cl build the dataclasses from them.
_DATACLASS_KEYS = (
    *((f"dataset.{f.name}", SyntheticSpec, f.name) for f in dataclasses.fields(SyntheticSpec)),
    *((f"optim.{f.name}", OptimConfig, f.name) for f in dataclasses.fields(OptimConfig)),
    ("model.hidden", CLConfig, "hidden"),
    ("model.activation", CLConfig, "activation"),
    ("model.l2", CLConfig, "l2"),
    ("train.epochs", CLConfig, "epochs"),
    ("train.batch_size", CLConfig, "batch_size"),
    ("train.milestones", CLConfig, "milestones"),
    ("train.lr_decay", CLConfig, "lr_decay"),
    ("memory.capacity_per_class", CLConfig, "memory_capacity"),
    ("icarl.temperature", CLConfig, "temperature"),
    ("proxy.A", ProxyState, "A"),
    ("proxy.k", ProxyState, "k"),
    ("proxy.i0", ProxyState, "i0"),
    ("proxy.eta0", ProxyState, "eta0"),
    ("proxy.reset_per_task", CLConfig, "proxy_reset_per_task"),
    ("hybrid.p", CLConfig, "hybrid_p"),
    ("hybrid.ordering", CLConfig, "hybrid_ordering"),
    ("gpm.energy_threshold", CLConfig, "gpm_energy_threshold"),
    ("gpm.eta1", CLConfig, "gpm_eta1"),
    ("gpm.eta2", CLConfig, "gpm_eta2"),
    ("gpm.sample", CLConfig, "gpm_sample"),
)


def _dataclass_sections() -> dict:
    """The config sections of _DATACLASS_KEYS, at the dataclass defaults."""
    sections: dict = {}
    for path, cls, name in _DATACLASS_KEYS:
        section, key = path.split(".")
        value = next(f.default for f in dataclasses.fields(cls) if f.name == name)
        sections.setdefault(section, {})[key] = list(value) if isinstance(value, tuple) else value
    return sections


_SECTIONS = _dataclass_sections()
_DEFAULT_CONFIG = {
    "dataset": {
        "kind": "synthetic",
        **_SECTIONS.pop("dataset"),  # the synthetic dataset's keys
        "path": "",
        "test_fraction": 0.2,
        "split_seed": 0,
    },
    "protocol": "B0",
    "increment": 2,
    "perm_seed": 1993,
    "method": "replay",
    "optimizer": "cflat",
    **_SECTIONS,
    "seeds": [0, 1, 2],
    "out_dir": "runs/out",
}

_ENUMS = {
    "dataset.kind": ("synthetic", "csv"),
    "protocol": PROTOCOL_NAMES,
    "method": METHOD_NAMES,
    "optimizer": OPTIMIZER_NAMES,
    "model.activation": ACTIVATION_NAMES,
    "hybrid.ordering": HYBRID_ORDERINGS,
}


class ConfigError(ValueError):
    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def _check_leaf(path: str, default, value):
    if default is None or isinstance(default, float):  # a number; None marks an optional one
        if value is None and default is None:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{path} must be a number{' or null' if default is None else ''}", path)
        if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN fails both
            raise ConfigError(f"{path} must be finite, got {value}", path)
        return float(value)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path} must be a boolean", path)
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path} must be an integer", path)
        return value
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path} must be a string", path)
        if path in _ENUMS and value not in _ENUMS[path]:
            raise ConfigError(
                f"{path} must be one of {list(_ENUMS[path])}, got {value!r}", path
            )
        return value
    if isinstance(default, list):
        if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"{path} must be a list of integers", path)
        return list(value)
    raise ConfigError(f"unsupported config value at {path}", path)


def resolve_config(user: dict) -> dict:
    """Defaults plus user overrides. Unknown keys, bad types and values the
    library's config dataclasses reject raise a ConfigError naming the key."""
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")

    def walk(defaults: dict, overrides: dict, prefix: str) -> dict:
        out = {}
        for key, value in overrides.items():
            path = f"{prefix}{key}"
            if key not in defaults:
                raise ConfigError(f"unknown config key: {path}", path)
        for key, default in defaults.items():
            path = f"{prefix}{key}"
            if key not in overrides:
                out[key] = copy.deepcopy(default)
            elif isinstance(default, dict):
                if not isinstance(overrides[key], dict):
                    raise ConfigError(f"{path} must be an object", path)
                out[key] = walk(default, overrides[key], path + ".")
            else:
                out[key] = _check_leaf(path, default, overrides[key])
        return out

    cfg = walk(_DEFAULT_CONFIG, user, "")
    if cfg["dataset"]["kind"] == "csv":
        if not cfg["dataset"]["path"]:
            raise ConfigError("dataset.path is required for csv datasets", "dataset.path")
        if not 0.0 < cfg["dataset"]["test_fraction"] < 1.0:
            raise ConfigError("dataset.test_fraction must lie in (0, 1)", "dataset.test_fraction")
    if not cfg["seeds"]:
        raise ConfigError("seeds must be nonempty", "seeds")
    _check_distinct_seeds(cfg["seeds"], "seeds")
    if cfg["increment"] < 1:
        raise ConfigError("increment must be >= 1", "increment")
    if cfg["dataset"]["kind"] == "synthetic":
        _check_split(cfg, _build(cfg, SyntheticSpec).classes)
    _build_optim(cfg)
    _build_cl(cfg)
    return cfg


def _check_split(cfg: dict, n_classes: int) -> None:
    """The dataset's classes must split into tasks under protocol/increment."""
    try:
        task_sizes(n_classes, cfg["protocol"], cfg["increment"])
    except ValueError as err:
        raise ConfigError(f"increment: {err}", "increment") from None


def _check_distinct_seeds(seeds: list[int], field: str) -> None:
    """A repeated seed would run twice and count twice in the aggregate."""
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"{field} must not repeat a seed, got {seeds}", field)


def _dataclass_kwargs(cfg: dict, keys: list[tuple[str, str]]) -> dict:
    kwargs = {}
    for path, name in keys:
        section, key = path.split(".")
        value = cfg[section][key]
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    return kwargs


def _build(cfg: dict, cls, **extra):
    """``cls`` from its config keys. A ValueError from its checks becomes a
    ConfigError naming the key that fails on its own (the others at their
    defaults), or else the section of the keys set away from their defaults:
    a cross-field check such as rho_min <= rho <= rho_max."""
    keys = [(path, name) for path, owner, name in _DATACLASS_KEYS if owner is cls]
    kwargs = _dataclass_kwargs(cfg, keys)
    try:
        return cls(**extra, **kwargs)
    except ValueError as err:
        defaults = _dataclass_kwargs(_DEFAULT_CONFIG, keys)
        changed = [(path, name) for path, name in keys if kwargs[name] != defaults[name]]
        for path, name in changed:
            try:
                cls(**{**defaults, name: kwargs[name]})
            except ValueError as alone:
                raise ConfigError(f"{path}: {alone}", path) from None
        section = ",".join(sorted({path.split(".")[0] for path, _ in changed}))
        raise ConfigError(f"{section}: {err}", section) from None


def _build_dataset(cfg: dict) -> Dataset:
    """The config's dataset. A csv that cannot be read, parsed or split
    raises a ConfigError naming the file, with field dataset.path."""
    ds = cfg["dataset"]
    if ds["kind"] == "synthetic":
        return synth_dataset(_build(cfg, SyntheticSpec))
    path = ds["path"]
    try:
        x, y = load_csv_dataset(path)
        dataset = split_dataset(x, y, ds["test_fraction"], ds["split_seed"])
    except (ValueError, OSError) as err:
        message = str(err) if path in str(err) else f"{path}: {err}"
        raise ConfigError(f"dataset.path: {message}", "dataset.path") from None
    _check_split(cfg, dataset.n_classes)  # a csv's classes are known once it is read
    return dataset


def _build_optim(cfg: dict) -> OptimConfig:
    return _build(cfg, OptimConfig)


def _build_cl(cfg: dict) -> CLConfig:
    return _build(cfg, CLConfig, proxy=_build(cfg, ProxyState))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _trace_rows(seed_result):
    """The seed's trace.csv rows: seed, then the columns of its step record
    with the step index after the epoch; a NaN (empty) cell prints empty."""
    trace = seed_result.trace
    task, epoch, *cells = ([None if v != v else v for v in trace[name].tolist()]
                           for name in STEP_FIELDS.names)
    return zip(itertools.repeat(seed_result.seed), task, epoch, range(len(trace)), *cells)


def _seed_metrics(seed_result, n_tasks: int) -> dict:
    m: dict = {
        "avg_accuracy": average_accuracy(seed_result.matrix),
        "last_accuracy": last_accuracy(seed_result.matrix),
        "bwt": None,
        "fwt": None,
        "cflat_proportion": cflat_proportion(seed_result.trace),
    }
    if n_tasks >= 2:
        m["bwt"] = bwt(seed_result.matrix)
        m["fwt"] = fwt(seed_result.pre_train_acc, seed_result.baseline_acc)
    return m


def _write_csv(path: Path, header: str, rows) -> None:
    """``header``, then one line per row with every cell formatted by _fmt."""
    lines = [header, *(",".join(map(_fmt, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _manifest_doc(manifest) -> list:
    return [[seg.name, seg.offset, list(seg.shape)] for seg in manifest]


def _write_checkpoint(path: Path, seed_result, cfg: dict, stream) -> None:
    theta = seed_result.final_theta
    n_classes = theta.manifest[-1].shape[0]
    x = np.concatenate([task.test_x for task in stream.tasks])[:512]
    y = np.concatenate([task.test_y for task in stream.tasks])[:512]
    doc = {
        "kind": "mlp",
        "schema_version": SCHEMA_VERSION,
        "seed": seed_result.seed,
        "model": {
            "d_in": int(x.shape[1]),
            "hidden": list(cfg["model"]["hidden"]),
            "n_classes": int(n_classes),
            "activation": cfg["model"]["activation"],
            "l2": cfg["model"]["l2"],
        },
        "manifest": _manifest_doc(theta.manifest),
        "theta": [float(v) for v in theta.data],
        "eval_x": [[float(v) for v in row] for row in x],
        "eval_y": [int(v) for v in y],
    }
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def _run_to_manifest(cfg: dict, results: list, metrics: list[dict], n_tasks: int) -> dict:
    per_seed = [
        {
            "seed": r.seed,
            "accuracy_matrix": r.matrix,
            "pre_train_accuracy": r.pre_train_acc,
            "baseline_accuracy": r.baseline_acc,
            "metrics": m,
            "examples": r.examples,
        }
        for r, m in zip(results, metrics)
    ]
    avgs = [m["avg_accuracy"] for m in metrics]
    lasts = [m["last_accuracy"] for m in metrics]
    props = [m["cflat_proportion"] for m in metrics]
    # a seed group trains in lockstep; each seed's share is the group's
    # training time divided by its number of seeds
    timing = {
        "per_seed_train_seconds": [r.train_seconds for r in results],
        "per_seed_examples_per_second": [
            r.examples / r.train_seconds if r.train_seconds > 0 else None
            for r in results
        ],
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "config": cfg,
        "n_tasks": n_tasks,
        "seeds": [r.seed for r in results],
        "per_seed": per_seed,
        "aggregate": {
            "mean_accuracy_matrix": [
                [float(np.mean([r.matrix[t][i] for r in results])) for i in range(t + 1)]
                for t in range(n_tasks)
            ],
            "avg_accuracy_mean": float(np.mean(avgs)),
            "avg_accuracy_std": float(np.std(avgs)),
            "last_accuracy_mean": float(np.mean(lasts)),
            "last_accuracy_std": float(np.std(lasts)),
            "cflat_proportion_mean": float(np.mean(props)),
        },
        "timing": timing,
    }


def _map_jobs(fn, items: list, jobs: int) -> list:
    """``fn`` over ``items``, results in order; in min(``jobs``, len(``items``))
    worker processes when that is more than one, otherwise in this process.

    Workers are spawned, not forked, so none inherits the parent's BLAS
    threads; ``fn`` and ``items`` must pickle.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, items))


def _seed_groups(seeds: list[int], jobs: int) -> list[list[int]]:
    """``seeds`` split into min(``jobs``, len(``seeds``)) contiguous groups
    whose sizes differ by at most one."""
    n, count = len(seeds), min(jobs, len(seeds))
    return [seeds[g * n // count:(g + 1) * n // count] for g in range(count)]


def run_experiment_from_config(cfg: dict, out_dir: Path, jobs: int = 1) -> dict:
    """Execute a resolved config and write manifest/metrics/trace/checkpoints.

    The seeds split into min(``jobs``, #seeds) contiguous groups; each group
    is one ``run_cl_experiment`` call that trains its seeds in lockstep, and
    with more than one group the groups run in worker processes. Their
    results come back in seed order and every file is written from them once,
    so every file but the manifest's timing is byte-identical whatever
    ``jobs`` is.
    """
    dataset = _build_dataset(cfg)
    stream = make_stream(dataset, cfg["protocol"], cfg["increment"], cfg["perm_seed"])
    experiment = functools.partial(
        run_cl_experiment, stream, cfg["method"], cfg["optimizer"],
        _build_optim(cfg), _build_cl(cfg),
    )
    groups = _map_jobs(experiment, _seed_groups(cfg["seeds"], jobs), jobs)
    results = [result for group in groups for result in group]
    n_tasks = len(stream.tasks)
    metrics = [_seed_metrics(r, n_tasks) for r in results]
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _run_to_manifest(cfg, results, metrics, n_tasks)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1), encoding="utf-8"
    )
    _write_csv(out_dir / "metrics.csv", "seed,avg_accuracy,last_accuracy,bwt,fwt,n_tasks", (
        [r.seed, m["avg_accuracy"], m["last_accuracy"], m["bwt"], m["fwt"], n_tasks]
        for r, m in zip(results, metrics)
    ))
    _write_csv(out_dir / "trace.csv", "seed,task,epoch,step," + ",".join(STEP_FIELDS.names[2:]),
               (row for r in results for row in _trace_rows(r)))
    for seed_result in results:
        _write_checkpoint(
            out_dir / f"checkpoint_seed{seed_result.seed}.json",
            seed_result, cfg, stream,
        )
    return manifest


def _read_json(path: Path):
    """The JSON document in ``path``; malformed JSON raises a ConfigError
    naming the file and the decoder's line and column, and bytes that are not
    UTF-8 one naming the file and the byte's position."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: malformed JSON at line {err.lineno} column "
                          f"{err.colno}: {err.msg}") from None


def _load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    doc = _read_json(p)
    if isinstance(doc, dict) and "config" in doc and "schema_version" in doc:
        doc = doc["config"]  # a manifest reproduces its own run
    return doc


def _apply_overrides(cfg_doc: dict, args) -> dict:
    """``cfg_doc`` with the ``--seeds`` and ``--out`` flags of ``run`` and
    ``sweep`` applied; those flags and ``--jobs`` are checked here."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}", "--jobs")
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise ConfigError(
                f"--seeds must be comma-separated integers, got {args.seeds!r}", "--seeds"
            ) from None
        _check_distinct_seeds(seeds, "--seeds")
        cfg_doc = dict(cfg_doc)
        cfg_doc["seeds"] = seeds
    if args.out:
        cfg_doc = dict(cfg_doc)
        cfg_doc["out_dir"] = args.out
    return cfg_doc


def cmd_run(args) -> int:
    cfg_doc = _apply_overrides(_load_config_file(args.config), args)
    cfg = resolve_config(cfg_doc)
    run_experiment_from_config(cfg, Path(cfg["out_dir"]), jobs=args.jobs)
    return 0


def _parse_axis(spec: str) -> tuple[str, list]:
    if "=" not in spec:
        raise ConfigError(f"axis must look like key=v1,v2,...: {spec!r}", "--axis")
    key, _, raw = spec.partition("=")
    values = []
    for item in raw.split(","):
        item = item.strip()
        try:
            values.append(json.loads(item))
        except json.JSONDecodeError:
            values.append(item)
    return key.strip(), values


def _set_path(doc: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"axis key {dotted!r} does not address an object", "--axis")
    node[parts[-1]] = value


def _sweep_cell(cfg: dict) -> dict:
    return run_experiment_from_config(cfg, Path(cfg["out_dir"]))


def cmd_sweep(args) -> int:
    base_doc = _apply_overrides(_load_config_file(args.config), args)
    axes = [_parse_axis(spec) for spec in args.axis]
    keys = [key for key, _ in axes]
    if len(set(keys)) < len(keys):
        raise ConfigError(f"--axis must not repeat a key, got {keys}", "--axis")
    base_out = Path(base_doc.get("out_dir", _DEFAULT_CONFIG["out_dir"]))

    cells = []
    csv_classes: dict = {}  # each distinct csv dataset is built once, before any cell runs
    cell_dirs = set()
    for combo in itertools.product(*[values for _, values in axes]):
        doc = copy.deepcopy(base_doc)
        slug_parts = []
        for key, value in zip(keys, combo):
            _set_path(doc, key, value)
            slug_parts.append(f"{key.replace('.', '_')}={value}")
        cell_dir = "cell_" + "__".join(slug_parts).replace("/", "_")
        if cell_dir in cell_dirs:
            raise ConfigError(f"--axis values give two cells the directory {cell_dir}", "--axis")
        cell_dirs.add(cell_dir)
        doc["out_dir"] = str(base_out / cell_dir)
        cfg = resolve_config(doc)
        if cfg["dataset"]["kind"] == "csv":
            key = json.dumps(cfg["dataset"], sort_keys=True)
            if key not in csv_classes:
                csv_classes[key] = _build_dataset(cfg).n_classes
            _check_split(cfg, csv_classes[key])
        cells.append((cfg, cell_dir, combo))

    manifests = _map_jobs(_sweep_cell, [cfg for cfg, _, _ in cells], args.jobs)

    aggregates = ["avg_accuracy_mean", "avg_accuracy_std", "last_accuracy_mean",
                  "cflat_proportion_mean"]
    base_out.mkdir(parents=True, exist_ok=True)
    _write_csv(base_out / "sweep.csv", ",".join(keys + ["cell_dir"] + aggregates), (
        [v if isinstance(v, str) else json.dumps(v) for v in combo]
        + [cell_dir] + [manifest["aggregate"][name] for name in aggregates]
        for (_, cell_dir, combo), manifest in zip(cells, manifests)
    ))
    return 0


_CHECKPOINT_KEYS = {
    "quadratic": ("H", "theta"),
    "mlp": ("model", "manifest", "theta", "eval_x", "eval_y"),
}


def _checkpoint_array(doc: dict, key: str, shape: tuple) -> np.ndarray:
    """doc[key] as a finite float array of ``shape`` (None: any nonzero length)."""
    try:
        arr = np.array(doc[key], dtype=np.float64)
    except (TypeError, ValueError):
        arr = np.zeros(0)
    if (arr.ndim != len(shape) or 0 in arr.shape
            or any(want not in (None, got) for want, got in zip(shape, arr.shape))
            or not np.isfinite(arr).all()):
        dims = ", ".join("n" if want is None else str(want) for want in shape)
        raise ConfigError(f"checkpoint {key} must be a finite array of shape ({dims})", key)
    return arr


def _load_checkpoint(path: str):
    """(oracle, theta, batch) from a checkpoint; a malformed field raises
    ConfigError naming it."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"checkpoint not found: {path}")
    doc = _read_json(p)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in _CHECKPOINT_KEYS:
        raise ConfigError(f"unknown checkpoint kind {kind!r}", "kind")
    for key in _CHECKPOINT_KEYS[kind]:
        if key not in doc:
            raise ConfigError(f"checkpoint has no {key!r}", key)
    if kind == "quadratic":
        H = _checkpoint_array(doc, "H", (None, None))
        n = len(H)
        if H.shape != (n, n):
            raise ConfigError(f"checkpoint H must be square, got shape {H.shape}", "H")
        theta = _checkpoint_array(doc, "theta", (n,))
        c = _checkpoint_array(doc, "c", (n,)) if "c" in doc else None
        try:
            oracle = make_quadratic(H, c)
        except ValueError as err:  # the shapes are checked, so H is not symmetric
            raise ConfigError(f"checkpoint {err}", "H") from None
        return oracle, ParamVector(theta), None
    try:
        spec = MlpSpec(**doc["model"])
    except (TypeError, ValueError) as err:
        raise ConfigError(f"checkpoint model is invalid: {err}", "model") from None
    oracle = MlpOracle(spec)
    if doc["manifest"] != _manifest_doc(oracle.manifest):
        raise ConfigError("checkpoint manifest does not match its model", "manifest")
    theta = ParamVector(_checkpoint_array(doc, "theta", (oracle.dim,)), oracle.manifest)
    x = _checkpoint_array(doc, "eval_x", (None, spec.d_in))
    y = _checkpoint_array(doc, "eval_y", (len(x),))
    if not ((y == np.round(y)) & (y >= 0) & (y < spec.n_classes)).all():
        raise ConfigError(
            f"checkpoint eval_y must hold integer labels in [0, {spec.n_classes})", "eval_y"
        )
    return oracle, theta, Batch(x, y.astype(np.int64))


def cmd_landscape(args) -> int:
    for flag in ("rho", "extent"):
        value = getattr(args, flag)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"--{flag} must be finite and positive, got {value}", f"--{flag}")
    for flag in ("samples", "probes", "iters", "grid"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"--{flag} must be >= 1, got {getattr(args, flag)}", f"--{flag}")
    oracle, theta, batch = _load_checkpoint(args.checkpoint)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = SeededRng(args.probe_seed)

    # the gradient at theta keeps the pass every HVP of the eigen-solve and
    # the exact trace read; the one eigen-solve gives lambda_max and the
    # slice directions
    g = oracle.grad(theta, batch)
    eigen = top2_eigenpairs(oracle, theta, batch, iters=args.iters, rng=rng.spawn(1))
    report = flatness_report(
        oracle, theta, batch, rho=args.rho, rng=rng, ball_samples=args.samples,
        grad=g, eigen=eigen,
    )
    doc = report.to_dict()
    doc["r0_le_r1"] = bool(report.r0_sample <= report.r1_sample * 1.02 + 1e-12)
    doc["probe_seed"] = args.probe_seed
    doc["checkpoint"] = os.path.relpath(args.checkpoint, args.out)
    (out_dir / "flatness.json").write_text(
        json.dumps(doc, sort_keys=True, indent=1, allow_nan=False), encoding="utf-8"
    )

    v1, v2 = eigen.vectors[0], eigen.vectors[-1]  # a 1-parameter model has one direction
    a_axis, b_axis, losses = landscape_slice_2d(
        oracle, theta, batch, v1, v2, extent=args.extent, grid_n=args.grid
    )
    _write_csv(out_dir / "slice.csv", "dir1_offset,dir2_offset,loss", (
        (a, b, losses[i, j]) for i, a in enumerate(a_axis) for j, b in enumerate(b_axis)
    ))
    return 0


# Manifest keys the report reads: section -> keys.
_REPORT_KEYS = {
    "config": ("method", "optimizer"),
    "aggregate": ("avg_accuracy_mean", "avg_accuracy_std", "last_accuracy_mean",
                  "last_accuracy_std", "cflat_proportion_mean"),
    "timing": ("per_seed_examples_per_second",),
}


def _collect_manifests(results_dir: Path) -> list[dict]:
    manifests = []
    for path in sorted(results_dir.rglob("manifest.json")):
        manifest = _read_json(path)
        for section, keys in _REPORT_KEYS.items():
            node = manifest.get(section) if isinstance(manifest, dict) else None
            for key in keys:
                if not isinstance(node, dict) or key not in node:
                    raise ConfigError(f"{path} has no {section}.{key}", f"{section}.{key}")
        manifests.append(manifest)
    if not manifests:
        raise ConfigError(f"no manifest.json found under {results_dir}")
    versions = {m.get("schema_version") for m in manifests}
    if len(versions) > 1:
        raise ConfigError(f"mixed manifest schema versions: {sorted(map(str, versions))}")
    return manifests


def cmd_report(args) -> int:
    manifests = _collect_manifests(Path(args.results))
    rows = {}
    for m in manifests:
        key = (m["config"]["method"], m["config"]["optimizer"])
        if key in rows:
            raise ConfigError(f"duplicate method/optimizer cell: {key}")
        speeds = [s for s in m["timing"]["per_seed_examples_per_second"] if s]
        rows[key] = {
            "avg_mean": m["aggregate"]["avg_accuracy_mean"],
            "avg_std": m["aggregate"]["avg_accuracy_std"],
            "last_mean": m["aggregate"]["last_accuracy_mean"],
            "last_std": m["aggregate"]["last_accuracy_std"],
            "proportion": m["aggregate"]["cflat_proportion_mean"],
            "throughput": float(np.mean(speeds)) if speeds else float("nan"),
        }

    sgd_ref = {method: row["avg_mean"] for (method, opt), row in rows.items() if opt == "sgd"}
    lines = [
        "# Continual-learning results",
        "",
        "Mean and std are over seeds (population std). Relative return compares",
        "average accuracy against the SGD row of the same method.",
        "",
        "| method | optimizer | avg acc | last acc | proportion | img/s | rel. return |",
        "|---|---|---|---|---|---|---|",
    ]
    for (method, opt) in sorted(rows):
        row = rows[(method, opt)]
        if method in sgd_ref and sgd_ref[method] != 0:
            rel = relative_return(row["avg_mean"], sgd_ref[method])
            rel_str = f"{rel * 100:+.2f}%"
        else:
            rel_str = "n/a"
        lines.append(
            f"| {method} | {opt} "
            f"| {row['avg_mean']:.4f} ± {row['avg_std']:.4f} "
            f"| {row['last_mean']:.4f} ± {row['last_std']:.4f} "
            f"| {row['proportion'] * 100:.1f}% "
            f"| {row['throughput']:.1f} "
            f"| {rel_str} |"
        )
    out_path = Path(args.out) if args.out else Path(args.results) / "report.md"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cflat", description="Flatness-seeking continual-learning experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None, help="override out_dir")
    run_p.add_argument("--seeds", default=None, help="comma-separated seed override")
    run_p.add_argument("--jobs", type=int, default=1)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="Cartesian sweep over config axes")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--axis", action="append", required=True,
                         help="dotted.key=v1,v2,... (repeatable)")
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--seeds", default=None)
    sweep_p.add_argument("--jobs", type=int, default=1)
    sweep_p.set_defaults(func=cmd_sweep)

    land_p = sub.add_parser("landscape", help="flatness report for a checkpoint")
    land_p.add_argument("--checkpoint", required=True)
    land_p.add_argument("--out", required=True)
    land_p.add_argument("--rho", type=float, default=0.2)
    land_p.add_argument("--samples", type=int, default=2000)
    land_p.add_argument("--probes", type=int, default=200,
                        help="checked to be >= 1 and otherwise unused: the trace is exact")
    land_p.add_argument("--iters", type=int, default=200,
                        help="most HVPs the one eigen-solve takes")
    land_p.add_argument("--grid", type=int, default=21)
    land_p.add_argument("--extent", type=float, default=1.0)
    land_p.add_argument("--probe-seed", type=int, default=0)
    land_p.set_defaults(func=cmd_landscape)

    rep_p = sub.add_parser("report", help="markdown summary over run manifests")
    rep_p.add_argument("--results", required=True)
    rep_p.add_argument("--out", default=None)
    rep_p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        payload = {"error": {"kind": "config", "message": str(err)}}
        if err.field:
            payload["error"]["field"] = err.field
        print(json.dumps(payload), file=sys.stderr)
        return 2
    except DivergenceError as err:
        payload = {"error": {"kind": "divergence", "message": str(err), "step": err.step,
                             "task": err.task, "seed": err.seed, "last_loss": err.last_loss,
                             "grad_norm": err.grad_norm}}
        print(json.dumps(payload), file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        payload = {"error": {"kind": type(err).__name__, "message": str(err)}}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
