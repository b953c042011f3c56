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
import functools
import inspect
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
    load_csv_dataset,
    make_stream,
    run_cl_experiment,
    seed_rows,
    split_dataset,
    synth_dataset,
    SyntheticSpec,
    task_sizes,
    TaskStream,
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
from .objective import ACTIVATION_NAMES, Batch, MlpOracle, MlpSpec, QuadraticOracle
from .optim import (CflatPPStepper, DescentStepper, DivergenceError, HybridStepper, OptimConfig,
                    HYBRID_ORDERINGS, OPTIMIZER_NAMES, STEP_FIELDS, STEPPERS)

SCHEMA_VERSION = 1

# numpy's floating-point warnings, which a command turns off: every
# non-finite value a run or a landscape meets is checked and reported as one
# JSON error, and a warning printed on the way would come before it on stderr.
_QUIET_FLOATS = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


@functools.cache
def _defaults(owner) -> dict:
    """``owner``'s constructor parameters and their defaults."""
    return {name: param.default for name, param in inspect.signature(owner).parameters.items()}


# Config keys that set a constructor parameter: JSON path -> (owner, parameter),
# where an owner is a dataclass or a stepper class. Their defaults come from
# the owner's signature, and _inputs builds the owners from them when it
# checks and builds a run's inputs.
_CONFIG_KEYS = (
    *((f"dataset.{name}", SyntheticSpec, name) for name in _defaults(SyntheticSpec)),
    *((f"optim.{name}", OptimConfig, name) for name in _defaults(OptimConfig)),
    ("model.hidden", CLConfig, "hidden"),
    ("model.activation", CLConfig, "activation"),
    ("model.l2", CLConfig, "l2"),
    ("train.epochs", CLConfig, "epochs"),
    ("train.batch_size", CLConfig, "batch_size"),
    ("memory.capacity_per_class", CLConfig, "memory_capacity"),
    ("icarl.temperature", CLConfig, "temperature"),
    *((f"proxy.{name}", CflatPPStepper, name) for name in _defaults(CflatPPStepper)),
    *((f"hybrid.{name}", HybridStepper, name) for name in _defaults(HybridStepper)),
    ("gpm.energy_threshold", CLConfig, "gpm_energy_threshold"),
    ("gpm.eta1", CLConfig, "gpm_eta1"),
    ("gpm.eta2", CLConfig, "gpm_eta2"),
    ("gpm.sample", CLConfig, "gpm_sample"),
)


def _default_sections() -> dict:
    """The config sections of _CONFIG_KEYS, at their owners' defaults."""
    sections: dict = {}
    for path, owner, name in _CONFIG_KEYS:
        section, key = path.split(".")
        value = _defaults(owner)[name]
        sections.setdefault(section, {})[key] = list(value) if isinstance(value, tuple) else value
    return sections


_SECTIONS = _default_sections()
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
    "perm_seed": _defaults(make_stream)["perm_seed"],
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
    """Defaults plus user overrides. Unknown keys, bad types, a CSV dataset
    without a path or with test_fraction outside (0, 1) and a repeated seed
    raise a ConfigError naming the key; _inputs checks what it builds."""

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
    return cfg


def _check_distinct_seeds(seeds: list[int], field: str) -> None:
    """A repeated seed would run twice and count twice in the aggregate."""
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"{field} must not repeat a seed, got {seeds}", field)


def _owner_kwargs(cfg: dict, keys: list[tuple[str, str]]) -> dict:
    kwargs = {}
    for path, name in keys:
        section, key = path.split(".")
        value = cfg[section][key]
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    return kwargs


def _build(cfg: dict, cls):
    """``cls`` from its config keys. A ValueError from its checks becomes a
    ConfigError naming the key that fails on its own (the others at their
    defaults), or else the section of the keys set away from their defaults:
    a cross-field check such as rho_min <= rho."""
    keys = [(path, name) for path, owner, name in _CONFIG_KEYS if owner is cls]
    kwargs = _owner_kwargs(cfg, keys)
    try:
        return cls(**kwargs)
    except ValueError as err:
        defaults = _owner_kwargs(_DEFAULT_CONFIG, keys)
        changed = [(path, name) for path, name in keys if kwargs[name] != defaults[name]]
        for path, name in changed:
            try:
                cls(**{**defaults, name: kwargs[name]})
            except ValueError as alone:
                raise ConfigError(f"{path}: {alone}", path) from None
        section = ",".join(sorted({path.split(".")[0] for path, _ in changed}))
        raise ConfigError(f"{section}: {err}", section) from None


def _inputs(cfg: dict, streams: dict | None = None
            ) -> tuple[TaskStream, OptimConfig, CLConfig, DescentStepper]:
    """A resolved config's task stream, OptimConfig, CLConfig and unstarted
    stepper, checked and built in this one place: a value an owner rejects
    fails as in _build (every stepper class is built, so a gate setting
    fails under any optimizer), classes that do not split into tasks, or
    give the first fewer than two, with field increment (before a synthetic
    dataset is drawn), and a CSV that cannot be read, parsed or split with
    field dataset.path, naming the file. Sweep cells that pass one
    ``streams`` and split one dataset alike share its stream."""
    optim = _build(cfg, OptimConfig)
    cl = _build(cfg, CLConfig)
    steppers = {name: _build(cfg, cls) for name, cls in STEPPERS.items()}
    streams = {} if streams is None else streams
    ds = cfg["dataset"]
    key = json.dumps([ds, cfg["protocol"], cfg["increment"], cfg["perm_seed"]], sort_keys=True)
    if key not in streams:
        if ds["kind"] == "synthetic":
            spec = _build(cfg, SyntheticSpec)
            n_classes, draw = spec.classes, functools.partial(synth_dataset, spec)
        else:
            path = ds["path"]
            try:
                x, y = load_csv_dataset(path)
                dataset = split_dataset(x, y, ds["test_fraction"], ds["split_seed"])
            except (ValueError, OSError) as err:
                message = str(err) if path in str(err) else f"{path}: {err}"
                raise ConfigError(f"dataset.path: {message}", "dataset.path") from None
            n_classes, draw = dataset.n_classes, lambda: dataset
        try:
            task_sizes(n_classes, cfg["protocol"], cfg["increment"])
        except ValueError as err:
            raise ConfigError(f"increment: {err}", "increment") from None
        streams[key] = make_stream(draw(), cfg["protocol"], cfg["increment"], cfg["perm_seed"])
    return streams[key], optim, cl, steppers[cfg["optimizer"]]


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


def _column(values: np.ndarray) -> list[str]:
    """A step-record column's cells as _fmt writes them, by its dtype; a NaN
    (an empty cell) as nothing."""
    if values.dtype == np.bool_:
        return [("false", "true")[v] for v in values.tolist()]
    if values.dtype.kind == "f":
        return ["" if v != v else repr(v) for v in values.tolist()]
    return list(map(str, values.tolist()))


def _trace_lines(results) -> list[str]:
    """trace.csv's rows, seed by seed: the seed, then the columns of its step
    record with the step index after the epoch; each column formatted once."""
    task, epoch, *cells = (_column(np.concatenate([r.trace[name] for r in results]))
                           for name in STEP_FIELDS.names)
    seed = [str(r.seed) for r in results for _ in range(len(r.trace))]
    step = [str(i) for r in results for i in range(len(r.trace))]
    return list(map(",".join, zip(seed, task, epoch, step, *cells)))


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


def _eval_members(stream) -> str:
    """A checkpoint's "eval_x" and "eval_y" members as json.dumps(doc,
    sort_keys=True) writes them: the stream's first 512 test rows, which every
    checkpoint of the stream shares, so they are encoded once."""
    x = np.concatenate([task.test_x for task in stream.tasks])[:512]
    y = np.concatenate([task.test_y for task in stream.tasks])[:512]
    return json.dumps({"eval_x": x.tolist(), "eval_y": y.tolist()})[1:-1]


def _write_checkpoint(path: Path, seed_result, cfg: dict, stream, eval_members: str) -> None:
    """json.dumps(doc, sort_keys=True) of the checkpoint; its two eval_*
    members sort first, so ``eval_members`` is spliced in at the front."""
    theta = seed_result.final_theta
    doc = {
        "kind": "mlp",
        "schema_version": SCHEMA_VERSION,
        "seed": seed_result.seed,
        "model": {
            "d_in": int(stream.tasks[0].test_x.shape[1]),
            "hidden": list(cfg["model"]["hidden"]),
            "n_classes": int(theta.manifest[-1].shape[0]),
            "activation": cfg["model"]["activation"],
            "l2": cfg["model"]["l2"],
        },
        "manifest": _manifest_doc(theta.manifest),
        "theta": theta.data.tolist(),
    }
    text = "{" + eval_members + ", " + json.dumps(doc, sort_keys=True)[1:]
    path.write_text(text, encoding="utf-8")


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
        # a group trains its rows, across cells, in lockstep; each row's share
        # is the group's training time divided by its number of rows
        "timing": {"per_seed_train_seconds": [r.train_seconds for r in results]},
    }


def _map_jobs(fn, items: list, jobs: int) -> list:
    """``fn`` over ``items``, results in order; in min(``jobs``, len(``items``))
    worker processes when that is more than one, otherwise in this process.

    Workers are spawned, not forked, so none inherits the parent's BLAS
    threads, nor ``main``'s numpy error state, which each call sets again;
    ``fn`` and ``items`` must pickle.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(functools.partial(_quietly, fn), items))


def _quietly(fn, item):
    """``fn(item)`` under ``main``'s numpy error state, in a worker process."""
    with np.errstate(**_QUIET_FLOATS):
        return fn(item)


def _seed_groups(seeds: list, jobs: int) -> list[list]:
    """``seeds`` split into min(``jobs``, len(``seeds``)) contiguous groups
    whose sizes differ by at most one."""
    n, count = len(seeds), min(jobs, len(seeds))
    return [seeds[g * n // count:(g + 1) * n // count] for g in range(count)]


# The config sections only a row's stepper reads, the optimizer and the
# sections of stepper settings: cells that differ in nothing else (nor in
# out_dir) train as one lockstep group.
_GATE_SECTIONS = ("optimizer", *dict.fromkeys(path.split(".")[0] for path, owner, _ in _CONFIG_KEYS
                                              if owner in STEPPERS.values()), "out_dir")


def _train(part: tuple) -> list:
    """``run_cl_experiment`` on a part of a group: (cell index, (optimizer,
    cell name), row) triples; a divergence gets the failing row's labels."""
    stream, method, optim, cl, rows = part
    try:
        return run_cl_experiment(stream, method, optim, cl, [row for *_, row in rows])
    except DivergenceError as err:
        err.optimizer, err.cell = rows[err.row or 0][1]
        raise


def _run_cells(cells: list, jobs: int) -> list[dict]:
    """Train ``cells``, (cfg, inputs, out_dir, cell name) tuples, and write
    each cell's directory; returns their manifests.

    Cells whose configs differ only in _GATE_SECTIONS form one group: one
    ``run_cl_experiment`` call whose rows are the cells' ``seed_rows``, cell
    by cell. Groups go to min(``jobs``, #groups) workers; with more jobs than
    groups, the jobs are shared out among the groups and each group's rows
    split into that many contiguous parts (``_seed_groups``). Files are
    written only after every group trained, each cell's from its own rows,
    so no byte but the manifest's timing depends on the grouping or ``jobs``.
    """
    groups: dict = {}
    for index, (cfg, (*_, stepper), _, cell) in enumerate(cells):
        key = json.dumps({k: v for k, v in cfg.items() if k not in _GATE_SECTIONS},
                         sort_keys=True)
        groups.setdefault(key, []).extend((index, (cfg["optimizer"], cell), row)
                                          for row in seed_rows(stepper, cfg["seeds"]))
    parts = []
    for g, rows in enumerate(groups.values()):
        cfg, (stream, optim, cl, _), _, _ = cells[rows[0][0]]
        share = max(1, (g + 1) * jobs // len(groups) - g * jobs // len(groups))
        parts += [(stream, cfg["method"], optim, cl, part) for part in _seed_groups(rows, share)]
    results = [r for part in _map_jobs(_train, parts, jobs) for r in part]
    owners = [index for *_, rows in parts for index, _, _ in rows]
    encoded: dict = {}  # each stream's checkpoint eval members, encoded once
    manifests = []
    for index, (cfg, (stream, *_), out_dir, _) in enumerate(cells):
        if id(stream) not in encoded:
            encoded[id(stream)] = _eval_members(stream)
        own = [r for r, owner in zip(results, owners) if owner == index]
        manifests.append(_write_run(cfg, stream, own, out_dir, encoded[id(stream)]))
    return manifests


def _write_run(cfg: dict, stream, results: list, out_dir: Path, eval_members: str) -> dict:
    """A run's manifest, metrics.csv, trace.csv and checkpoints, from its
    per-seed results in seed order."""
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
    header = "seed,task,epoch,step," + ",".join(STEP_FIELDS.names[2:])
    (out_dir / "trace.csv").write_text("\n".join([header, *_trace_lines(results)]) + "\n",
                                       encoding="utf-8")
    for seed_result in results:
        _write_checkpoint(out_dir / f"checkpoint_seed{seed_result.seed}.json",
                          seed_result, cfg, stream, eval_members)
    return manifest


def run_experiment_from_config(cfg: dict, inputs: tuple, out_dir: Path, jobs: int = 1) -> dict:
    """Execute a resolved config on its ``_inputs``; write manifest/metrics/trace/checkpoints.
    The one-cell case of ``_run_cells``: --jobs splits the seeds into groups."""
    return _run_cells([(cfg, inputs, out_dir, None)], jobs)[0]


def _read_json(path: Path):
    """The JSON document in ``path``. A ConfigError names the file: with the
    OS error for a path that cannot be read (missing, a directory, no
    permission), the decoder's line and column for malformed JSON, and the
    byte's position for bytes that are not UTF-8."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: malformed JSON at line {err.lineno} column "
                          f"{err.colno}: {err.msg}") from None


def _load_config_file(path: str) -> dict:
    doc = _read_json(Path(path))
    if isinstance(doc, dict) and "config" in doc and "schema_version" in doc:
        doc = doc["config"]  # a manifest reproduces its own run
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
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
    run_experiment_from_config(cfg, _inputs(cfg), Path(cfg["out_dir"]), jobs=args.jobs)
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


def cmd_sweep(args) -> int:
    base_doc = _apply_overrides(_load_config_file(args.config), args)
    axes = [_parse_axis(spec) for spec in args.axis]
    keys = [key for key, _ in axes]
    if len(set(keys)) < len(keys):
        raise ConfigError(f"--axis must not repeat a key, got {keys}", "--axis")
    default_out = _DEFAULT_CONFIG["out_dir"]
    base_out = Path(_check_leaf("out_dir", default_out, base_doc.get("out_dir", default_out)))

    cells = []
    streams: dict = {}  # cells that split one dataset alike share its stream
    cell_dirs = set()
    combos = list(itertools.product(*[values for _, values in axes]))
    for combo in combos:
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
        cells.append((cfg, _inputs(cfg, streams), Path(cfg["out_dir"]), cell_dir))

    manifests = _run_cells(cells, args.jobs)

    aggregates = ["avg_accuracy_mean", "avg_accuracy_std", "last_accuracy_mean",
                  "cflat_proportion_mean"]
    base_out.mkdir(parents=True, exist_ok=True)
    _write_csv(base_out / "sweep.csv", ",".join(keys + ["cell_dir"] + aggregates), (
        [v if isinstance(v, str) else json.dumps(v) for v in combo]
        + [cell[3]] + [manifest["aggregate"][name] for name in aggregates]
        for combo, cell, manifest in zip(combos, cells, manifests)
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
    doc = _read_json(Path(path))
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
            oracle = QuadraticOracle(H, c)
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


# Manifest keys the report reads: section -> keys. Both sections are
# deterministic, so a report is byte-identical across reruns and --jobs.
_REPORT_KEYS = {
    "config": ("method", "optimizer"),
    "aggregate": ("avg_accuracy_mean", "avg_accuracy_std", "last_accuracy_mean",
                  "last_accuracy_std", "cflat_proportion_mean"),
}


def _collect_manifests(results_dir: Path) -> list[tuple[str, dict]]:
    """(run, manifest) pairs for every manifest under ``results_dir``, where
    run is the manifest's directory relative to ``results_dir``."""
    manifests = []
    for path in sorted(results_dir.rglob("manifest.json")):
        manifest = _read_json(path)
        for section, keys in _REPORT_KEYS.items():
            node = manifest.get(section) if isinstance(manifest, dict) else None
            for key in keys:
                if not isinstance(node, dict) or key not in node:
                    raise ConfigError(f"{path} has no {section}.{key}", f"{section}.{key}")
        manifests.append((path.parent.relative_to(results_dir).as_posix(), manifest))
    if not manifests:
        raise ConfigError(f"no manifest.json found under {results_dir}")
    versions = {m.get("schema_version") for _, m in manifests}
    if len(versions) > 1:
        raise ConfigError(f"mixed manifest schema versions: {sorted(map(str, versions))}")
    return manifests


def cmd_report(args) -> int:
    """One row per run, by method, optimizer and run directory. A row's
    relative return is taken against the one SGD run whose config differs
    only in _GATE_SECTIONS and seeds, and is n/a without exactly one."""
    runs = sorted(_collect_manifests(Path(args.results)), key=lambda run: (
        run[1]["config"]["method"], run[1]["config"]["optimizer"], run[0]))
    shared = [{k: v for k, v in m["config"].items() if k not in (*_GATE_SECTIONS, "seeds")}
              for _, m in runs]
    sgd_refs = [(config, m["aggregate"]["avg_accuracy_mean"])
                for config, (_, m) in zip(shared, runs) if m["config"]["optimizer"] == "sgd"]
    lines = [
        "# Continual-learning results",
        "",
        "Mean and std are over seeds (population std). Relative return compares",
        "average accuracy against the SGD row of the same method.",
        "",
        "| method | optimizer | avg acc | last acc | proportion | rel. return | run |",
        "|---|---|---|---|---|---|---|",
    ]
    for config, (run, m) in zip(shared, runs):
        row = m["aggregate"]
        refs = [acc for ref, acc in sgd_refs if ref == config]
        if len(refs) == 1 and refs[0] != 0:
            rel_str = f"{relative_return(row['avg_accuracy_mean'], refs[0]) * 100:+.2f}%"
        else:
            rel_str = "n/a"
        lines.append(
            f"| {m['config']['method']} | {m['config']['optimizer']} "
            f"| {row['avg_accuracy_mean']:.4f} ± {row['avg_accuracy_std']:.4f} "
            f"| {row['last_accuracy_mean']:.4f} ± {row['last_accuracy_std']:.4f} "
            f"| {row['cflat_proportion_mean'] * 100:.1f}% "
            f"| {rel_str} | {run} |"
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
    land_p.add_argument("--samples", type=int, default=_defaults(flatness_report)["ball_samples"])
    land_p.add_argument("--probes", type=int, default=200,
                        help="checked to be >= 1 and otherwise unused: the trace is exact")
    land_p.add_argument("--iters", type=int, default=_defaults(top2_eigenpairs)["iters"],
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
        with np.errstate(**_QUIET_FLOATS):
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
                             "grad_norm": err.grad_norm, "optimizer": err.optimizer}}
        if err.cell is not None:  # a sweep names the failing row's cell directory
            payload["error"]["cell"] = err.cell
        print(json.dumps(payload), file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        payload = {"error": {"kind": type(err).__name__, "message": str(err)}}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
