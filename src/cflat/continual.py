"""Class-incremental task streams and the CL methods the optimizers plug into.

Methods: naive fine-tuning, replay, distillation, weight alignment, and
gradient projection. Swapping the optimizer never touches the data path:
every method trains through the same stepper interface, and gradient
projection is GpmStepper wrapped around the optimizer's own stepper.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .numcore import ParamVector, SeededRng, Segment, axpy, norm2, restack, stack, unstack
from .objective import (
    Batch,
    MlpOracle,
    MlpSpec,
    ObjectiveOracle,
    _ce_curvature,
    _ce_output_error,
    _scalar,
    _softmax,
    _softmax_jvp,
)
from .optim import (
    DescentStepper,
    DivergenceError,
    OptimConfig,
    ProxyState,
    SeedGroup,
    Stepper,
    _ascent_gradient,
    _require_finite,
    make_stepper,
    train_epochs,
)

__all__ = [
    "SyntheticSpec",
    "Dataset",
    "Task",
    "TaskStream",
    "MemoryBuffer",
    "GpmState",
    "CLConfig",
    "SeedResult",
    "synth_dataset",
    "load_csv_dataset",
    "split_dataset",
    "make_stream",
    "task_sizes",
    "buffer_update",
    "buffer_contents",
    "DistillObjective",
    "wa_align",
    "scale_new_logits",
    "grow_head",
    "gpm_extract_basis",
    "gpm_update_basis",
    "gpm_project",
    "GpmStepper",
    "run_cl_experiment",
    "METHOD_NAMES",
    "PROTOCOL_NAMES",
]

METHOD_NAMES = ("finetune", "replay", "icarl", "wa", "gpm")
PROTOCOL_NAMES = ("B0", "B50")

# Stream ids: dataset-level draws key off the dataset/permutation seed,
# run-level draws key off the run seed. Fixed so reruns are identical.
_STREAM_PERM = 1
_STREAM_MEANS = 2
_STREAM_NOISE = 3
_STREAM_ORDER = 4
_STREAM_LABEL_NOISE = 5
_STREAM_SPLIT = 6
_STREAM_INIT = 10
_STREAM_BASELINE = 11
_STREAM_GROW = 12
_STREAM_SHUFFLE = 13
_STREAM_BUFFER = 14


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-cluster classification data: one cluster per class.

    feature_scale multiplies every feature after generation; it sets the
    gradient-norm scale without changing class separability. The defaults are
    the config's ``dataset`` defaults (``cflat.cli`` reads them from here).
    """

    classes: int = 10
    dims: int = 16
    per_class: int = 100
    cluster_std: float = 1.0
    seed: int = 7
    label_noise: float = 0.0
    feature_scale: float = 1.0

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError("need at least two classes")
        if self.dims < 1:
            raise ValueError("dims must be positive")
        if self.per_class < 3:
            raise ValueError("per_class must be >= 3, or some class has no test example")
        if self.cluster_std < 0:
            raise ValueError("cluster_std must be nonnegative")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError("label_noise must lie in [0, 1)")
        if self.feature_scale <= 0:
            raise ValueError("feature_scale must be positive")


@dataclass(frozen=True)
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    n_classes: int

    @property
    def d_in(self) -> int:
        return self.train_x.shape[1]


def synth_dataset(spec: SyntheticSpec) -> Dataset:
    """Per-class means drawn once from the seed; 80/20 stratified split.

    Optional label noise flips a fraction of *training* labels to a uniformly
    random other class; test labels stay clean.
    """
    means = SeededRng(spec.seed, _STREAM_MEANS).normal(0.0, 1.0, (spec.classes, spec.dims))
    noise_rng = SeededRng(spec.seed, _STREAM_NOISE)
    n_train = max(1, int(round(0.8 * spec.per_class)))
    train_parts, test_parts = [], []
    for c in range(spec.classes):
        pts = means[c] + spec.cluster_std * noise_rng.normal(0.0, 1.0, (spec.per_class, spec.dims))
        train_parts.append((pts[:n_train], np.full(n_train, c, dtype=np.int64)))
        test_parts.append((pts[n_train:], np.full(spec.per_class - n_train, c, dtype=np.int64)))
    train_x = np.concatenate([p[0] for p in train_parts])
    train_y = np.concatenate([p[1] for p in train_parts])
    test_x = np.concatenate([p[0] for p in test_parts])
    test_y = np.concatenate([p[1] for p in test_parts])

    if spec.label_noise > 0:
        flip_rng = SeededRng(spec.seed, _STREAM_LABEL_NOISE)
        k = int(round(spec.label_noise * len(train_y)))
        if k > 0:
            idx = flip_rng.choice(len(train_y), k)
            shift = flip_rng.integers(1, spec.classes, k)
            train_y = train_y.copy()
            train_y[idx] = (train_y[idx] + shift) % spec.classes

    order = SeededRng(spec.seed, _STREAM_ORDER).permutation(len(train_y))
    return Dataset(
        spec.feature_scale * train_x[order], train_y[order],
        spec.feature_scale * test_x, test_y, spec.classes,
    )


def load_csv_dataset(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load a CSV with an integer label in the first column, features after.

    A header row is skipped if its first cell does not parse as a number.
    Rows must all have the first data row's width, labels must be nonnegative
    integers and features finite; a ``ValueError`` names the first offending
    data row, counted from 1 after the header, skipping blank lines.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    start = 0
    try:
        float(lines[0].split(",")[0])
    except ValueError:
        start = 1
    rows = [ln.split(",") for ln in lines[start:]]
    if not rows:
        raise ValueError(f"{path} has no data rows")
    width = len(rows[0])
    values = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        where = f"{path}: data row {i + 1}"
        if len(row) != width:
            raise ValueError(f"{where} has {len(row)} columns, expected {width}")
        try:
            values[i] = [float(v) for v in row]
        except ValueError:
            raise ValueError(f"{where} has a non-numeric cell") from None
        if not np.isfinite(values[i, 1:]).all():
            raise ValueError(f"{where} has a non-finite feature")
        if not float(values[i, 0]).is_integer():
            raise ValueError(f"{where} has non-integer label {row[0]!r}")
        if values[i, 0] < 0:
            raise ValueError(f"{where} has negative label {row[0]!r}")
    x = values[:, 1:].copy()
    y = values[:, 0].astype(np.int64)
    return x, y


def split_dataset(x: np.ndarray, y: np.ndarray, test_fraction: float, seed: int) -> Dataset:
    """Stratified train/test split; classes must be labeled 0..C-1."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    classes = np.unique(y)
    n_classes = int(classes.max()) + 1
    if not np.array_equal(classes, np.arange(n_classes)):
        missing = np.setdiff1d(np.arange(n_classes), classes).tolist()
        raise ValueError(f"labels must cover 0..{n_classes - 1} contiguously; missing {missing}")
    rng = SeededRng(seed, _STREAM_SPLIT)
    train_idx, test_idx = [], []
    for c in classes:
        rows = np.flatnonzero(y == c)
        rows = rows[rng.permutation(len(rows))]
        n_test = max(1, int(round(test_fraction * len(rows))))
        test_idx.extend(rows[:n_test])
        train_idx.extend(rows[n_test:])
    train_idx = np.array(sorted(train_idx))
    test_idx = np.array(sorted(test_idx))
    order = rng.permutation(len(train_idx))
    train_idx = train_idx[order]
    return Dataset(x[train_idx], y[train_idx], x[test_idx], y[test_idx], n_classes)


@dataclass(frozen=True)
class Task:
    """One incremental phase; labels are remapped to global head indices."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    class_ids: tuple[int, ...]

    @property
    def n_new(self) -> int:
        return len(self.class_ids)


@dataclass(frozen=True)
class TaskStream:
    tasks: tuple[Task, ...]
    class_order: tuple[int, ...]


def task_sizes(n_classes: int, protocol: str, y: int) -> list[int]:
    """Classes per task, in task order; a ValueError if they do not split.

    "B0" divides all classes into tasks of y; "B50" gives the first task half
    of the classes (rounded up) and divides the rest into tasks of y.
    """
    if y < 1:
        raise ValueError("increment must be >= 1")
    C = n_classes
    if protocol == "B0":
        if C % y != 0:
            raise ValueError(
                f"cannot divide {C} classes into tasks of {y}: remainder {C % y}"
            )
        return [y] * (C // y)
    if protocol == "B50":
        first = (C + 1) // 2
        rest = C - first
        if rest % y != 0:
            raise ValueError(
                f"cannot divide the remaining {rest} classes into tasks of {y}: "
                f"remainder {rest % y}"
            )
        return [first] + [y] * (rest // y)
    raise ValueError(f"unknown protocol {protocol!r}; expected {' or '.join(PROTOCOL_NAMES)}")


def make_stream(dataset: Dataset, protocol: str, y: int, perm_seed: int = 1993) -> TaskStream:
    """Split classes into incremental tasks (``task_sizes``) after a seeded
    permutation."""
    C = dataset.n_classes
    sizes = task_sizes(C, protocol, y)
    perm = SeededRng(perm_seed, _STREAM_PERM).permutation(C)
    groups = np.split(perm, np.cumsum(sizes)[:-1])

    order = np.concatenate(groups)
    remap = np.full(C, -1, dtype=np.int64)
    for new_id, orig in enumerate(order):
        remap[orig] = new_id

    tasks = []
    for group in groups:
        tr_mask = np.isin(dataset.train_y, group)
        te_mask = np.isin(dataset.test_y, group)
        tasks.append(
            Task(
                train_x=dataset.train_x[tr_mask],
                train_y=remap[dataset.train_y[tr_mask]],
                test_x=dataset.test_x[te_mask],
                test_y=remap[dataset.test_y[te_mask]],
                class_ids=tuple(int(c) for c in group),
            )
        )
    return TaskStream(tasks=tuple(tasks), class_order=tuple(int(c) for c in order))


@dataclass(frozen=True)
class MemoryBuffer:
    """Per-class exemplar store; classes only enter after their task finished."""

    capacity_per_class: int
    store: tuple[tuple[int, np.ndarray], ...] = ()

    def __post_init__(self):
        if self.capacity_per_class < 0:
            raise ValueError("capacity must be nonnegative")


def buffer_update(buf: MemoryBuffer, x: np.ndarray, y: np.ndarray, rng: SeededRng) -> MemoryBuffer:
    """Store up to capacity uniformly-sampled exemplars per new class."""
    existing = dict(buf.store)
    for c in sorted(int(v) for v in np.unique(y)):
        if c in existing:  # existing exemplars are retained untouched
            continue
        rows = x[y == c]
        k = min(buf.capacity_per_class, len(rows))
        if k == 0:
            continue
        sel = rng.choice(len(rows), k) if k < len(rows) else np.arange(len(rows))
        existing[c] = rows[sel].copy()
    return MemoryBuffer(buf.capacity_per_class, tuple(sorted(existing.items())))


def buffer_contents(buf: MemoryBuffer) -> tuple[np.ndarray, np.ndarray] | None:
    if not buf.store:
        return None
    xs = np.concatenate([rows for _, rows in buf.store])
    ys = np.concatenate([np.full(len(rows), c, dtype=np.int64) for c, rows in buf.store])
    return xs, ys


class DistillObjective(ObjectiveOracle):
    """Cross-entropy on the full head plus temperature-softened KL to the
    previous model's distribution, restricted to old classes. Both terms
    carry coefficient 1.

    Its gradient, its exact HVP and its exact Hessian trace go through the
    current model's entries with this objective's logit error and logit
    curvature (``_curvature``); the KL term adds
    (q - p) / (T n) to the old-class block of the error and
    (diag(q) - q q^T) Rz / (T^2 n) to that block of the curvature, for the
    softened current distribution q and the old model's p. On a seed stack
    ``theta_old`` is the stack of the seeds' previous parameters.
    """

    def __init__(self, oracle: MlpOracle, theta_old: ParamVector, temperature: float = 2.0):
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        n_old = theta_old.manifest[-1].shape[0]
        if n_old > oracle.n_classes:
            raise ValueError("old head is wider than the current head")
        self.base = oracle
        self.dim = oracle.dim
        self.n_old = n_old
        self.old_oracle = oracle.with_head(n_old)
        self.theta_old = theta_old
        self.temperature = float(temperature)
        self._probs_batch: Batch | None = None
        self._probs: np.ndarray | None = None

    def _old_probs(self, batch: Batch) -> np.ndarray:
        """Old model's softened distribution on ``batch``; kept for the last
        batch object, since an optimizer step queries one batch several times."""
        if self._probs_batch is not batch:
            z_old = self.old_oracle.logits(self.theta_old, batch.x)
            self._probs = _softmax(z_old / self.temperature)
            self._probs.setflags(write=False)
            self._probs_batch = batch
        return self._probs

    def select_rows(self, theta, batch, rows):
        sub = DistillObjective(self.base, self.theta_old._adopt(self.theta_old.data[rows]),
                               self.temperature)
        sub_theta, sub_batch = self.base._keep_rows(theta, batch, rows, self, sub)
        if self._probs_batch is batch:
            sub._probs, sub._probs_batch = self._probs[rows], sub_batch
            sub._probs.setflags(write=False)
        return sub, sub_theta, sub_batch

    def loss(self, theta, batch=None):
        ce, z = self.base._loss_and_logits(theta, batch)
        p = self._old_probs(batch)
        q = _softmax(z[..., : self.n_old] / self.temperature)
        kl = np.mean((p * (np.log(p) - np.log(q))).sum(axis=-1), axis=-1)
        return _scalar(ce + kl)

    def grad(self, theta, batch=None) -> ParamVector:
        def output_error(z):  # the old model is a separate oracle, so it may run here
            G, lse = _ce_output_error(z, batch.y)
            q = _softmax(z[..., : self.n_old] / self.temperature)
            G[..., : self.n_old] += (q - self._old_probs(batch)) / (self.temperature * batch.n)
            return G, lse

        return self.base.grad_from_output_error(theta, batch, output_error, owner=self)

    def _curvature(self, z, lse, u):
        """Logit-space Hessian of this objective applied to u (the
        ``curvature`` callback of the base oracle's entries)."""
        h = _ce_curvature(z, lse, u)
        k, t = self.n_old, self.temperature
        jvp = _softmax_jvp(_softmax(z[..., :k] / t), u[..., :k])
        h[..., :k] += jvp / (t * t * z.shape[-2])
        return h

    def hvp(self, theta, v, batch=None) -> ParamVector:
        return self.base.hvp_from_curvature(theta, v, batch, self, self._curvature)

    def hessian_trace(self, theta, batch=None) -> float:
        return self.base.trace_from_curvature(theta, batch, self, self._curvature)


def wa_align(w_old: np.ndarray, w_new: np.ndarray) -> float:
    """Ratio of mean old-class to mean new-class head weight-row norms."""
    if len(w_old) == 0 or len(w_new) == 0:
        raise ValueError("both class groups must be nonempty")
    mean_old = float(np.mean(np.linalg.norm(w_old, axis=1)))
    mean_new = float(np.mean(np.linalg.norm(w_new, axis=1)))
    if mean_new == 0:
        raise ValueError("new-class weights have zero mean norm")
    return mean_old / mean_new


def scale_new_logits(logits: np.ndarray, n_old: int, gamma: float) -> np.ndarray:
    out = logits.copy()
    out[:, n_old:] *= gamma
    return out


def grow_head(theta: ParamVector, new_classes: int, rng: SeededRng) -> ParamVector:
    """Widen the final (W, b) pair by new_classes rows.

    Old weights are preserved bit-exactly; new weight rows are seeded with the
    init scale 1/sqrt(fan_in) and new biases are zero.
    """
    if new_classes < 1:
        raise ValueError("must grow by at least one class")
    if len(theta.manifest) < 2:
        raise ValueError("manifest does not end with a head (W, b) pair")
    w_seg, b_seg = theta.manifest[-2], theta.manifest[-1]
    if len(w_seg.shape) != 2 or len(b_seg.shape) != 1 or w_seg.shape[0] != b_seg.shape[0]:
        raise ValueError("manifest does not end with a head (W, b) pair")
    W = theta.view(w_seg.name)
    b = theta.view(b_seg.name)
    n_out, fan_in = W.shape
    new_rows = rng.normal(0.0, 1.0 / math.sqrt(fan_in), (new_classes, fan_in))
    front = theta.data[: w_seg.offset]
    data = np.concatenate([front, W.ravel(), new_rows.ravel(), b, np.zeros(new_classes)])
    grown_w = Segment(w_seg.name, w_seg.offset, (n_out + new_classes, fan_in))
    grown_b = Segment(b_seg.name, w_seg.offset + grown_w.size, (n_out + new_classes,))
    return ParamVector(data, theta.manifest[:-2] + (grown_w, grown_b))


@dataclass(frozen=True)
class GpmState:
    """Orthonormal basis of past-task representation space with significances."""

    basis: np.ndarray          # (d_repr, r), orthonormal columns
    significance: np.ndarray   # (r,), entries in [0, 1]
    energy_threshold: float
    layer: int

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


def _energy_rank(singulars: np.ndarray, captured: float, total: float, threshold: float) -> int:
    """Smallest number of new directions whose energy reaches the threshold."""
    target = threshold * total * (1.0 - 1e-12)
    if captured >= target:
        return 0
    cum = captured + np.cumsum(singulars**2)
    return int(np.searchsorted(cum, target) + 1)


def gpm_extract_basis(oracle: MlpOracle, theta: ParamVector, sample_batch: Batch,
                      energy_threshold: float, layer: int | None = None) -> GpmState:
    """SVD basis of the designated layer's input representations.

    This is ``gpm_update_basis`` from an empty basis: it keeps the smallest
    rank whose squared singular values reach the energy threshold, with
    significances at 1.
    """
    if not 0.0 < energy_threshold <= 1.0:
        raise ValueError("energy_threshold must lie in (0, 1]")
    if layer is None:
        layer = oracle.n_layers - 1
    if not 0 <= layer < oracle.n_layers:
        raise ValueError(f"layer {layer} out of range")
    width = theta.segment(f"W{layer}").shape[1]
    empty = GpmState(np.zeros((width, 0)), np.zeros(0), energy_threshold, layer)
    state = gpm_update_basis(empty, oracle, theta, sample_batch)
    if state.rank == 0:
        raise ValueError("rank-0 representation matrix")
    return state


def gpm_update_basis(state: GpmState, oracle: MlpOracle, theta: ParamVector,
                     sample_batch: Batch) -> GpmState:
    """Merge new-task directions: SVD of the residual outside the current span."""
    R = oracle.representations(theta, sample_batch.x, state.layer).T
    total = float(np.linalg.norm(R) ** 2)
    if total == 0:
        return state
    proj = state.basis.T @ R
    captured = float(np.linalg.norm(proj) ** 2)
    resid = R - state.basis @ proj
    U, s, _ = np.linalg.svd(resid, full_matrices=False)
    keep = s > 1e-12 * max(s[0], 1e-300)
    U, s = U[:, keep], s[keep]
    r_new = min(_energy_rank(s, captured, total, state.energy_threshold), U.shape[1])
    if r_new == 0:
        return state
    return GpmState(
        basis=np.hstack([state.basis, U[:, :r_new]]),
        significance=np.concatenate([state.significance, np.ones(r_new)]),
        energy_threshold=state.energy_threshold,
        layer=state.layer,
    )


def gpm_project(state: GpmState, grad: ParamVector) -> tuple[ParamVector, float]:
    """Apply (I - M diag(sig) M^T) to the designated W block, identity elsewhere.

    Returns the projected gradient and the norm of the residual component
    still inside span(M) (zero up to float error when significance is 1).
    """
    name = f"W{state.layer}"
    G = grad.view(name)
    proj_block = G - ((G @ state.basis) * state.significance) @ state.basis.T
    seg = grad.segment(name)
    flat = grad.data.copy()
    flat[seg.offset : seg.offset + seg.size] = proj_block.ravel()
    in_span = float(np.linalg.norm(proj_block @ state.basis))
    return grad._adopt(flat), in_span


def _significance_sensitivity(oracle, theta, batch, states: list, g_c: ParamVector,
                              eta2: float) -> list[np.ndarray]:
    """d L(theta') / d sig_j for the projected step theta' = theta - eta2 * P(g_c),
    for each seed of the stack with its own basis ``states[i]``.

    theta' moves with significance j by eta2 * (G m_j) m_j^T on the projected
    block (G is g_c's block, m_j basis column j), so one gradient at theta'
    gives every sensitivity exactly: eta2 * sum_rows (G m_j) * (grad_W L(theta') m_j).
    """
    rows = unstack(g_c)
    projected = [gpm_project(state, row)[0] for state, row in zip(states, rows)]
    g_after = oracle.grad(axpy(-eta2, restack(theta, projected), theta), batch)
    _require_finite(g_after.data, "post-step gradient")
    sens = []
    for state, row, after in zip(states, rows, unstack(g_after)):
        name = f"W{state.layer}"
        GM = row.view(name) @ state.basis
        sens.append(eta2 * (GM * (after.view(name) @ state.basis)).sum(axis=0))
    return sens


class GpmStepper(Stepper):
    """Gradient projection wrapped around any descent stepper.

    Until a basis exists (first task) it is the inner stepper. With a basis it
    takes the inner direction d and projects g_c: d itself, or, when d is a
    C-Flat combined direction, the gradient at the neighborhood point along d.
    Significances adapt by loss sensitivity (eta1; one more gradient per
    step), and the step is theta - eta2 * P(g_c), with eta2 defaulting to the
    learning rate.

    On a seed stack (an inner ``SeedGroup``) ``gpm_states`` holds one basis
    per seed, and every seed projects with its own, row by row, since ranks
    differ; the gradients stay stacked. The harness gives every seed its
    basis at the same task boundary.
    """

    def __init__(self, inner: DescentStepper, eta1: float, eta2: float | None):
        self.inner = inner
        self.eta1 = eta1
        self.eta2 = eta2
        self.gpm_states: list[GpmState | None] = [None] * len(inner.gates())

    def prepare(self, total_steps: int):
        self.inner.prepare(total_steps)

    def reset_task(self):
        self.inner.reset_task()

    def step(self, oracle, theta, batch, cfg, row=None):
        d, row = self.inner.direction(oracle, theta, batch, cfg, row)
        states = self.gpm_states
        if all(state is None for state in states):
            return axpy(-cfg.eta, d, theta), row
        g_c = d
        flat = np.flatnonzero(row["used_cflat"])
        if flat.size:
            g_c = _ascent_gradient(oracle, theta, batch, d, cfg, flat)
            row["grad_evals"][flat] += 1
        eta2 = self.eta2 if self.eta2 is not None else cfg.eta
        if self.eta1 != 0.0:
            sens = _significance_sensitivity(oracle, theta, batch, states, g_c, eta2)
            for i, (state, row_sens) in enumerate(zip(states, sens)):
                sig = np.clip(state.significance - self.eta1 * row_sens, 0.0, 1.0)
                states[i] = replace(state, significance=sig)
            row["grad_evals"] += 1
        projected = [gpm_project(state, vec) for state, vec in zip(states, unstack(g_c))]
        row["gpm_in_span"] = [in_span for _, in_span in projected]
        row["gpm_src_norm"] = norm2(g_c)
        proj = restack(theta, [vec for vec, _ in projected])
        return axpy(-eta2, proj, theta), row


@dataclass(frozen=True)
class CLConfig:
    """Training knobs shared by every method/optimizer combination."""

    hidden: tuple[int, ...] = (32,)
    activation: str = "tanh"
    l2: float = 0.0
    epochs: int = 8
    batch_size: int = 32
    milestones: tuple[int, ...] = ()
    lr_decay: float = 0.1
    memory_capacity: int = 20
    temperature: float = 2.0
    gpm_energy_threshold: float = 0.95
    gpm_eta1: float = 0.0
    gpm_eta2: float | None = None
    gpm_sample: int = 256
    hybrid_p: float = 0.5
    hybrid_ordering: str = "cflat_last"
    proxy: ProxyState = ProxyState()
    proxy_reset_per_task: bool = True

    def __post_init__(self):
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be >= 1")
        if self.l2 < 0:
            raise ValueError("l2 must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.memory_capacity < 0:
            raise ValueError("memory_capacity must be nonnegative")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if not 0.0 < self.gpm_energy_threshold <= 1.0:
            raise ValueError("gpm_energy_threshold must lie in (0, 1]")
        if self.gpm_eta1 < 0:
            raise ValueError("gpm_eta1 must be nonnegative")
        if self.gpm_eta2 is not None and self.gpm_eta2 < 0:
            raise ValueError("gpm_eta2 must be nonnegative")
        if self.gpm_sample < 1:
            raise ValueError("gpm_sample must be >= 1")
        if not 0.0 <= self.hybrid_p <= 1.0:
            raise ValueError("hybrid_p must lie in [0, 1]")


@dataclass
class SeedResult:
    """One seed's record of a run. ``trace`` is the seed's column of the
    run's step record (``optim.step_record``): one cell per step of every
    task, in step order. ``examples`` and ``train_seconds`` are group values:
    every seed of a lockstep group trains on as many examples, and each gets
    the group's training time divided by its number of seeds."""

    seed: int
    matrix: list[list[float]]
    pre_train_acc: list
    baseline_acc: list[float]
    trace: np.ndarray | None
    examples: int
    train_seconds: float
    final_theta: ParamVector
    gammas: list


def _accuracy(oracle: MlpOracle, theta: ParamVector, x: np.ndarray, y: np.ndarray,
              gamma: float | None = None, new_block_start: int | None = None) -> float:
    if len(y) == 0:
        raise ValueError("empty test split")
    z = oracle.logits(theta, x)
    if gamma is not None and new_block_start is not None:
        z = scale_new_logits(z, new_block_start, gamma)
    return float(np.mean(np.argmax(z, axis=1) == y))


def run_cl_experiment(stream: TaskStream, method: str, optimizer: str,
                      cfg: OptimConfig, cl: CLConfig, seeds) -> list[SeedResult]:
    """Run the full incremental protocol once per seed, all seeds in lockstep.

    Every optimizer step steps all seeds' parameters as one stack (see
    ``train_epochs``); what differs between seeds stays per seed: the
    initialization, head growth, batch order, replay buffer, GPM basis, WA's
    gamma and evaluation. Each seed's ``SeedResult`` is made before the
    first task and filled in place after each one, and is bit-identical to a
    call with that seed alone; the tasks' step records, their task columns
    set, join into one whose columns are the seeds' traces. After each task
    the model is evaluated on every seen task's test split; before each new
    task (head already grown) its test split is evaluated for forward
    transfer. Throughput counts training examples per wall second; each
    seed's ``train_seconds`` is the group's training time divided by the
    number of seeds. Divergence of any
    seed aborts the run: the ``DivergenceError`` from ``train_epochs`` gets
    the task and the first seed to diverge in step order, its message is
    prefixed with both, and it is re-raised.
    """
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    tasks = stream.tasks
    T = len(tasks)
    S = len(seeds)
    d_in = tasks[0].train_x.shape[1]
    total_classes = sum(t.n_new for t in tasks)
    roots = [SeededRng(seed) for seed in seeds]

    oracle = MlpOracle(MlpSpec(d_in, cl.hidden, tasks[0].n_new, cl.activation, cl.l2))
    theta = stack([oracle.init_theta(root.spawn(_STREAM_INIT)) for root in roots])
    # untrained full-head reference for forward transfer
    ref_oracle = MlpOracle(MlpSpec(d_in, cl.hidden, total_classes, cl.activation, cl.l2))
    results = []
    for seed, root, row in zip(seeds, roots, unstack(theta)):
        ref_theta = ref_oracle.init_theta(root.spawn(_STREAM_BASELINE))
        baseline = [_accuracy(ref_oracle, ref_theta, t.test_x, t.test_y) for t in tasks]
        results.append(SeedResult(seed, [], [None], baseline, None, 0, 0.0, row, [None] * T))
    stepper = SeedGroup([
        make_stepper(optimizer, proxy=cl.proxy, proxy_reset_per_task=cl.proxy_reset_per_task,
                     hybrid_p=cl.hybrid_p, hybrid_ordering=cl.hybrid_ordering)
        for _ in seeds
    ])
    if method == "gpm":
        stepper = GpmStepper(stepper, cl.gpm_eta1, cl.gpm_eta2)

    buffers = [MemoryBuffer(cl.memory_capacity) for _ in seeds]
    records = []
    theta_prev: ParamVector | None = None
    examples = 0
    train_seconds = 0.0
    n_old = 0

    for t, task in enumerate(tasks):
        if t > 0:
            theta = stack([grow_head(row, task.n_new, root.spawn(_STREAM_GROW, t))
                           for row, root in zip(unstack(theta), roots)])
            oracle = oracle.with_head(n_old + task.n_new)
            for result, row in zip(results, unstack(theta)):
                result.pre_train_acc.append(_accuracy(oracle, row, task.test_x, task.test_y))
        stepper.reset_task()

        data_x = np.stack([task.train_x] * S)
        data_y = np.stack([task.train_y] * S)
        if method in ("replay", "icarl", "wa", "gpm") and buffers[0].store:
            memories = [buffer_contents(buffer) for buffer in buffers]
            data_x = np.stack([np.concatenate([task.train_x, mx]) for mx, _ in memories])
            data_y = np.stack([np.concatenate([task.train_y, my]) for _, my in memories])

        train_oracle: ObjectiveOracle = oracle
        if method in ("icarl", "wa") and theta_prev is not None:
            train_oracle = DistillObjective(oracle, theta_prev, cl.temperature)

        start = time.perf_counter()
        try:
            theta, record = train_epochs(
                train_oracle, theta, data_x, data_y, cfg, stepper,
                cl.epochs, cl.batch_size, [root.spawn(_STREAM_SHUFFLE, t) for root in roots],
                cl.milestones, cl.lr_decay,
            )
        except DivergenceError as err:
            err.task, err.seed = t, seeds[err.row or 0]
            err.args = (f"divergence in task {t} at step {err.step} of seed {err.seed}: {err}",)
            raise
        train_seconds += time.perf_counter() - start
        examples += len(record) * cl.batch_size
        record["task"] = t
        records.append(record)

        rows = unstack(theta)
        if method == "gpm":
            k = min(cl.gpm_sample, len(task.train_y))
            sample = Batch(task.train_x[:k], task.train_y[:k])
            stepper.gpm_states = [
                gpm_extract_basis(oracle, row, sample, cl.gpm_energy_threshold) if t == 0
                else gpm_update_basis(state, oracle, row, sample)
                for state, row in zip(stepper.gpm_states, rows)
            ]

        n_new_start = n_old
        n_old += task.n_new
        for i, (result, row) in enumerate(zip(results, rows)):
            gamma = None
            if method == "wa" and t > 0:
                W = row.view(oracle.head_weight_name)
                gamma = result.gammas[t] = wa_align(W[:n_new_start], W[n_new_start:])
            buffers[i] = buffer_update(buffers[i], task.train_x, task.train_y,
                                       roots[i].spawn(_STREAM_BUFFER, t))
            result.matrix.append([
                _accuracy(oracle, row, tasks[j].test_x, tasks[j].test_y, gamma=gamma,
                          new_block_start=n_new_start if gamma is not None else None)
                for j in range(t + 1)
            ])
        theta_prev = theta

    trace = np.concatenate(records)
    for i, (result, row) in enumerate(zip(results, unstack(theta))):
        result.examples, result.train_seconds, result.final_theta = examples, train_seconds / S, row
        result.trace = trace[:, i]
    return results
