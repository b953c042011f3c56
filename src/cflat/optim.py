"""Optimizer family: SGD, SAM, C-Flat, hybrid mixing, and C-Flat++.

A C-Flat step combines the loss gradient taken at a nearby ascent point
(zeroth-order sharpness) with a Hessian-vector-product estimate of the
neighborhood gradient-norm growth (first-order flatness):

    g   = grad(theta)
    g0  = grad(theta + rho * g / (||g|| + EPS))
    h   = hvp(theta, g / (||g|| + EPS))
    th1 = theta + rho * h / (||h|| + EPS)
    g1  = hvp(th1, grad(th1) / (||grad(th1)|| + EPS))
    theta' = theta - eta * (g0 + lam * g1)

Both products are exact (the oracle's ``hvp``). Each is taken right after the
gradient at its point (h before g0), so an oracle that keeps its last gradient
pass (``MlpOracle``) runs 3 forward passes and 2 R-op passes per step; the cost
accounting still counts one gradient evaluation per product.

C-Flat++ applies that update selectively: only when the batch squared
gradient norm exceeds a sigmoidal sharpness proxy A / (1 + e^{-k(i - i0)}),
whose bound A adapts by error feedback A <- A - eta0 * E.

Every descent optimizer shares one step body, ``DescentStepper.direction``:
it checks theta, takes the gradient and the loss, writes them into the step's
row of the step record, and asks the optimizer's gate ``use_cflat(row, i)``
whether d is the C-Flat direction or the gradient. SGD never says yes, C-Flat
always does, C-Flat++ asks its proxy (advancing it) and the hybrid reads its
plan; SAM says no and then takes the gradient at the ascent point. ``step``
is the plain step theta - eta * d. Steppers are the only step API:
``make_stepper`` builds one by name, ``train_epochs`` drives one, and a
projection method (continual.GpmStepper) wraps any stepper's direction
instead of stepping. A stepper holds its own settings (C-Flat++'s proxy, the
hybrid's share and ordering) and cross-step state (C-Flat++'s bound and
counter i, the hybrid's plan), which ``prepare``, the one hook
``train_epochs`` calls before a run's first step, (re)starts.

A training run's ``step_record`` is one structured array of shape (steps, S)
(a 1-D theta is a stack of one) whose fields are its columns. Whoever knows a
cell writes it: the body the loss, squared gradient norm and cost, C-Flat++'s
gate its proxy, the projection its gpm_* cells and extra gradients,
``train_epochs`` the epoch column and the continual harness the task column.

Seed lockstep: the body also steps a stack of S seeds' parameters (theta of
shape (S, d), see numcore) on a stack of S batches in one pass per oracle
call. A ``SeedGroup`` holds one stepper per seed, which is that row's gate and
cross-step state; the body calls each row's gate once per step, in row order,
and writes every row's cells. Work beyond the gradient runs on the rows
that need it only (the C-Flat direction on the rows whose gate is on, the
ascent gradient on SAM's rows), through the objective's ``select_rows``, so
no row pays for, or fails on, another row's branch. Every row is
bit-identical to the same step on that seed alone. A non-finite value raises
DivergenceError naming the first row that has one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numcore import ParamVector, axpy, norm2
from .objective import Batch, ObjectiveOracle

# The guard in every normalisation v / (||v|| + EPS): a zero vector stays zero.
EPS = 1e-12

__all__ = [
    "OptimConfig",
    "EPS",
    "STEP_FIELDS",
    "step_record",
    "DivergenceError",
    "sam_perturb",
    "ascent_point",
    "rho_schedule",
    "proxy_value",
    "hybrid_step_plan",
    "train_epochs",
    "Stepper",
    "DescentStepper",
    "SeedGroup",
    "SgdStepper",
    "SamStepper",
    "CflatStepper",
    "CflatPPStepper",
    "HybridStepper",
    "make_stepper",
    "STEPPERS",
    "OPTIMIZER_NAMES",
    "HYBRID_ORDERINGS",
]


class DivergenceError(RuntimeError):
    """Raised when a loss or gradient turns non-finite.

    Carries the step index within its training run, the task and the seed
    (set by the continual harness), the stack row that failed (0 for a lone
    vector), that row's loss and gradient norm of the last step that
    finished (None when the run failed on its first step), and the row's
    optimizer and sweep cell (set by the CLI; None elsewhere).
    """

    def __init__(self, message: str, step: int | None = None, task: int | None = None,
                 last_loss: float | None = None, grad_norm: float | None = None,
                 row: int | None = None, seed: int | None = None):
        super().__init__(message)
        self.step = step
        self.task = task
        self.last_loss = last_loss
        self.grad_norm = grad_norm
        self.row = row
        self.seed = seed
        self.optimizer = self.cell = None


@dataclass(frozen=True)
class OptimConfig:
    """Learning rate, neighborhood radius, trade-off, and the step-size schedule.

    The rate starts at eta, multiplies by lr_decay at each milestone epoch
    and is floored at eta_min; the radius follows it on the line from
    (eta_min, rho_min) to (eta, rho) (``rho_schedule``). rho_min defaults to
    rho, a constant radius.
    """

    eta: float = 0.5
    rho: float = 0.2
    lam: float = 0.2
    rho_min: float | None = None
    eta_min: float = 0.0
    milestones: tuple[int, ...] = ()
    lr_decay: float = 0.1

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.rho_min is None:
            object.__setattr__(self, "rho_min", self.rho)
        if not self.rho_min <= self.rho:
            raise ValueError("need rho_min <= rho")
        if not self.eta_min <= self.eta:
            raise ValueError("need eta_min <= eta")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")


# The step record's columns in trace.csv order (the step index goes after epoch).
# grad_evals counts direct gradient evaluations plus one per Hessian-vector
# product, so a C-Flat direction counts 3 + 2 = 5.
STEP_FIELDS = np.dtype([
    ("task", "i8"), ("epoch", "i8"), ("loss", "f8"), ("sq_grad_norm", "f8"),
    ("used_cflat", "?"), ("proxy_value", "f8"), ("grad_evals", "i8"), ("hvp_evals", "i8"),
    ("gpm_in_span", "f8"), ("gpm_src_norm", "f8"),
])


def step_record(steps: int, seeds: int = 1) -> np.ndarray:
    """A blank record of ``steps`` rows and ``seeds`` columns: zero cells, and
    NaN, which marks an empty cell, in proxy_value and the gpm_* fields."""
    record = np.zeros((steps, seeds), STEP_FIELDS)
    record[["proxy_value", "gpm_in_span", "gpm_src_norm"]] = np.nan
    return record


def _require_finite(arr: np.ndarray, what: str, rows=None) -> None:
    """DivergenceError naming the first row of ``arr`` (a vector or a stack)
    with a non-finite entry; ``rows`` maps a sub-stack's rows to the stack's."""
    if not np.isfinite(arr).all():
        row = int(np.flatnonzero(~np.isfinite(arr).all(axis=-1))[0])
        raise DivergenceError(f"non-finite {what} encountered",
                              row=row if rows is None else int(rows[row]))


def _col(norm):
    """A stack's row norms as a column that divides each row; a float as it is."""
    return norm[:, None] if isinstance(norm, np.ndarray) else norm


def _narrow(oracle, theta: ParamVector, batch, rows: list, *vectors: ParamVector) -> tuple:
    """The objective, theta, batch and ``vectors`` on the stack ``rows`` only;
    as they are when ``rows`` is every row (always so for a 1-D theta)."""
    if len(rows) == theta.stack_size:
        return (oracle, theta, batch, *vectors)
    index = np.asarray(rows)
    return (*oracle.select_rows(theta, batch, index),
            *(v._adopt(v.data[index]) for v in vectors))


def _merge(full: ParamVector, rows: list, part: ParamVector) -> ParamVector:
    """``full`` with its stack ``rows`` replaced by the rows of ``part``."""
    if part.data.shape == full.data.shape:
        return part
    data = full.data.copy()
    data[rows] = part.data
    return full._adopt(data)


def sam_perturb(g: ParamVector, rho: float) -> ParamVector:
    """Ascent perturbation rho * g / (||g|| + EPS), row by row on a stack;
    zero gradient gives zero."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return g._adopt(rho * g.data / (_col(norm2(g)) + EPS))


def ascent_point(theta: ParamVector, d: ParamVector, cfg: OptimConfig) -> ParamVector:
    """theta + rho * d / (||d|| + EPS): the neighborhood point along d."""
    return axpy(1.0, sam_perturb(d, cfg.rho), theta)


def _ascent_gradient(oracle, theta, batch, d: ParamVector, cfg, rows: list) -> ParamVector:
    """``d`` with its stack ``rows`` replaced by the gradient at the
    neighborhood point along them."""
    sub_oracle, sub_theta, sub_batch, sub_d = _narrow(oracle, theta, batch, rows, d)
    g0 = sub_oracle.grad(ascent_point(sub_theta, sub_d, cfg), sub_batch)
    _require_finite(g0.data, "perturbed gradient", rows)
    return _merge(d, rows, g0)


def _cflat_direction(oracle, theta, batch, g: ParamVector, cfg, rows=None) -> ParamVector:
    """Combined direction g0 + lam*g1 given the already-computed gradient at theta.

    h is taken first, while the gradient pass at theta is the oracle's last.
    ``rows`` maps these rows to the stack's for divergence.
    """
    ghat = g._adopt(g.data / (_col(norm2(g)) + EPS))
    h = oracle.hvp(theta, ghat, batch)
    _require_finite(h.data, "hvp", rows)

    g0 = oracle.grad(ascent_point(theta, g, cfg), batch)
    _require_finite(g0.data, "perturbed gradient", rows)

    theta1 = ascent_point(theta, h, cfg)
    g_at1 = oracle.grad(theta1, batch)
    _require_finite(g_at1.data, "gradient at flatness point", rows)
    ghat1 = g_at1._adopt(g_at1.data / (_col(norm2(g_at1)) + EPS))
    g1 = oracle.hvp(theta1, ghat1, batch)
    _require_finite(g1.data, "hvp at flatness point", rows)
    return g0._adopt(g0.data + cfg.lam * g1.data)


def rho_schedule(cfg: OptimConfig, eta_i: float) -> float:
    """Radius tied linearly to the current learning rate ``eta_i``; ``cfg`` is
    the run's config, which ``train_epochs`` passes.

    rho_i = rho_min + (rho - rho_min) / (eta - eta_min) * (eta_i - eta_min);
    a degenerate eta range (eta == eta_min) means a constant schedule at rho.
    """
    if cfg.eta == cfg.eta_min:
        return cfg.rho
    if not cfg.eta_min <= eta_i <= cfg.eta:
        raise ValueError(f"eta_i={eta_i} outside [{cfg.eta_min}, {cfg.eta}]")
    slope = (cfg.rho - cfg.rho_min) / (cfg.eta - cfg.eta_min)
    return cfg.rho_min + slope * (eta_i - cfg.eta_min)


def proxy_value(A: float, k: float, i0: int, i: int) -> float:
    """Sigmoidal sharpness proxy A / (1 + e^{-k(i - i0)}) at bound ``A`` and step ``i``."""
    x = -k * (i - i0)
    if x > 700.0:  # exp would overflow; the sigmoid is ~0 here
        return 0.0
    return A / (1.0 + math.exp(x))


HYBRID_ORDERINGS = ("cflat_first", "cflat_last")


def hybrid_step_plan(total_steps: int, p: float, ordering: str) -> np.ndarray:
    """Boolean plan with round(p * total_steps) C-Flat entries.

    "cflat_first" places them as a contiguous prefix, "cflat_last" as a
    suffix; rounding is round-half-to-even.
    """
    if total_steps < 0:
        raise ValueError("total_steps must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if ordering not in HYBRID_ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    k = round(p * total_steps)
    plan = np.zeros(total_steps, dtype=bool)
    if ordering == "cflat_first":
        plan[:k] = True
    elif k > 0:
        plan[total_steps - k :] = True
    return plan


class Stepper:
    """Per-run optimizer wrapper: owns any cross-step state."""

    def prepare(self, total_steps: int) -> None:
        """The one hook that starts a training run: ``train_epochs`` calls it
        with the planned step count before the run's first step."""

    def step(self, oracle, theta, batch, cfg, row=None):
        raise NotImplementedError


class DescentStepper(Stepper):
    """A stepper whose update is theta - eta * d for a per-step direction d.

    ``direction`` is the one step body (see the module docstring); an
    optimizer overrides its gate ``use_cflat``, which the body calls once per
    step and row, in step order, and sets ``ascent_gradient`` when d is the
    gradient at the ascent point instead. ``direction`` writes the step's
    cells into ``row``, the step's row of a step record (a fresh one-step
    record when None), returns (d, row) and advances any cross-step state, so
    a wrapper (such as gradient projection) can use d without stepping.
    """

    ascent_gradient = False

    def gates(self) -> tuple["DescentStepper", ...]:
        """The stepper that gates each row of the stack: this one, for one seed."""
        return (self,)

    def use_cflat(self, row: np.ndarray, i: int) -> bool:
        """Whether seed ``i`` takes the C-Flat direction, given the step's record
        ``row`` with its loss and squared gradient norm written; never, here."""
        return False

    def direction(self, oracle, theta, batch, cfg, row=None) -> tuple[ParamVector, np.ndarray]:
        gates = self.gates()
        if theta.stack_size != len(gates):
            raise ValueError(f"theta of shape {theta.data.shape} needs one gate per row, "
                             f"got {len(gates)}")
        if row is None:
            row = step_record(1, len(gates))[0]
        _require_finite(theta.data, "parameters")
        # The gradient comes before the loss, so an oracle that keeps its last
        # forward pass (MlpOracle) reads the loss from it.
        g = oracle.grad(theta, batch)
        loss = oracle.loss(theta, batch)
        _require_finite(np.reshape(loss, (-1, 1)), "loss")
        row["loss"] = loss
        # Python's float power, which rounds differently from numpy's square
        row["sq_grad_norm"] = [norm ** 2 for norm in np.reshape(norm2(g), -1).tolist()]
        # a non-finite gradient, or a finite one whose norm overflows (C-Flat++'s A feeds on it)
        _require_finite(np.reshape(row["sq_grad_norm"], (-1, 1)), "squared gradient norm")
        row["grad_evals"] = 1
        d = g
        flat = [i for i, gate in enumerate(gates) if gate.use_cflat(row, i)]
        if flat:
            sub = _narrow(oracle, theta, batch, flat, g)
            d = _merge(d, flat, _cflat_direction(*sub, cfg, flat))
            row["used_cflat"][flat] = True
            row["grad_evals"][flat] = 5
            row["hvp_evals"][flat] = 2
        ascent = [i for i, gate in enumerate(gates) if gate.ascent_gradient]
        if ascent:
            d = _ascent_gradient(oracle, theta, batch, d, cfg, ascent)
            row["grad_evals"][ascent] = 2
        return d, row

    def step(self, oracle, theta, batch, cfg, row=None):
        d, row = self.direction(oracle, theta, batch, cfg, row)
        return axpy(-cfg.eta, d, theta), row


class SgdStepper(DescentStepper):
    """d = grad(theta): the default gate."""


class SamStepper(DescentStepper):
    """d = grad(theta + ascent perturbation)."""

    ascent_gradient = True


class CflatStepper(DescentStepper):
    """d = g0 + lam * g1 (see module docstring) on every step."""

    def use_cflat(self, row, i):
        return True


class CflatPPStepper(DescentStepper):
    """The C-Flat direction when the sharpness proxy gates it on, else the gradient.

    Its settings are the initial bound A, curvature k, inflection i0 and
    feedback rate eta0 of the proxy. The gate adapts the bound ``bound`` and
    counter ``i``, from A and 1: E = proxy_value - ||g||^2 decides the branch
    (C-Flat when E <= 0), the bound updates to bound - eta0 * E either way,
    and i advances. ``prepare`` restarts both unless ``reset_per_task`` is
    off, which carries them across runs.
    """

    def __init__(self, A: float = 5.0, k: float = 0.01, i0: int = 80, eta0: float = 5e-3,
                 reset_per_task: bool = True):
        if not math.isfinite(A):
            raise ValueError("A must be finite")
        self.A, self.k, self.i0, self.eta0, self.reset_per_task = A, k, i0, eta0, reset_per_task
        self.bound, self.i = A, 1

    def prepare(self, total_steps: int):
        if self.reset_per_task:
            self.bound, self.i = self.A, 1

    def use_cflat(self, row, i):
        value = row["proxy_value"][i] = proxy_value(self.bound, self.k, self.i0, self.i)
        feedback = value - float(row["sq_grad_norm"][i])
        self.bound -= self.eta0 * feedback
        self.i += 1
        if not math.isfinite(self.bound):
            raise DivergenceError("non-finite C-Flat++ bound encountered", row=i)
        return feedback <= 0


class HybridStepper(DescentStepper):
    """The C-Flat direction on the planned share of steps, the gradient
    elsewhere; a bad p or ordering fails here, before any run."""

    def __init__(self, p: float = 0.5, ordering: str = "cflat_last"):
        self.plan = hybrid_step_plan(0, p, ordering)
        self.p, self.ordering = p, ordering
        self.idx = 0

    def prepare(self, total_steps: int):
        self.plan = hybrid_step_plan(total_steps, self.p, self.ordering)
        self.idx = 0

    def use_cflat(self, row, i):
        on = bool(self.plan[self.idx]) if self.idx < len(self.plan) else False
        self.idx += 1
        return on


class SeedGroup(DescentStepper):
    """Steps a stack of seeds' parameters in lockstep: row i is gated by
    ``members[i]``, the stepper of seed i, which keeps that seed's cross-step
    state. ``prepare`` reaches every member."""

    def __init__(self, members):
        self.members = tuple(members)

    def gates(self):
        return self.members

    def prepare(self, total_steps: int):
        for member in self.members:
            member.prepare(total_steps)


# Optimizer name -> stepper class; a class's constructor takes its settings.
STEPPERS = {"sgd": SgdStepper, "sam": SamStepper, "cflat": CflatStepper,
            "cflat++": CflatPPStepper, "hybrid": HybridStepper}
OPTIMIZER_NAMES = tuple(STEPPERS)


def make_stepper(name: str, **settings) -> DescentStepper:
    """The stepper for one of OPTIMIZER_NAMES; ``settings`` go to its
    constructor, so a setting it does not take raises TypeError."""
    if name not in STEPPERS:
        raise ValueError(f"unknown optimizer {name!r}; expected one of {OPTIMIZER_NAMES}")
    return STEPPERS[name](**settings)


def train_epochs(
    oracle: ObjectiveOracle,
    theta: ParamVector,
    x: np.ndarray,
    y: np.ndarray,
    cfg: OptimConfig,
    stepper: Stepper,
    epochs: int,
    batch_size: int,
    rng,
) -> tuple[ParamVector, np.ndarray]:
    """Shuffled mini-batch training on ``cfg``'s step-size schedule.

    The learning rate multiplies by cfg.lr_decay at each epoch in
    cfg.milestones. Steps take it floored at cfg.eta_min, and the radius
    follows rho_schedule at that rate. The ragged tail of each
    epoch (fewer than batch_size rows) is dropped. ``x`` and ``y`` are checked
    once, as one ``Batch``, before any step; each step's batch is a row
    selection of the checked arrays. Returns the trained theta and the run's
    step record (``step_record``), of shape (steps, S), whose rows the
    stepper fills and whose epoch column is written here. Divergence aborts
    with the step index and the loss and gradient norm of the failing seed's
    last finished step, read from the record.

    A seed stack trains in lockstep: ``theta`` (S, d) with ``x`` (S, N, d_in),
    ``y`` (S, N), ``rng`` a sequence of S generators and a stepper with one
    gate per seed (``SeedGroup``). Each seed draws its batch order from its
    own generator and every step gathers the S batches in one index; a 1-D
    theta is a stack of one, so its record has one column.
    """
    stacked = theta.data.ndim == 2
    rngs = list(rng) if stacked else [rng]
    n = np.shape(y)[-1]
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {n}")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    data = Batch(x, y)
    x, y = data.x, data.y
    if x.shape[:-2] != theta.data.shape[:-1] or len(rngs) != theta.stack_size:
        raise ValueError(f"theta of shape {theta.data.shape} needs features with one "
                         f"leading row per seed and one rng per seed")
    seed_index = (np.arange(len(rngs))[:, None],) if stacked else ()
    steps_per_epoch = n // batch_size
    stepper.prepare(epochs * steps_per_epoch)

    record = step_record(epochs * steps_per_epoch, len(rngs))
    record["epoch"] = np.repeat(np.arange(epochs), steps_per_epoch)[:, None]
    eta = cfg.eta
    for epoch in range(epochs):
        if epoch in cfg.milestones:
            eta *= cfg.lr_decay
        eta_i = max(eta, cfg.eta_min)
        cfg_i = replace(cfg, eta=eta_i, rho=rho_schedule(cfg, eta_i))
        order = np.stack([r.permutation(n) for r in rngs]).reshape(theta.data.shape[:-1] + (n,))
        for b in range(steps_per_epoch):
            idx = (*seed_index, order[..., b * batch_size : (b + 1) * batch_size])
            batch = Batch._rows(x[idx], y[idx])
            step_idx = epoch * steps_per_epoch + b
            try:
                theta, _ = stepper.step(oracle, theta, batch, cfg_i, record[step_idx])
            except DivergenceError as err:
                err.step = step_idx
                if step_idx:
                    last = record[step_idx - 1, err.row or 0]
                    err.last_loss = float(last["loss"])
                    err.grad_norm = math.sqrt(last["sq_grad_norm"])
                raise
    return theta, record
