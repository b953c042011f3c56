"""Optimizer family: SGD, SAM, C-Flat, hybrid mixing, and C-Flat++.

A C-Flat step combines the loss gradient taken at a nearby ascent point
(zeroth-order sharpness) with a Hessian-vector-product estimate of the
neighborhood gradient-norm growth (first-order flatness):

    g   = grad(theta)
    g0  = grad(theta + rho * g / (||g|| + eps))
    h   = hvp(theta, g / (||g|| + eps))
    th1 = theta + rho * h / (||h|| + eps)
    g1  = hvp(th1, grad(th1) / (||grad(th1)|| + eps))
    theta' = theta - eta * (g0 + lam * g1)

C-Flat++ applies that update selectively: only when the batch squared
gradient norm exceeds a sigmoidal sharpness proxy A / (1 + e^{-k(i - i0)}),
whose bound A adapts by error feedback A <- A - eta0 * E.

Each optimizer is implemented once, as a DescentStepper whose ``direction``
returns the step's direction d with its StepStats (and advances the proxy or
the hybrid plan); its ``step`` is the plain step theta - eta * d. Steppers are
the only step API: ``make_stepper`` builds one by name, ``train_epochs`` drives
one, and a projection method (continual.GpmStepper) wraps any stepper's
direction instead of stepping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numcore import ParamVector, SeededRng, all_finite, axpy, norm2
from .objective import Batch, ObjectiveOracle

__all__ = [
    "OptimConfig",
    "ProxyState",
    "StepStats",
    "DivergenceError",
    "sam_perturb",
    "ascent_point",
    "rho_schedule",
    "proxy_value",
    "hybrid_step_plan",
    "train_epochs",
    "Stepper",
    "DescentStepper",
    "SgdStepper",
    "SamStepper",
    "CflatStepper",
    "CflatPPStepper",
    "HybridStepper",
    "make_stepper",
    "OPTIMIZER_NAMES",
]


class DivergenceError(RuntimeError):
    """Raised when a loss or gradient turns non-finite; carries the step index."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class OptimConfig:
    """Learning rate, neighborhood radius, trade-off, and scheduler bounds.

    With the default bounds (rho_min = rho_max = rho, eta_min = 0,
    eta_max = eta) the radius schedule is constant; setting rho_min < rho_max
    ties the radius linearly to the decayed learning rate.
    """

    eta: float = 0.1
    rho: float = 0.2
    lam: float = 0.2
    eps_guard: float = 1e-12
    rho_min: float | None = None
    rho_max: float | None = None
    eta_min: float | None = None
    eta_max: float | None = None

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.eps_guard <= 0:
            raise ValueError("eps_guard must be positive")
        if self.rho_min is None:
            object.__setattr__(self, "rho_min", self.rho)
        if self.rho_max is None:
            object.__setattr__(self, "rho_max", self.rho)
        if self.eta_min is None:
            object.__setattr__(self, "eta_min", 0.0)
        if self.eta_max is None:
            object.__setattr__(self, "eta_max", self.eta)
        if not self.rho_min <= self.rho <= self.rho_max:
            raise ValueError("need rho_min <= rho <= rho_max")
        if not self.eta_min <= self.eta <= self.eta_max:
            raise ValueError("need eta_min <= eta <= eta_max")


@dataclass(frozen=True)
class ProxyState:
    """Adaptive sharpness-proxy state: bound A, curvature k, inflection i0.

    The iteration counter starts at 1 and advances by one per step; only A is
    adapted by error feedback, k and i0 stay fixed.
    """

    A: float = 5.0
    k: float = 0.01
    i0: int = 80
    eta0: float = 5e-3
    i: int = 1

    def __post_init__(self):
        if not math.isfinite(self.A):
            raise ValueError("A must be finite")


@dataclass(frozen=True)
class StepStats:
    """Per-step bookkeeping.

    grad_evals follows the optimizer's cost accounting: direct gradient
    evaluations plus one per Hessian-vector product, so a C-Flat direction
    counts 3 + 2 = 5. epoch/task are filled in by the training loop and
    harness; the gpm_* fields only by projected steps.
    """

    loss: float
    sq_grad_norm: float
    used_cflat: bool = False
    proxy_value: float | None = None
    grad_evals: int = 0
    hvp_evals: int = 0
    epoch: int = 0
    task: int = 0
    gpm_in_span: float | None = None
    gpm_src_norm: float | None = None


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise DivergenceError(f"non-finite {what} encountered")


def _loss_and_grad(oracle: ObjectiveOracle, theta: ParamVector,
                   batch: Batch) -> tuple[float, ParamVector]:
    """Every step's prologue: finite theta, finite loss, finite gradient."""
    if not all_finite(theta):
        raise DivergenceError("parameters contain NaN/Inf")
    loss = oracle.loss(theta, batch)
    if not math.isfinite(loss):
        raise DivergenceError("non-finite loss")
    g = oracle.grad(theta, batch)
    _require_finite(g.data, "gradient")
    return loss, g


def sam_perturb(g: ParamVector, rho: float, eps_guard: float) -> ParamVector:
    """Ascent perturbation rho * g / (||g|| + eps); zero gradient gives zero."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return g.with_data(rho * g.data / (norm2(g) + eps_guard))


def ascent_point(theta: ParamVector, d: ParamVector, cfg: OptimConfig) -> ParamVector:
    """theta + rho * d / (||d|| + eps): the neighborhood point along d."""
    return axpy(1.0, sam_perturb(d, cfg.rho, cfg.eps_guard), theta)


def _sgd_direction(loss: float, g: ParamVector) -> tuple[ParamVector, StepStats]:
    return g, StepStats(loss=loss, sq_grad_norm=norm2(g) ** 2, grad_evals=1)


def _cflat_direction(oracle, theta, batch, cfg, loss: float, g: ParamVector):
    """Combined direction g0 + lam*g1 given the already-computed base gradient."""
    eps = cfg.eps_guard
    gnorm = norm2(g)

    g0 = oracle.grad(ascent_point(theta, g, cfg), batch)
    _require_finite(g0.data, "perturbed gradient")

    ghat = g.with_data(g.data / (gnorm + eps))
    h = oracle.hvp(theta, ghat, batch, base_grad=g)
    _require_finite(h.data, "hvp")
    theta1 = ascent_point(theta, h, cfg)
    g_at1 = oracle.grad(theta1, batch)
    _require_finite(g_at1.data, "gradient at flatness point")
    ghat1 = g_at1.with_data(g_at1.data / (norm2(g_at1) + eps))
    g1 = oracle.hvp(theta1, ghat1, batch, base_grad=g_at1)
    _require_finite(g1.data, "hvp at flatness point")

    combined = g0.with_data(g0.data + cfg.lam * g1.data)
    stats = StepStats(
        loss=loss,
        sq_grad_norm=gnorm ** 2,
        used_cflat=True,
        grad_evals=5,
        hvp_evals=2,
    )
    return combined, stats


def rho_schedule(cfg: OptimConfig, eta_i: float) -> float:
    """Radius tied linearly to the current learning rate.

    rho_i = rho_min + (rho_max - rho_min) / (eta_max - eta_min) * (eta_i - eta_min);
    a degenerate eta range means a constant schedule at rho_max.
    """
    if cfg.eta_max == cfg.eta_min:
        return cfg.rho_max
    if not cfg.eta_min <= eta_i <= cfg.eta_max:
        raise ValueError(f"eta_i={eta_i} outside [{cfg.eta_min}, {cfg.eta_max}]")
    slope = (cfg.rho_max - cfg.rho_min) / (cfg.eta_max - cfg.eta_min)
    return cfg.rho_min + slope * (eta_i - cfg.eta_min)


def proxy_value(state: ProxyState) -> float:
    """Sigmoidal sharpness proxy A / (1 + e^{-k(i - i0)}) at the current i."""
    x = -state.k * (state.i - state.i0)
    if x > 700.0:  # exp would overflow; the sigmoid is ~0 here
        return 0.0
    return state.A / (1.0 + math.exp(x))


def hybrid_step_plan(total_steps: int, p: float, ordering: str) -> np.ndarray:
    """Boolean plan with round(p * total_steps) C-Flat entries.

    "cflat_first" places them as a contiguous prefix, "cflat_last" as a
    suffix; rounding is round-half-to-even.
    """
    if total_steps < 0:
        raise ValueError("total_steps must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if ordering not in ("cflat_first", "cflat_last"):
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
        """Called once before a training run with the planned step count."""

    def reset_task(self) -> None:
        """Called at task boundaries by the continual harness."""

    def step(self, oracle, theta, batch, cfg):
        raise NotImplementedError


class DescentStepper(Stepper):
    """A stepper whose update is theta - eta * d for a per-step direction d.

    ``direction`` returns (d, stats) and advances any cross-step state, so a
    wrapper (such as gradient projection) can use d without stepping.
    """

    def direction(self, oracle, theta, batch, cfg) -> tuple[ParamVector, StepStats]:
        raise NotImplementedError

    def step(self, oracle, theta, batch, cfg):
        d, stats = self.direction(oracle, theta, batch, cfg)
        return axpy(-cfg.eta, d, theta), stats


class SgdStepper(DescentStepper):
    """d = grad(theta)."""

    def direction(self, oracle, theta, batch, cfg):
        return _sgd_direction(*_loss_and_grad(oracle, theta, batch))


class SamStepper(DescentStepper):
    """d = grad(theta + ascent perturbation)."""

    def direction(self, oracle, theta, batch, cfg):
        loss, g = _loss_and_grad(oracle, theta, batch)
        g0 = oracle.grad(ascent_point(theta, g, cfg), batch)
        _require_finite(g0.data, "perturbed gradient")
        return g0, StepStats(loss=loss, sq_grad_norm=norm2(g) ** 2, grad_evals=2)


class CflatStepper(DescentStepper):
    """d = g0 + lam * g1 (see module docstring)."""

    def direction(self, oracle, theta, batch, cfg):
        return _cflat_direction(oracle, theta, batch, cfg, *_loss_and_grad(oracle, theta, batch))


class CflatPPStepper(DescentStepper):
    """The C-Flat direction when the sharpness proxy gates it on, else the gradient.

    E = proxy - ||g||^2 decides the branch (C-Flat when E <= 0); the bound
    updates to A - eta0 * E either way, and i advances.
    """

    def __init__(self, proxy: ProxyState | None = None, reset_per_task: bool = True):
        self.initial = proxy if proxy is not None else ProxyState()
        self.state = self.initial
        self.reset_per_task = reset_per_task

    def reset_task(self):
        if self.reset_per_task:
            self.state = self.initial

    def direction(self, oracle, theta, batch, cfg):
        loss, g = _loss_and_grad(oracle, theta, batch)
        state = self.state
        proxy = proxy_value(state)
        feedback = proxy - norm2(g) ** 2
        self.state = replace(state, A=state.A - state.eta0 * feedback, i=state.i + 1)
        if feedback <= 0:
            d, stats = _cflat_direction(oracle, theta, batch, cfg, loss, g)
        else:
            d, stats = _sgd_direction(loss, g)
        return d, replace(stats, proxy_value=proxy)


class HybridStepper(DescentStepper):
    """The C-Flat direction on the planned share of steps, the gradient elsewhere."""

    def __init__(self, p: float, ordering: str = "cflat_last"):
        self.p = p
        self.ordering = ordering
        self.plan = np.zeros(0, dtype=bool)
        self.idx = 0

    def prepare(self, total_steps: int):
        self.plan = hybrid_step_plan(total_steps, self.p, self.ordering)
        self.idx = 0

    def direction(self, oracle, theta, batch, cfg):
        use_cflat = bool(self.plan[self.idx]) if self.idx < len(self.plan) else False
        self.idx += 1
        loss, g = _loss_and_grad(oracle, theta, batch)
        if use_cflat:
            return _cflat_direction(oracle, theta, batch, cfg, loss, g)
        return _sgd_direction(loss, g)


OPTIMIZER_NAMES = ("sgd", "sam", "cflat", "cflat++", "hybrid")


def make_stepper(
    name: str,
    proxy: ProxyState | None = None,
    proxy_reset_per_task: bool = True,
    hybrid_p: float = 0.5,
    hybrid_ordering: str = "cflat_last",
) -> DescentStepper:
    """The stepper for one of OPTIMIZER_NAMES, with its cross-step settings."""
    if name == "sgd":
        return SgdStepper()
    if name == "sam":
        return SamStepper()
    if name == "cflat":
        return CflatStepper()
    if name == "cflat++":
        return CflatPPStepper(proxy, proxy_reset_per_task)
    if name == "hybrid":
        return HybridStepper(hybrid_p, hybrid_ordering)
    raise ValueError(f"unknown optimizer {name!r}; expected one of {OPTIMIZER_NAMES}")


def train_epochs(
    oracle: ObjectiveOracle,
    theta: ParamVector,
    x: np.ndarray,
    y: np.ndarray,
    cfg: OptimConfig,
    stepper: Stepper,
    epochs: int,
    batch_size: int,
    rng: SeededRng,
    milestones: tuple[int, ...] = (),
    lr_decay: float = 0.1,
) -> tuple[ParamVector, list[StepStats]]:
    """Shuffled mini-batch training with learning-rate milestones.

    The learning rate multiplies by lr_decay at each milestone epoch and the
    radius follows rho_schedule. The ragged tail of each epoch (fewer than
    batch_size rows) is dropped. Divergence aborts with the step index.
    """
    n = len(y)
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {n}")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    steps_per_epoch = n // batch_size
    stepper.prepare(epochs * steps_per_epoch)

    trace: list[StepStats] = []
    eta = cfg.eta
    step_idx = 0
    for epoch in range(epochs):
        if epoch in milestones:
            eta *= lr_decay
        eta_sched = min(max(eta, cfg.eta_min), cfg.eta_max)
        cfg_i = replace(cfg, eta=eta, rho=rho_schedule(cfg, eta_sched))
        order = rng.permutation(n)
        for b in range(steps_per_epoch):
            idx = order[b * batch_size : (b + 1) * batch_size]
            batch = Batch(x[idx], y[idx])
            try:
                theta, stats = stepper.step(oracle, theta, batch, cfg_i)
            except DivergenceError as err:
                err.step = step_idx
                raise
            trace.append(replace(stats, epoch=epoch))
            step_idx += 1
    return theta, trace
