"""Flatness diagnostics: extreme-eigenvalue and trace estimators, brute-force
neighborhood sharpness measurements, and 2-D loss-surface slices.

All estimators consume only the oracle's hvp/grad/loss entry points and are
deterministic given their probe seed. The HVP estimators evaluate the gradient
at theta once, or take it as ``base_grad``, and pass it to every product, so
a forward-difference HVP costs one gradient instead of two. The sampled
sharpness R0 and flatness R1 share one set of ball points (``ball_sharpness``),
and each point's loss is read after its gradient, so an oracle that keeps its
last forward pass evaluates every point once.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .numcore import ParamVector, SeededRng, norm2
from .objective import Batch, ObjectiveOracle
from .optim import StepStats

__all__ = [
    "FlatnessReport",
    "power_iter_lambda_max",
    "top2_eigenpairs",
    "hutchinson_trace",
    "ball_sharpness",
    "r0_bruteforce",
    "r1_bruteforce",
    "landscape_slice_2d",
    "flatness_report",
    "track_sq_grad_norm",
]


@dataclass(frozen=True)
class FlatnessReport:
    """Per-checkpoint diagnostics with the probe counts used to produce them."""

    sq_grad_norm: float
    lambda_max: float
    trace: float
    r0_sample: float
    r1_sample: float
    rho_used: float
    power_iters: int
    trace_probes: int
    ball_samples: int

    def to_dict(self) -> dict:
        return asdict(self)


def _hessian_matvec(oracle, theta, batch, base_grad):
    """v -> H v at theta, every product sharing one base gradient."""
    g = base_grad if base_grad is not None else oracle.grad(theta, batch)
    return lambda v: oracle.hvp(theta, v, batch, base_grad=g)


def _power_iteration(theta, iters, tol, rng, matvec):
    """Rayleigh-quotient power iteration on the given symmetric operator."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    d = theta.dim
    rayleigh = 0.0
    for attempt in range(3):  # redraw if the operator annihilates the probe
        probe = rng.normal(0.0, 1.0, d)
        probe /= np.linalg.norm(probe)
        w = matvec(theta._adopt(probe))
        if np.linalg.norm(w.data) > 0.0:
            break
    else:
        return 0.0, theta.with_data(probe)
    v = probe
    for it in range(iters):
        if it > 0:  # iteration 0 reuses the probe check's product
            w = matvec(theta._adopt(v))
        wn = np.linalg.norm(w.data)
        if wn == 0.0:
            return 0.0, theta.with_data(v)
        new_rayleigh = float(v @ w.data)
        converged = it > 0 and abs(new_rayleigh - rayleigh) < tol
        rayleigh = new_rayleigh
        v = w.data / wn
        if converged:
            break
    return rayleigh, theta.with_data(v)


def power_iter_lambda_max(
    oracle: ObjectiveOracle,
    theta: ParamVector,
    batch: Batch | None,
    iters: int = 200,
    tol: float = 1e-10,
    rng: SeededRng | None = None,
    base_grad: ParamVector | None = None,
) -> float:
    """Signed Rayleigh quotient of the magnitude-dominant Hessian eigenvalue."""
    rng = rng if rng is not None else SeededRng(0, 0)
    val, _ = _power_iteration(
        theta, iters, tol, rng, _hessian_matvec(oracle, theta, batch, base_grad)
    )
    return val


def top2_eigenpairs(
    oracle: ObjectiveOracle,
    theta: ParamVector,
    batch: Batch | None,
    iters: int = 200,
    tol: float = 1e-10,
    rng: SeededRng | None = None,
    base_grad: ParamVector | None = None,
):
    """Top-2 eigenpairs by magnitude; the second via deflation H - l1 v1 v1^T."""
    rng = rng if rng is not None else SeededRng(0, 0)
    hvp = _hessian_matvec(oracle, theta, batch, base_grad)
    l1, v1 = _power_iteration(theta, iters, tol, rng, hvp)

    def deflated(v):
        hv = hvp(v)
        return hv._adopt(hv.data - l1 * float(v1.data @ v.data) * v1.data)

    l2, v2 = _power_iteration(theta, iters, tol, rng, deflated)
    return (l1, v1), (l2, v2)


def hutchinson_trace(
    oracle: ObjectiveOracle,
    theta: ParamVector,
    batch: Batch | None,
    probes: int = 100,
    rng: SeededRng | None = None,
    base_grad: ParamVector | None = None,
) -> float:
    """Unbiased trace estimate: mean of z^T H z over Rademacher probes."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    rng = rng if rng is not None else SeededRng(0, 0)
    hvp = _hessian_matvec(oracle, theta, batch, base_grad)
    total = 0.0
    for _ in range(probes):
        z = rng.rademacher(theta.dim)
        hz = hvp(theta._adopt(z))
        total += float(z @ hz.data)
    return total / probes


# Rows normalised per block in _ball_samples; bounds the norm's temporaries.
_BALL_BLOCK_ROWS = 64


def _ball_samples(rng: SeededRng, d: int, rho: float, n: int) -> np.ndarray:
    """n points uniform in the radius-rho ball (gaussian direction, u^{1/d} radius).

    The draws are normalised and scaled in place, a block of rows at a time,
    so the (n, d) draw is the only full-size array.
    """
    dirs = rng.normal(0.0, 1.0, (n, d))
    for start in range(0, n, _BALL_BLOCK_ROWS):
        block = dirs[start:start + _BALL_BLOCK_ROWS]
        block /= np.linalg.norm(block, axis=1, keepdims=True)
    radii = rho * rng.uniform(0.0, 1.0, n) ** (1.0 / d)
    dirs *= radii[:, None]
    return dirs


def ball_sharpness(
    oracle: ObjectiveOracle,
    theta: ParamVector,
    batch: Batch | None,
    rho: float,
    n_samples: int,
    rng: SeededRng,
) -> tuple[float, float]:
    """Sampled (R0, R1) from one set of points uniform in the rho-ball.

    R0 is the worst loss increase, max L(theta+delta) - L(theta), and R1 is
    rho times the worst gradient norm, rho * max ||grad L(theta+delta)||. Each
    point's gradient is evaluated before its loss, so an oracle that keeps its
    last forward pass (``MlpOracle``) costs one gradient per point.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    base = oracle.loss(theta, batch)
    offsets = _ball_samples(rng, theta.dim, rho, n_samples)
    worst_loss = -np.inf
    worst_grad = 0.0
    for row in offsets:
        point = theta._adopt(theta.data + row)
        worst_grad = max(worst_grad, norm2(oracle.grad(point, batch)))
        worst_loss = max(worst_loss, oracle.loss(point, batch))
    return float(worst_loss - base), float(rho * worst_grad)


def r0_bruteforce(oracle: ObjectiveOracle, theta: ParamVector, batch: Batch | None,
                  rho: float, n_samples: int, rng: SeededRng) -> float:
    """Sampled zeroth-order sharpness: worst loss increase in the rho-ball."""
    return ball_sharpness(oracle, theta, batch, rho, n_samples, rng)[0]


def r1_bruteforce(oracle: ObjectiveOracle, theta: ParamVector, batch: Batch | None,
                  rho: float, n_samples: int, rng: SeededRng) -> float:
    """Sampled first-order flatness: rho times the worst gradient norm in the ball."""
    return ball_sharpness(oracle, theta, batch, rho, n_samples, rng)[1]


def landscape_slice_2d(
    oracle: ObjectiveOracle,
    theta: ParamVector,
    batch: Batch | None,
    dir1: ParamVector,
    dir2: ParamVector,
    extent: float,
    grid_n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Loss grid over theta + a*dir1 + b*dir2 for a, b in [-extent, extent].

    Returns (a_axis, b_axis, losses) with losses[i, j] at (a_axis[i], b_axis[j]).
    Directions are normalized if they are not already unit norm.
    """
    if grid_n < 1:
        raise ValueError("grid_n must be >= 1")
    d1 = dir1.data / (norm2(dir1) or 1.0)
    d2 = dir2.data / (norm2(dir2) or 1.0)
    axis = np.linspace(-extent, extent, grid_n)
    losses = np.empty((grid_n, grid_n))
    for i, a in enumerate(axis):
        for j, b in enumerate(axis):
            point = theta._adopt(theta.data + a * d1 + b * d2)
            losses[i, j] = oracle.loss(point, batch)
    return axis.copy(), axis.copy(), losses


def flatness_report(
    oracle: ObjectiveOracle,
    theta: ParamVector,
    batch: Batch | None,
    rho: float,
    rng: SeededRng,
    power_iters: int = 200,
    trace_probes: int = 200,
    ball_samples: int = 2000,
    base_grad: ParamVector | None = None,
) -> FlatnessReport:
    """Assemble the per-checkpoint diagnostics with per-purpose probe streams.

    The gradient at theta (``base_grad``, or one evaluation) gives the squared
    gradient norm and is shared by every HVP of both estimators. R0 and R1
    come from one set of ball points.
    """
    g = base_grad if base_grad is not None else oracle.grad(theta, batch)
    lam_max = power_iter_lambda_max(
        oracle, theta, batch, power_iters, 1e-10, rng.spawn(1), base_grad=g
    )
    trace = hutchinson_trace(oracle, theta, batch, trace_probes, rng.spawn(2), base_grad=g)
    r0, r1 = ball_sharpness(oracle, theta, batch, rho, ball_samples, rng.spawn(4))
    return FlatnessReport(
        sq_grad_norm=norm2(g) ** 2,
        lambda_max=lam_max,
        trace=trace,
        r0_sample=r0,
        r1_sample=r1,
        rho_used=rho,
        power_iters=power_iters,
        trace_probes=trace_probes,
        ball_samples=ball_samples,
    )


def track_sq_grad_norm(trace: list[StepStats]) -> list[tuple[int, int, float]]:
    """Per-epoch mean of the per-step squared gradient norm.

    Returns (task, epoch, mean) tuples in order of first appearance.
    """
    if not trace:
        raise ValueError("trace is empty")
    keys: list[tuple[int, int]] = []
    sums: dict[tuple[int, int], list[float]] = {}
    for stats in trace:
        key = (stats.task, stats.epoch)
        if key not in sums:
            sums[key] = []
            keys.append(key)
        sums[key].append(stats.sq_grad_norm)
    return [(task, epoch, float(np.mean(sums[(task, epoch)]))) for task, epoch in keys]
