"""Flatness diagnostics: extreme eigenvalues, the Hessian trace, brute-force
neighborhood sharpness measurements, and 2-D loss-surface slices.

The estimators consume only the oracle's hvp/grad/loss entry points and are
deterministic given their probe seed; the report's trace is the oracle's own
exact ``hessian_trace``, and ``hutchinson_trace`` is kept as the reference
estimator it is checked against. The magnitude-dominant eigenpairs come
from one Lanczos solve with full reorthogonalisation (``lanczos_eigenpairs``)
that stops when the Ritz residuals of the requested pairs certify them, as in
PyHessian (Yao et al. 2020); ``power_iter_lambda_max`` and
``top2_eigenpairs`` are views of it. Run right after a gradient at theta, on
an oracle that keeps its last gradient pass (``MlpOracle``), every product
and the exact trace read that pass. The sampled sharpness R0 and flatness R1
share one set of ball points (``ball_sharpness``), streamed a block at a
time, and each point's loss is read after its gradient, so such an oracle
evaluates every point once.

The ball points and the slice's grid rows run on every CPU the process may
use, on threads that live for one call (numpy's kernels release the GIL).
Values are reduced in index order, so every result and error is the same at
any CPU count; one CPU (say, under ``taskset -c 0``) starts no thread.
"""
from __future__ import annotations

import copy
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, asdict
from itertools import chain, islice
from typing import Iterator

import numpy as np

from .numcore import ParamVector, SeededRng, norm2
from .objective import Batch, ObjectiveOracle
from .optim import DivergenceError

__all__ = [
    "FlatnessReport",
    "Eigenpairs",
    "lanczos_eigenpairs",
    "power_iter_lambda_max",
    "top2_eigenpairs",
    "hutchinson_trace",
    "ball_sharpness",
    "r0_bruteforce",
    "r1_bruteforce",
    "landscape_slice_2d",
    "flatness_report",
]

# Relative Ritz residual at which the eigen-solve stops.
LANCZOS_TOL = 1e-10


@dataclass(frozen=True)
class FlatnessReport:
    """Per-checkpoint diagnostics with the probe counts used to produce them.

    ``trace`` is the exact Hessian trace. ``lanczos_products`` is the number
    of HVPs the eigen-solve took and ``lanczos_residual`` the largest
    relative Ritz residual of its pairs, which certifies them when it is at
    most ``lanczos_tol``.
    """

    sq_grad_norm: float
    lambda_max: float
    trace: float
    r0_sample: float
    r1_sample: float
    rho_used: float
    lanczos_products: int
    lanczos_residual: float
    lanczos_tol: float
    ball_samples: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Eigenpairs:
    """Magnitude-dominant Hessian eigenpairs from one Lanczos solve.

    ``values`` are signed and in decreasing magnitude, ``vectors`` unit norm;
    there are fewer than requested only when ``iters`` or theta's dimension
    is smaller.
    ``products`` counts the HVPs taken and ``residual`` is the largest
    relative Ritz residual ||H u - l u|| / |l| of the pairs (0 for an exact
    pair, including a zero eigenvalue of an invariant subspace).
    """

    values: tuple[float, ...]
    vectors: tuple[ParamVector, ...]
    products: int
    residual: float
    tol: float


def _unit(rng: SeededRng, d: int, basis: np.ndarray) -> np.ndarray:
    """A normal draw made orthogonal to the rows of ``basis``, unit norm."""
    q = rng.normal(0.0, 1.0, d)
    for _ in range(2):
        q -= basis.T @ (basis @ q)
    return q / np.linalg.norm(q)


def lanczos_eigenpairs(
    oracle: ObjectiveOracle,
    theta: ParamVector,
    batch: Batch | None,
    k: int = 2,
    iters: int = 200,
    tol: float = LANCZOS_TOL,
    rng: SeededRng | None = None,
) -> Eigenpairs:
    """The k magnitude-dominant Hessian eigenpairs by Lanczos.

    The start vector is a normal draw from ``rng``. Each step takes one HVP
    and reorthogonalises the new vector against the whole basis, twice. After
    each step the Ritz pairs of the tridiagonal projection give the k largest
    in magnitude and their residual norms |beta * y_last|. The solve stops
    when every one is at most tol * |lambda|, after ``iters`` products, or
    when the basis spans the space. A zero beta means the Krylov space is
    invariant: its Ritz pairs are exact, and the solve continues from a fresh
    draw orthogonal to the basis until it holds k vectors.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = rng if rng is not None else SeededRng(0, 0)
    d = theta.dim
    cap = min(iters, d)
    # allocated once at its largest size: rows no step writes are never touched
    basis = np.empty((cap, d))
    alphas = np.empty(cap)
    betas = np.empty(cap)  # betas[j] couples basis rows j and j + 1
    q = _unit(rng, d, basis[:0])
    m = 0
    while True:
        basis[m] = q
        hq = oracle.hvp(theta, theta._adopt(q), batch).data
        alphas[m] = float(q @ hq)
        w = hq - alphas[m] * q
        if m > 0:
            w -= betas[m - 1] * basis[m - 1]
        m += 1
        Q = basis[:m]
        for _ in range(2):
            w -= Q.T @ (Q @ w)
        beta = betas[m - 1] = float(np.linalg.norm(w))

        T = np.diag(alphas[:m]) + np.diag(betas[:m - 1], 1) + np.diag(betas[:m - 1], -1)
        ritz, Y = np.linalg.eigh(T)
        top = np.argsort(-np.abs(ritz), kind="stable")[:k]
        residuals = np.abs(beta * Y[m - 1, top])
        certified = bool((residuals <= tol * np.abs(ritz[top])).all())
        if (m >= k and certified) or m == cap:
            break
        q = _unit(rng, d, Q) if beta == 0.0 else w / beta

    vectors = []
    for i in top:
        u = Y[:, i] @ Q
        vectors.append(theta.with_data(u / np.linalg.norm(u)))
    relative = [r / max(abs(lam), np.finfo(float).tiny) if r else 0.0
                for r, lam in zip(residuals, ritz[top])]
    return Eigenpairs(
        values=tuple(float(ritz[i]) for i in top),
        vectors=tuple(vectors),
        products=m,
        residual=float(max(relative)),
        tol=tol,
    )


def power_iter_lambda_max(
    oracle: ObjectiveOracle,
    theta: ParamVector,
    batch: Batch | None,
    iters: int = 200,
    tol: float = LANCZOS_TOL,
    rng: SeededRng | None = None,
) -> float:
    """Signed magnitude-dominant Hessian eigenvalue (``lanczos_eigenpairs``
    with k = 1)."""
    return lanczos_eigenpairs(oracle, theta, batch, 1, iters, tol, rng).values[0]


def top2_eigenpairs(
    oracle: ObjectiveOracle,
    theta: ParamVector,
    batch: Batch | None,
    iters: int = 200,
    tol: float = LANCZOS_TOL,
    rng: SeededRng | None = None,
) -> Eigenpairs:
    """Top-2 eigenpairs by magnitude (``lanczos_eigenpairs`` with k = 2)."""
    return lanczos_eigenpairs(oracle, theta, batch, 2, iters, tol, rng)


def hutchinson_trace(
    oracle: ObjectiveOracle,
    theta: ParamVector,
    batch: Batch | None,
    probes: int = 100,
    rng: SeededRng | None = None,
) -> float:
    """Unbiased trace estimate: mean of z^T H z over Rademacher probes."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    rng = rng if rng is not None else SeededRng(0, 0)
    total = 0.0
    for _ in range(probes):
        z = rng.rademacher(theta.dim)
        hz = oracle.hvp(theta, theta._adopt(z), batch)
        total += float(z @ hz.data)
    return total / probes


# Rows drawn, normalised and scaled per block in _ball_samples; the one
# reused block buffer bounds the stream's memory. A block runs as units of
# _BALL_UNIT_ROWS rows, one thread each.
_BALL_BLOCK_ROWS = 64
_BALL_UNIT_ROWS = 32


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _pool(units: int):
    """A pool of min(CPUs, ``units``) - 1 threads, or a null context (None) for 0."""
    threads = min(_cpus(), units) - 1
    return ThreadPoolExecutor(threads) if threads > 0 else nullcontext()


def _in_order(pool: ThreadPoolExecutor | None, fn, items) -> list:
    """``[fn(item) for item in items]``, the first item on the calling thread
    and the rest on ``pool`` under the caller's numpy error state (a new
    thread does not inherit it); the first exception in item order is raised."""
    if pool is None:
        return [fn(item) for item in items]
    err = np.geterr()

    def quiet(item):
        with np.errstate(**err):
            return fn(item)

    rest = [pool.submit(quiet, item) for item in items[1:]]
    return [fn(items[0]), *(future.result() for future in rest)]


def _ball_samples(rng: SeededRng, d: int, rho: float, n: int) -> Iterator[np.ndarray]:
    """Stream of n points uniform in the radius-rho ball (gaussian direction,
    u^{1/d} radius), one row at a time.

    The n radii ``rho * uniform(0, 1, n) ** (1/d)`` are drawn first; the rows
    are then the draw ``normal(0, 1, (n, d))`` normalised per row and scaled
    by their radii, filled one block of ``_BALL_BLOCK_ROWS`` rows at a time.
    Each yielded row is a view into one reused (block, d) buffer: it is valid
    only until the next row is drawn.
    """
    radii = rho * rng.uniform(0.0, 1.0, n) ** (1.0 / d)
    buf = np.empty((min(n, _BALL_BLOCK_ROWS), d))
    for start in range(0, n, _BALL_BLOCK_ROWS):
        block = buf[:n - start]
        rng.fill_normal(block)
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        block *= radii[start:start + len(block), None]
        yield from block


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
    last forward pass (``MlpOracle``) costs one gradient per point. The points
    come from the ``_ball_samples`` stream, a block drawn only after the one
    before it is reduced, so memory holds one block of offsets and the n
    radii. A block's units run on every available CPU, each point on its own
    shallow copy of the oracle so that no point evicts another's kept pass,
    and are reduced in index order: (R0, R1) and the rng's position do not
    depend on the CPU count.
    A non-finite gradient norm or loss raises ``DivergenceError`` naming the
    estimator and the first such ball sample, since ``max`` would drop a NaN:
    no later sample of its unit is evaluated and no later block is drawn, but
    the other units of its block finish.
    """
    if not (np.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    base = oracle.loss(theta, batch)
    worst_loss = -np.inf
    worst_grad = 0.0
    rows = _ball_samples(rng, theta.dim, rho, n_samples)

    def unit(first: int) -> list[tuple[float, float]]:  # (gradient norm, loss) per row
        values = []
        for index, row in enumerate(block[first:first + _BALL_UNIT_ROWS], start + first):
            point, local = theta._adopt(theta.data + row), copy.copy(oracle)
            grad_norm = _finite(norm2(local.grad(point, batch)), "R1 gradient norm", index)
            values.append((grad_norm, _finite(local.loss(point, batch), "R0 loss", index)))
        return values

    with _pool(-(-min(n_samples, _BALL_BLOCK_ROWS) // _BALL_UNIT_ROWS)) as pool:
        for start in range(0, n_samples, _BALL_BLOCK_ROWS):
            # the block's rows are views of one buffer, valid until the next block
            block = list(islice(rows, _BALL_BLOCK_ROWS))
            units = _in_order(pool, unit, range(0, len(block), _BALL_UNIT_ROWS))
            for grad_norm, loss in chain.from_iterable(units):
                worst_grad = max(worst_grad, grad_norm)
                worst_loss = max(worst_loss, loss)
    return float(worst_loss - base), float(rho * worst_grad)


def _finite(value: float, estimator: str, index: int) -> float:
    if not np.isfinite(value):
        raise DivergenceError(f"ball_sharpness: {estimator} is {value} at ball sample {index}")
    return value


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
    Directions are normalized if they are not already unit norm. The grid
    rows run on every available CPU, each thread's on its own shallow copy
    of the oracle; the losses do not depend on the CPU count.
    """
    if grid_n < 1:
        raise ValueError("grid_n must be >= 1")
    if not (np.isfinite(extent) and extent > 0):
        raise ValueError("extent must be finite and positive")
    d1 = dir1.data / (norm2(dir1) or 1.0)
    d2 = dir2.data / (norm2(dir2) or 1.0)
    axis = np.linspace(-extent, extent, grid_n)

    def grid_rows(part: np.ndarray) -> list[list[float]]:
        local = copy.copy(oracle)
        return [[local.loss(theta._adopt(theta.data + a * d1 + b * d2), batch) for b in axis]
                for a in part]

    parts = np.array_split(axis, min(_cpus(), grid_n))
    with _pool(len(parts)) as pool:
        losses = np.vstack(_in_order(pool, grid_rows, parts))
    return axis.copy(), axis.copy(), losses


def flatness_report(
    oracle: ObjectiveOracle,
    theta: ParamVector,
    batch: Batch | None,
    rho: float,
    rng: SeededRng,
    iters: int = 200,
    ball_samples: int = 2000,
    grad: ParamVector | None = None,
    eigen: Eigenpairs | None = None,
) -> FlatnessReport:
    """Assemble the per-checkpoint diagnostics with per-purpose probe streams.

    ``grad`` is the gradient at theta (evaluated when omitted), which gives
    the squared gradient norm. ``eigen`` is the eigen-solve whose top value
    is ``lambda_max`` (``top2_eigenpairs`` with at most ``iters`` products on
    ``rng.spawn(1)`` when omitted). The exact trace, ``oracle.hessian_trace``,
    runs before the ball points, so with an oracle that keeps its last
    gradient pass it and every HVP here read the pass at theta. R0 and R1
    come from one set of ball points.
    """
    g = grad if grad is not None else oracle.grad(theta, batch)
    if eigen is None:
        eigen = top2_eigenpairs(oracle, theta, batch, iters, rng=rng.spawn(1))
    trace = oracle.hessian_trace(theta, batch)
    r0, r1 = ball_sharpness(oracle, theta, batch, rho, ball_samples, rng.spawn(4))
    return FlatnessReport(
        sq_grad_norm=norm2(g) ** 2,
        lambda_max=eigen.values[0],
        trace=trace,
        r0_sample=r0,
        r1_sample=r1,
        rho_used=rho,
        lanczos_products=eigen.products,
        lanczos_residual=eigen.residual,
        lanczos_tol=eigen.tol,
        ball_samples=ball_samples,
    )
