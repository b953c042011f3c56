"""Differentiable objectives: a quadratic oracle and a softmax MLP oracle.

Every oracle exposes ``loss``, ``grad`` and ``hvp`` on a batch. The quadratic
oracle and the MLP without hidden layers (logistic regression) return exact
Hessian-vector products; an MLP with hidden layers approximates them with a
forward difference of gradients, which is all the optimizers ever consume. A
softmax-model gradient costs one forward and one backward pass, and a
forward-difference HVP costs one gradient beyond the base gradient at theta,
which callers share through ``base_grad``. Losses are mean-reduced over the
batch so step sizes and perturbation radii transfer across batch sizes.

Workspace contract of the MLP oracle: it keeps one set of hidden-layer buffers
per batch row count (for the last few row counts it has seen) and its forward
and backward passes write into them instead of allocating. Every array it
returns (logits, representations, gradients) is fresh, so no caller sees a
buffer that a later call overwrites. The price is that an ``output_error``
callback must not call back into the same oracle: the buffers of the pass it
sits in would be overwritten.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numcore import ParamVector, SeededRng, Segment, norm2

__all__ = [
    "Batch",
    "ObjectiveOracle",
    "QuadraticOracle",
    "ACTIVATION_NAMES",
    "MlpSpec",
    "MlpOracle",
    "make_quadratic",
    "make_logreg",
    "make_mlp",
    "mlp_manifest",
    "fd_hvp",
]


@dataclass(frozen=True)
class Batch:
    """A feature matrix (n, d_in) with integer class labels in [0, C)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if x.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError("labels must be 1-D and aligned with features")
        if x.shape[0] < 1:
            raise ValueError("batch must contain at least one example")
        if (y < 0).any():
            raise ValueError("labels must be nonnegative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d_in(self) -> int:
        return self.x.shape[1]


class ObjectiveOracle:
    """Contract: twice-differentiable scalar loss with grad/hvp entry points."""

    dim: int

    def loss(self, theta: ParamVector, batch: Batch | None = None) -> float:
        raise NotImplementedError

    def grad(self, theta: ParamVector, batch: Batch | None = None) -> ParamVector:
        raise NotImplementedError

    def hvp(
        self,
        theta: ParamVector,
        v: ParamVector,
        batch: Batch | None = None,
        base_grad: ParamVector | None = None,
    ) -> ParamVector:
        raise NotImplementedError

    def _require_dim(self, theta: ParamVector) -> None:
        if theta.dim != self.dim:
            raise ValueError(f"dimension mismatch: theta has {theta.dim}, oracle expects {self.dim}")


# Relative step of the forward-difference HVP, scaled by (1 + ||theta||).
FD_HVP_STEP = 1e-4


def fd_hvp(grad_fn, theta: ParamVector, v: ParamVector,
           base_grad: ParamVector | None = None) -> ParamVector:
    """Forward-difference HVP: (g(theta + d*vhat) - g(theta)) / d * ||v||.

    The step d = FD_HVP_STEP * (1 + ||theta||) balances truncation against
    round-off in 64-bit. A zero direction returns zero exactly.
    """
    if v.dim != theta.dim:
        raise ValueError(f"dimension mismatch: direction has {v.dim}, theta {theta.dim}")
    vnorm = norm2(v)
    if vnorm == 0.0:
        return v.with_data(np.zeros(v.dim))
    delta = FD_HVP_STEP * (1.0 + norm2(theta))
    vhat = v.data / vnorm
    shifted = grad_fn(theta.with_data(theta.data + delta * vhat))
    base = base_grad if base_grad is not None else grad_fn(theta)
    return v.with_data((shifted.data - base.data) * (vnorm / delta))


class QuadraticOracle(ObjectiveOracle):
    """L(theta) = 0.5 (theta - c)^T H (theta - c) with analytic grad and hvp.

    The batch argument is accepted and ignored: the loss is data-free, which
    makes curvature quantities exactly computable for verification.
    """

    def __init__(self, H, c=None):
        H = np.asarray(H, dtype=np.float64)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"H must be square, got shape {H.shape}")
        if not np.allclose(H, H.T, rtol=1e-12, atol=1e-12):
            raise ValueError("H must be symmetric")
        self.H = (H + H.T) / 2.0
        self.dim = H.shape[0]
        if c is None:
            self.center = np.zeros(self.dim)
        else:
            cdata = c.data if isinstance(c, ParamVector) else np.asarray(c, dtype=np.float64)
            if cdata.size != self.dim:
                raise ValueError("center dimension does not match H")
            self.center = cdata.reshape(-1).copy()

    def loss(self, theta, batch=None) -> float:
        self._require_dim(theta)
        d = theta.data - self.center
        return float(0.5 * d @ self.H @ d)

    def grad(self, theta, batch=None) -> ParamVector:
        self._require_dim(theta)
        return theta.with_data(self.H @ (theta.data - self.center))

    def hvp(self, theta, v, batch=None, base_grad=None) -> ParamVector:
        self._require_dim(theta)
        if v.dim != self.dim:
            raise ValueError("direction dimension mismatch")
        return v.with_data(self.H @ v.data)


def make_quadratic(H, c=None) -> QuadraticOracle:
    return QuadraticOracle(H, c)


def _logsumexp(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    return m[:, 0] + np.log(np.exp(z - m).sum(axis=1))


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _ce_output_error(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Logit gradient of the mean cross-entropy: (softmax(z) - onehot(y)) / n."""
    g = _softmax(z)
    g[np.arange(len(y)), y] -= 1.0
    g /= len(y)
    return g


def mlp_manifest(widths: tuple[int, ...]) -> tuple[Segment, ...]:
    """Segments (W0, b0, W1, b1, ...) for consecutive layer widths."""
    segs = []
    offset = 0
    for layer, (d_in, d_out) in enumerate(zip(widths[:-1], widths[1:])):
        segs.append(Segment(f"W{layer}", offset, (d_out, d_in)))
        offset += d_out * d_in
        segs.append(Segment(f"b{layer}", offset, (d_out,)))
        offset += d_out
    return tuple(segs)


# Row counts whose buffers an oracle keeps; the oldest set is dropped first.
_WORKSPACE_ROW_COUNTS = 8

ACTIVATION_NAMES = ("tanh", "relu")


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of a fully-connected softmax classifier."""

    d_in: int
    hidden: tuple[int, ...]
    n_classes: int
    activation: str = "tanh"
    l2: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.d_in < 1:
            raise ValueError("d_in must be >= 1")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be >= 1")
        if self.activation not in ACTIVATION_NAMES:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.l2 < 0:
            raise ValueError("l2 must be nonnegative")

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.d_in, *self.hidden, self.n_classes)


class MlpOracle(ObjectiveOracle):
    """Fully-connected softmax cross-entropy classifier with backprop gradients.

    The model is a stack of ``n_layers`` affine blocks (W{l}, b{l}) with the
    spec's activation between them. ``grad_from_output_error`` is the one
    gradient entry: it checks theta and the batch, runs one forward pass and
    backpropagates an output-layer error computed from its logits, L2 term
    included. Cross-entropy (``grad``) and distillation differ only in that
    error, so a gradient costs one forward pass.

    With no hidden layer (logistic regression) the logits are affine in the
    parameters, so ``hvp`` returns the Gauss-Newton product, which equals the
    Hessian product. With hidden layers ``hvp`` is a forward difference of
    gradients (``fd_hvp``): one gradient at the shifted point beyond the base
    gradient at theta, which callers pass as ``base_grad`` to share it across
    products (it is recomputed when omitted).

    Each hidden layer's pre-activation, activation, back-propagated error and
    activation derivative live in a workspace kept per batch row count, so a
    pass at a row count seen before allocates only the logits and the flat
    gradient. Outputs are always fresh arrays; an ``output_error`` callback
    must not call back into the same oracle (see the module docstring).
    """

    def __init__(self, spec: MlpSpec):
        self.spec = spec
        self.n_classes = spec.n_classes
        self.l2 = float(spec.l2)
        self.manifest = mlp_manifest(spec.widths)
        self.dim = sum(seg.size for seg in self.manifest)
        self.n_layers = len(spec.widths) - 1
        self._workspaces: dict = {}

    def with_head(self, n_classes: int) -> "MlpOracle":
        return MlpOracle(replace(self.spec, n_classes=n_classes))

    def init_theta(self, rng: SeededRng) -> ParamVector:
        """Seeded init: W ~ N(0, 1/sqrt(fan_in)), biases zero."""
        parts = []
        widths = self.spec.widths
        for d_in, d_out in zip(widths[:-1], widths[1:]):
            parts.append(rng.normal(0.0, 1.0 / np.sqrt(d_in), (d_out, d_in)).ravel())
            parts.append(np.zeros(d_out))
        return ParamVector(np.concatenate(parts), self.manifest)

    def _act(self, z: np.ndarray, out: np.ndarray) -> None:
        if self.spec.activation == "tanh":
            np.tanh(z, out=out)
        else:
            np.maximum(z, 0.0, out=out)

    def _act_deriv(self, z: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        if self.spec.activation == "tanh":
            np.multiply(a, a, out=out)
            return np.subtract(1.0, out, out=out)
        # subgradient 0 at exactly 0
        return np.greater(z, 0.0, out=out)

    def _workspace(self, n: int) -> list[tuple[np.ndarray, ...]]:
        """Per hidden layer: (pre-activation, activation, G @ W, derivative), n rows."""
        cache = self._workspaces
        buffers = cache.get(n)
        if buffers is None:
            if len(cache) >= _WORKSPACE_ROW_COUNTS:
                del cache[next(iter(cache))]
            buffers = cache[n] = [tuple(np.empty((n, w)) for _ in range(4))
                                  for w in self.spec.hidden]
        return buffers

    def _forward(self, theta: ParamVector, x: np.ndarray):
        """(acts, pre): each block's input and its affine output; pre[-1] is the logits.

        Hidden-layer entries are workspace buffers; the logits are fresh.
        """
        buffers = self._workspace(len(x))
        acts = [x]
        pre = []
        a = x
        for layer in range(self.n_layers):
            hidden = layer < self.n_layers - 1
            W = theta.view(f"W{layer}").T
            z = np.matmul(a, W, out=buffers[layer][0]) if hidden else a @ W
            z += theta.view(f"b{layer}")
            pre.append(z)
            if hidden:
                a = buffers[layer][1]
                self._act(z, out=a)
                acts.append(a)
        return acts, pre

    def _backprop(self, theta, acts, pre, dlogits) -> ParamVector:
        buffers = self._workspace(len(acts[0]))
        grads: dict[str, np.ndarray] = {}
        G = dlogits
        for layer in range(self.n_layers - 1, -1, -1):
            grads[f"W{layer}"] = G.T @ acts[layer]
            grads[f"b{layer}"] = G.sum(axis=0)
            if layer > 0:
                _, _, GW, deriv = buffers[layer - 1]
                np.matmul(G, theta.view(f"W{layer}"), out=GW)
                GW *= self._act_deriv(pre[layer - 1], acts[layer], out=deriv)
                G = GW
        flat = np.concatenate([grads[seg.name].ravel() for seg in self.manifest])
        if self.l2 > 0:
            flat = flat + self.l2 * theta.data
        return ParamVector(flat, self.manifest)

    def logits(self, theta: ParamVector, x: np.ndarray) -> np.ndarray:
        _, pre = self._forward(theta, x)
        return pre[-1]

    def grad_from_output_error(self, theta: ParamVector, batch: Batch,
                               output_error) -> ParamVector:
        """Gradient, L2 term included, of a loss on ``batch`` whose logit
        gradient is ``output_error(logits)``; one forward pass. ``output_error``
        must not call this oracle."""
        self._require_dim(theta)
        self._check_labels(batch)
        acts, pre = self._forward(theta, batch.x)
        return self._backprop(theta, acts, pre, output_error(pre[-1]))

    def _loss_and_logits(self, theta: ParamVector, batch: Batch) -> tuple[float, np.ndarray]:
        """Mean cross-entropy plus the L2 term, and the logits it was computed from."""
        self._require_dim(theta)
        self._check_labels(batch)
        z = self.logits(theta, batch.x)
        ce = float(np.mean(_logsumexp(z) - z[np.arange(batch.n), batch.y]))
        return ce + 0.5 * self.l2 * float(theta.data @ theta.data), z

    def loss(self, theta, batch=None) -> float:
        return self._loss_and_logits(theta, batch)[0]

    def grad(self, theta, batch=None) -> ParamVector:
        return self.grad_from_output_error(theta, batch, lambda z: _ce_output_error(z, batch.y))

    def hvp(self, theta, v, batch=None, base_grad=None):
        self._require_dim(theta)
        if self.n_layers > 1:
            return fd_hvp(lambda th: self.grad(th, batch), theta, v, base_grad)
        self._check_labels(batch)
        if v.dim != self.dim:
            raise ValueError("direction dimension mismatch")
        p = _softmax(self.logits(theta, batch.x))
        V = v.view("W0")
        vb = v.view("b0")
        u = batch.x @ V.T + vb
        w = p * u - p * (p * u).sum(axis=1, keepdims=True)
        hW = w.T @ batch.x / batch.n
        hb = w.sum(axis=0) / batch.n
        flat = np.concatenate([hW.ravel(), hb])
        if self.l2 > 0:
            flat = flat + self.l2 * v.data
        return ParamVector(flat, self.manifest)

    def predict(self, theta: ParamVector, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(theta, x), axis=1)

    def representations(self, theta: ParamVector, x: np.ndarray, layer: int) -> np.ndarray:
        """Input activations feeding weight block W{layer} (layer 0 sees x), as a copy."""
        if not 0 <= layer < self.n_layers:
            raise ValueError(f"layer {layer} out of range")
        acts, _ = self._forward(theta, x)
        return np.array(acts[layer], dtype=np.float64)

    def _check_labels(self, batch: Batch) -> None:
        if batch is None:
            raise ValueError("this oracle requires a batch")
        if int(batch.y.max()) >= self.n_classes:
            raise ValueError(
                f"label {int(batch.y.max())} outside head width {self.n_classes}"
            )

    @property
    def head_weight_name(self) -> str:
        return self.manifest[-2].name


def make_logreg(d_in: int, n_classes: int, l2: float = 0.0) -> MlpOracle:
    """Multinomial logistic regression: an MLP with no hidden layer."""
    return MlpOracle(MlpSpec(d_in, (), n_classes, l2=l2))


def make_mlp(spec: MlpSpec, rng: SeededRng) -> MlpOracle:
    """Initialized MLP oracle; the seeded parameters are attached as theta0."""
    oracle = MlpOracle(spec)
    oracle.theta0 = oracle.init_theta(rng)
    return oracle
