"""Differentiable objectives: a quadratic oracle and a softmax MLP oracle.

Every oracle exposes ``loss``, ``grad`` and ``hvp`` on a batch, and every
Hessian-vector product is exact. The MLP takes it by Pearlmutter's R-op
(Pearlmutter 1994, "Fast exact multiplication by the Hessian"): an R-forward
pass that carries the directional derivative of every pre-activation, then an
R-backward pass that starts from the loss's logit-space curvature applied to
the logits' derivative. A softmax-model gradient costs one forward and one
backward pass; an HVP on the point and batch of the last gradient costs the
two R passes only, and elsewhere a gradient pass beyond them. Losses are
mean-reduced over the batch so step sizes and perturbation radii transfer
across batch sizes.

Workspace contract of the MLP oracle: it keeps one set of hidden-layer buffers
per batch row count (for the last few row counts it has seen) for its forward
and backward passes, and another for its R passes, and writes into them
instead of allocating. Every array it returns (logits, representations,
gradients, products) is fresh, so no caller sees a buffer that a later call
overwrites. The price is that an ``output_error`` or ``curvature`` callback
must not call back into the same oracle: the buffers of the pass it sits in
would be overwritten.

Kept pass of the MLP oracle: a gradient keeps one entry, the ``theta`` and
``Batch`` objects of its forward pass, that pass's logits (read-only) and,
when the output error was the cross-entropy one, the row log-sum-exp of the
logits, which that error computes from the same max, exp and row sum. Once
its backward pass is done the entry also records the objective it was the
gradient of and keeps the pass's activations, activation derivatives and
back-propagated errors. A ``loss`` on the same two objects reads the loss
from the logits instead of running the forward pass again, so a loss right
after a gradient, as in every optimizer step's prologue, costs no second pass
and no exp, and is bit-identical to a fresh one. An ``hvp`` of the same
objective on the same two objects reads the rest and runs no primal pass.
Any forward pass at the entry's row count drops it, since it overwrites the
buffers the entry reads. The entry matches objects by identity: a
``ParamVector`` is read-only, and a ``Batch``'s arrays must not be mutated
after construction (the distillation objective's cached old-model
probabilities assume the same).

Parameter layout of the MLP oracle: it reads each layer's weight and bias as
slices of ``theta.data`` at offsets precomputed from its manifest, so it
checks that a ``theta`` is laid out on that manifest (by identity, then by
equality, remembering the last equal manifest object) and rejects one that
is not, even when the dimension matches.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from .numcore import ParamVector, SeededRng, Segment

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
]


@dataclass(frozen=True)
class Batch:
    """A feature matrix (n, d_in) with integer class labels in [0, C).

    ``y_max`` is the largest label, taken once here so that oracles check the
    head width without reducing ``y`` on every call; the arrays must not be
    mutated after construction.
    """

    x: np.ndarray
    y: np.ndarray
    y_max: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "y_max", int(y.max()))

    @classmethod
    def _rows(cls, x: np.ndarray, y: np.ndarray) -> "Batch":
        """Batch of rows taken from an already checked batch's arrays.

        Internal constructor for ``train_epochs``: ``x`` (float64, 2-D) and
        ``y`` (int64, nonnegative, aligned, at least one row) are not checked
        again; only the largest label is taken.
        """
        batch = object.__new__(cls)
        object.__setattr__(batch, "x", x)
        object.__setattr__(batch, "y", y)
        object.__setattr__(batch, "y_max", int(y.max()))
        return batch

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

    def hvp(self, theta: ParamVector, v: ParamVector, batch: Batch | None = None) -> ParamVector:
        raise NotImplementedError

    def _require_dim(self, theta: ParamVector) -> None:
        if theta.dim != self.dim:
            raise ValueError(f"dimension mismatch: theta has {theta.dim}, oracle expects {self.dim}")


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
        return theta._adopt(self.H @ (theta.data - self.center))

    def hvp(self, theta, v, batch=None) -> ParamVector:
        self._require_dim(theta)
        if v.dim != self.dim:
            raise ValueError("direction dimension mismatch")
        return v._adopt(self.H @ v.data)


def make_quadratic(H, c=None) -> QuadraticOracle:
    return QuadraticOracle(H, c)


def _exp_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(z - row max), its row sums (n, 1) and the row log-sum-exp (n,)."""
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=1, keepdims=True)
    return e, s, m[:, 0] + np.log(s[:, 0])


def _logsumexp(z: np.ndarray) -> np.ndarray:
    return _exp_rows(z)[2]


def _softmax(z: np.ndarray) -> np.ndarray:
    e, s, _ = _exp_rows(z)
    e /= s
    return e


def _softmax_jvp(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise Jacobian product of the softmax at probabilities p, (diag(p) - p p^T) u."""
    pu = p * u
    pu -= p * pu.sum(axis=1, keepdims=True)
    return pu


def _ce_output_error(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logit gradient of the mean cross-entropy, (softmax(z) - onehot(y)) / n,
    and the row log-sum-exp of z, both from one ``_exp_rows`` pass."""
    g, s, lse = _exp_rows(z)
    g /= s
    g[np.arange(len(y)), y] -= 1.0
    g /= len(y)
    return g, lse


def _ce_curvature(z: np.ndarray, lse: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Logit-space Hessian of the mean cross-entropy at logits z with row
    log-sum-exp lse, applied to u: (diag(p) - p p^T) u / n row by row."""
    h = _softmax_jvp(np.exp(z - lse[:, None]), u)
    h /= len(z)
    return h


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


@dataclass(slots=True)
class _KeptPass:
    """The last gradient pass of an ``MlpOracle`` (see the module docstring).

    ``buffers`` is the workspace the hidden entries of ``acts`` live in, which
    also holds each hidden layer's back-propagated error and activation
    derivative; ``top_error`` is the logit error. ``owner`` is None until the
    backward pass is done, then a weak reference to the objective: a strong
    one would make a cycle through the oracle, which keeps a discarded
    oracle's workspaces alive until the cyclic garbage collector runs.
    """

    theta: ParamVector
    batch: Batch
    acts: list
    logits: np.ndarray
    buffers: list
    lse: np.ndarray | None = None
    owner: weakref.ref | None = None
    top_error: np.ndarray | None = None


class MlpOracle(ObjectiveOracle):
    """Fully-connected softmax cross-entropy classifier with backprop gradients
    and exact R-op Hessian-vector products.

    The model is a stack of ``n_layers`` affine blocks (W{l}, b{l}) with the
    spec's activation between them. ``grad_from_output_error`` is the one
    gradient entry: it checks theta and the batch, runs one forward pass and
    backpropagates an output-layer error computed from its logits, L2 term
    included. ``hvp_from_curvature`` is the one product entry: it applies the
    Hessian of the same loss by one R-forward and one R-backward pass, given
    the loss's logit-space curvature. Cross-entropy (``grad``, ``hvp``) and
    distillation differ only in those two callbacks. Both entries keep or
    read the last gradient pass (see the module docstring), so a loss or an
    HVP right after a gradient on the same objects runs no forward pass.

    Each layer's (W start, W stop, W shape, b start, b stop) in the flat
    vector is computed once from the manifest; passes read the blocks as
    slices of ``theta.data`` and write the gradient block by block into one
    fresh flat array. A theta whose manifest differs from the oracle's is
    rejected with a ``ValueError`` naming both layouts.

    Each hidden layer's pre-activation, activation, back-propagated error and
    activation derivative live in a workspace kept per batch row count, and
    the R passes' four per-layer arrays in a second one, so a pass at a row
    count seen before allocates only the logit-sized arrays and the flat
    result. Outputs are always fresh arrays; a callback must not call back
    into the same oracle (see the module docstring).
    """

    def __init__(self, spec: MlpSpec):
        self.spec = spec
        self.n_classes = spec.n_classes
        self.l2 = float(spec.l2)
        self.manifest = mlp_manifest(spec.widths)
        self.dim = sum(seg.size for seg in self.manifest)
        self.n_layers = len(spec.widths) - 1
        self._layers = tuple(
            (w.offset, w.offset + w.size, w.shape, b.offset, b.offset + b.size)
            for w, b in zip(self.manifest[0::2], self.manifest[1::2])
        )
        self._known_manifest = self.manifest  # last manifest object found equal
        self._workspaces: dict = {}
        self._r_workspaces: dict = {}
        self._last_pass: _KeptPass | None = None

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

    def _check_theta(self, theta: ParamVector) -> None:
        """theta must be laid out on this oracle's manifest."""
        manifest = theta.manifest
        if manifest is self._known_manifest:
            return
        self._require_dim(theta)
        if manifest != self.manifest:
            raise ValueError(
                f"theta is laid out as {_layout(manifest)}, "
                f"but this oracle expects {_layout(self.manifest)}"
            )
        self._known_manifest = manifest

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

    def _workspace(self, n: int, cache: dict | None = None) -> list[tuple[np.ndarray, ...]]:
        """Per hidden layer four (n, width) buffers from ``cache`` (default
        the primal workspace: pre-activation, activation, back-propagated
        error, derivative)."""
        cache = self._workspaces if cache is None else cache
        buffers = cache.get(n)
        if buffers is None:
            if len(cache) >= _WORKSPACE_ROW_COUNTS:
                del cache[next(iter(cache))]
            buffers = cache[n] = [tuple(np.empty((n, w)) for _ in range(4))
                                  for w in self.spec.hidden]
        return buffers

    def _forward(self, theta: ParamVector, x: np.ndarray):
        """(acts, pre): each block's input and its affine output; pre[-1] is the logits.

        Checks theta's layout and drops a kept pass at this row count, whose
        buffers it overwrites. Hidden-layer entries are workspace buffers;
        the logits are fresh.
        """
        self._check_theta(theta)
        kept = self._last_pass
        if kept is not None and kept.batch.n == len(x):
            self._last_pass = None
        buffers = self._workspace(len(x))
        data = theta.data
        last = self.n_layers - 1
        acts = [x]
        pre = []
        a = x
        for layer, (w0, w1, w_shape, b0, b1) in enumerate(self._layers):
            W = data[w0:w1].reshape(w_shape).T
            z = np.matmul(a, W, out=buffers[layer][0]) if layer < last else a @ W
            z += data[b0:b1]
            pre.append(z)
            if layer < last:
                a = buffers[layer][1]
                self._act(z, out=a)
                acts.append(a)
        return acts, pre

    def _backprop(self, theta: ParamVector, acts, pre, dlogits) -> np.ndarray:
        """Flat gradient for the logit error ``dlogits``, L2 term included, as
        one fresh array written block by block. Each hidden layer's error and
        activation derivative stay in its workspace buffers."""
        buffers = self._workspace(len(acts[0]))
        data = theta.data
        flat = np.empty(self.dim)
        G = dlogits
        for layer in range(self.n_layers - 1, -1, -1):
            w0, w1, w_shape, b0, b1 = self._layers[layer]
            np.matmul(G.T, acts[layer], out=flat[w0:w1].reshape(w_shape))
            np.add.reduce(G, axis=0, out=flat[b0:b1])
            if layer > 0:
                _, _, GW, deriv = buffers[layer - 1]
                np.matmul(G, data[w0:w1].reshape(w_shape), out=GW)
                GW *= self._act_deriv(pre[layer - 1], acts[layer], out=deriv)
                G = GW
        if self.l2 > 0:
            flat += self.l2 * data
        return flat

    def logits(self, theta: ParamVector, x: np.ndarray) -> np.ndarray:
        _, pre = self._forward(theta, x)
        return pre[-1]

    def grad_from_output_error(self, theta: ParamVector, batch: Batch,
                               output_error, owner=None) -> ParamVector:
        """Gradient, L2 term included, of a loss on ``batch`` whose logit
        gradient is ``output_error(logits)``; one forward pass. ``output_error``
        must not call this oracle. The pass is kept for ``_loss_and_logits``
        and, tagged with the objective ``owner`` whose gradient this is, for
        ``hvp_from_curvature``."""
        self._check_labels(batch)
        acts, pre = self._forward(theta, batch.x)
        pre[-1].setflags(write=False)
        kept = self._last_pass = _KeptPass(theta, batch, acts, pre[-1],
                                           self._workspace(batch.n))
        G = output_error(pre[-1])
        flat = self._backprop(theta, acts, pre, G)
        kept.top_error = G
        kept.owner = None if owner is None else weakref.ref(owner)
        return theta._adopt(flat)

    def hvp_from_curvature(self, theta: ParamVector, v: ParamVector, batch: Batch,
                           owner, curvature) -> ParamVector:
        """Exact Hessian-vector product, L2 term included, of the loss whose
        gradient is ``owner.grad``, by Pearlmutter's R-op.

        ``curvature(z, lse, u)`` applies the loss's Hessian in logit space at
        the logits z, whose row log-sum-exp is lse, to the logits' directional
        derivative u. The R passes read
        the kept pass when it is ``owner``'s gradient on these ``theta`` and
        ``batch`` objects; otherwise ``owner.grad`` runs first to keep one.
        ``curvature`` must not call this oracle.
        """
        self._check_theta(theta)
        if v.dim != self.dim:
            raise ValueError(
                f"dimension mismatch: direction has {v.dim}, oracle expects {self.dim}")
        kept = self._last_pass
        if kept is None or kept.theta is not theta or kept.batch is not batch \
                or kept.owner is None or kept.owner() is not owner:
            owner.grad(theta, batch)
            kept = self._last_pass
        acts, buffers = kept.acts, kept.buffers
        r_buffers = self._workspace(batch.n, self._r_workspaces)
        data, vdata = theta.data, v.data
        last = self.n_layers - 1
        # R-forward: Rz of every block's output, Ra of every hidden activation
        for layer, (w0, w1, w_shape, b0, b1) in enumerate(self._layers):
            V = vdata[w0:w1].reshape(w_shape).T
            Rz = np.matmul(acts[layer], V, out=r_buffers[layer][0]) if layer < last \
                else acts[layer] @ V
            if layer > 0:
                W = data[w0:w1].reshape(w_shape).T
                Rz += np.matmul(Ra, W, out=r_buffers[layer][3]) if layer < last else Ra @ W
            Rz += vdata[b0:b1]
            if layer < last:
                Ra = np.multiply(buffers[layer][3], Rz, out=r_buffers[layer][1])
        # R-backward from the logit curvature, reading the kept errors G
        flat = np.empty(self.dim)
        z = kept.logits
        RG = curvature(z, _logsumexp(z) if kept.lse is None else kept.lse, Rz)
        G = kept.top_error
        for layer in range(last, -1, -1):
            w0, w1, w_shape, b0, b1 = self._layers[layer]
            block = flat[w0:w1].reshape(w_shape)
            np.matmul(RG.T, acts[layer], out=block)
            np.add.reduce(RG, axis=0, out=flat[b0:b1])
            if layer > 0:
                Rz_in, Ra_in, RG_in, tmp = r_buffers[layer - 1]
                block += G.T @ Ra_in
                np.matmul(RG, data[w0:w1].reshape(w_shape), out=RG_in)
                RG_in += np.matmul(G, vdata[w0:w1].reshape(w_shape), out=tmp)
                G_in, deriv = buffers[layer - 1][2:]
                RG_in *= deriv
                if self.spec.activation == "tanh":  # tanh'' = -2 tanh tanh'; relu'' = 0
                    np.multiply(acts[layer], G_in, out=tmp)
                    tmp *= Rz_in
                    tmp *= 2.0
                    RG_in -= tmp
                RG, G = RG_in, G_in
        if self.l2 > 0:
            flat += self.l2 * vdata
        return theta._adopt(flat)

    def _ce_error(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Cross-entropy logit error of ``z`` (``_ce_output_error``). When ``z``
        is the kept pass's logits, their row log-sum-exp is kept with them."""
        G, lse = _ce_output_error(z, y)
        kept = self._last_pass
        if kept is not None and kept.logits is z:
            kept.lse = lse
        return G

    def _loss_and_logits(self, theta: ParamVector, batch: Batch) -> tuple[float, np.ndarray]:
        """Mean cross-entropy plus the L2 term, and the logits it was computed
        from: the kept pass's logits when it ran on these very objects."""
        kept = self._last_pass
        if kept is not None and kept.theta is theta and kept.batch is batch:
            z, lse = kept.logits, kept.lse
        else:
            self._check_labels(batch)
            z, lse = self.logits(theta, batch.x), None
        if lse is None:
            lse = _logsumexp(z)
        # np.mean's value (sum, then divide by the count) without its dispatch
        ce = float(np.add.reduce(lse - z[np.arange(batch.n), batch.y]) / batch.n)
        return ce + 0.5 * self.l2 * float(theta.data @ theta.data), z

    def loss(self, theta, batch=None) -> float:
        return self._loss_and_logits(theta, batch)[0]

    def grad(self, theta, batch=None) -> ParamVector:
        return self.grad_from_output_error(
            theta, batch, lambda z: self._ce_error(z, batch.y), owner=self)

    def hvp(self, theta, v, batch=None) -> ParamVector:
        return self.hvp_from_curvature(theta, v, batch, self, _ce_curvature)

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
        if batch.y_max >= self.n_classes:
            raise ValueError(f"label {batch.y_max} outside head width {self.n_classes}")

    @property
    def head_weight_name(self) -> str:
        return self.manifest[-2].name


def _layout(manifest) -> str:
    return "[" + ", ".join(f"{seg.name}{seg.shape}@{seg.offset}" for seg in manifest) + "]"


def make_logreg(d_in: int, n_classes: int, l2: float = 0.0) -> MlpOracle:
    """Multinomial logistic regression: an MLP with no hidden layer."""
    return MlpOracle(MlpSpec(d_in, (), n_classes, l2=l2))


def make_mlp(spec: MlpSpec, rng: SeededRng) -> MlpOracle:
    """Initialized MLP oracle; the seeded parameters are attached as theta0."""
    oracle = MlpOracle(spec)
    oracle.theta0 = oracle.init_theta(rng)
    return oracle
