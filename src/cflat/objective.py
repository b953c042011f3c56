"""Differentiable objectives: a quadratic oracle and a softmax MLP oracle.

Every oracle exposes ``loss``, ``grad``, ``hvp`` and ``hessian_trace`` on a
batch, and every Hessian-vector product and trace is exact. The MLP takes its
products by Pearlmutter's R-op (Pearlmutter 1994, "Fast exact multiplication
by the Hessian"): an R-forward pass that carries the directional derivative
of every pre-activation, then an R-backward pass that starts from the loss's
logit-space curvature applied to the logits' derivative. Its trace
back-propagates each example's pre-activation Hessian from the same
curvature, layer by layer. A softmax-model gradient costs one forward and one
backward pass; an HVP on the point and batch of the last gradient costs the
two R passes only, and elsewhere a gradient pass beyond them. Losses are
mean-reduced over the batch so step sizes and perturbation radii transfer
across batch sizes.

Seed stacks: the MLP oracle and the distillation objective also take a stack
of S seeds' parameters (``theta.data`` of shape (S, d)) with a stack of S
batches (``Batch`` arrays (S, n, d_in) and (S, n)), row s of one with row s of
the other. Every array of a pass then carries the leading seed axis, ``loss``
returns an (S,) array, and ``grad`` and ``hvp`` return stacks; each row is
bit-identical to the call on that seed alone. A 1-D theta with a 2-D batch
runs the same lines on today's arrays. ``select_rows`` narrows an objective,
its parameters and its batch to some rows of the stack, carrying the kept pass
(below) along, so a step can work on the seeds that need more work alone.

Workspace contract of the MLP oracle: it keeps one set of hidden-layer buffers
per leading batch shape, (n,) or (S, n) (for the last few shapes it has
seen), for its forward and backward passes, and another for its R passes, and
writes into them instead of allocating. Every array it returns (logits,
representations, gradients, products) is fresh, so no caller sees a buffer
that a later call overwrites. The price is that an ``output_error`` or
``curvature`` callback must not call back into the same oracle: the buffers of
the pass it sits in would be overwritten.

Kept pass of the MLP oracle: every gradient's ``output_error`` callback
returns the pair ``(G, lse)``, the logit error and the row log-sum-exp of the
logits, which the cross-entropy error computes from the same max, exp and row
sum. Once the backward pass is done the gradient keeps one entry, built whole:
the ``theta`` and ``Batch`` objects of its forward pass, that pass's logits
(read-only), ``lse`` and ``G``, the objective it was the gradient of, and the
pass's activations, activation derivatives and back-propagated errors. A
``loss`` on the same two objects reads the loss from the logits and ``lse``
instead of running the forward pass again, so a loss right after a gradient,
as in every optimizer step's prologue, costs no second pass and no exp, and
is bit-identical to a fresh one. Three entries share the pass:
``grad_from_output_error`` keeps it, and ``hvp_from_curvature`` (``hvp``) and
``trace_from_curvature`` (``hessian_trace``) of the same objective on the
same two objects read the rest and run no primal pass. Any forward pass at
the entry's leading batch shape drops it, since it overwrites the buffers the
entry reads. The entry matches objects by identity: a ``ParamVector`` is
read-only, and a ``Batch``'s arrays must not be mutated
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

from .numcore import ParamVector, SeededRng, Segment, _self_dots

__all__ = [
    "Batch",
    "ObjectiveOracle",
    "QuadraticOracle",
    "ACTIVATION_NAMES",
    "MlpSpec",
    "MlpOracle",
    "make_quadratic",
    "mlp_manifest",
]


@dataclass(frozen=True)
class Batch:
    """A feature matrix (n, d_in) with integer class labels in [0, C), or a
    stack of S such batches, (S, n, d_in) with labels (S, n), one per seed.

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
        if x.ndim not in (2, 3):
            raise ValueError(
                f"features must be 2-D (3-D for a seed stack), got shape {x.shape}")
        if y.shape != x.shape[:-1]:
            raise ValueError("labels must be 1-D and aligned with features "
                             "(2-D for a seed stack)")
        if x.shape[-2] < 1:
            raise ValueError("batch must contain at least one example")
        if (y < 0).any():
            raise ValueError("labels must be nonnegative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "y_max", int(y.max()))

    @classmethod
    def _rows(cls, x: np.ndarray, y: np.ndarray) -> "Batch":
        """Batch of rows taken from an already checked batch's arrays.

        Internal constructor for ``train_epochs`` and ``select_rows``: ``x``
        (float64, 2-D or a 3-D stack) and ``y`` (int64, nonnegative, aligned,
        at least one row) are not checked
        again; only the largest label is taken.
        """
        batch = object.__new__(cls)
        object.__setattr__(batch, "x", x)
        object.__setattr__(batch, "y", y)
        object.__setattr__(batch, "y_max", int(y.max()))
        return batch

    @property
    def n(self) -> int:
        """Examples per seed."""
        return self.x.shape[-2]


class ObjectiveOracle:
    """Contract: twice-differentiable scalar loss with grad/hvp entry points."""

    dim: int

    def loss(self, theta: ParamVector, batch: Batch | None = None) -> float:
        raise NotImplementedError

    def grad(self, theta: ParamVector, batch: Batch | None = None) -> ParamVector:
        raise NotImplementedError

    def hvp(self, theta: ParamVector, v: ParamVector, batch: Batch | None = None) -> ParamVector:
        raise NotImplementedError

    def hessian_trace(self, theta: ParamVector, batch: Batch | None = None) -> float:
        raise NotImplementedError

    def _require_dim(self, theta: ParamVector) -> None:
        if theta.dim != self.dim:
            raise ValueError(f"dimension mismatch: theta has {theta.dim}, oracle expects {self.dim}")

    @staticmethod
    def _require_one_seed(theta: ParamVector, batch: Batch | None = None) -> None:
        """The exact trace is of one seed's loss: a 1-D theta and a 2-D batch."""
        if theta.data.ndim != 1 or (batch is not None and batch.x.ndim != 2):
            raise ValueError(
                f"hessian_trace takes one seed's 1-D theta and 2-D batch, got theta of shape "
                f"{theta.data.shape}" + ("" if batch is None else
                                         f" and features of shape {batch.x.shape}"))


class QuadraticOracle(ObjectiveOracle):
    """L(theta) = 0.5 (theta - c)^T H (theta - c) with analytic grad and hvp.

    The batch argument is accepted and ignored: the loss is data-free, which
    makes curvature quantities exactly computable for verification. It takes
    one 1-D theta at a time, not a seed stack.
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

    def hessian_trace(self, theta, batch=None) -> float:
        self._require_dim(theta)
        self._require_one_seed(theta)
        return float(np.trace(self.H))


def make_quadratic(H, c=None) -> QuadraticOracle:
    return QuadraticOracle(H, c)


def _exp_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(z - row max), its row sums (..., n, 1) and the row log-sum-exp (..., n)."""
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=-1, keepdims=True)
    return e, s, m[..., 0] + np.log(s[..., 0])


def _logsumexp(z: np.ndarray) -> np.ndarray:
    return _exp_rows(z)[2]


def _softmax(z: np.ndarray) -> np.ndarray:
    e, s, _ = _exp_rows(z)
    e /= s
    return e


def _softmax_jvp(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise Jacobian product of the softmax at probabilities p, (diag(p) - p p^T) u."""
    pu = p * u
    pu -= p * pu.sum(axis=-1, keepdims=True)
    return pu


def _label_index(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each example's label entry in logits reshaped to (-1, C)."""
    return np.arange(y.size), y.reshape(-1)


def _scalar(value):
    """A float for one seed's 0-d value; a seed stack's (S,) array as it is."""
    return float(value) if np.ndim(value) == 0 else value


def _ce_output_error(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logit gradient of the mean cross-entropy, (softmax(z) - onehot(y)) / n,
    and the row log-sum-exp of z, both from one ``_exp_rows`` pass."""
    g, s, lse = _exp_rows(z)
    g /= s
    g.reshape(-1, g.shape[-1])[_label_index(y)] -= 1.0
    g /= y.shape[-1]
    return g, lse


def _ce_curvature(z: np.ndarray, lse: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Logit-space Hessian of the mean cross-entropy at logits z with row
    log-sum-exp lse, applied to u: (diag(p) - p p^T) u / n row by row."""
    h = _softmax_jvp(np.exp(z - lse[..., None]), u)
    h /= z.shape[-2]
    return h


def _block(data: np.ndarray, start: int, stop: int, shape: tuple) -> np.ndarray:
    """Entries [start, stop) of a flat vector, or of each row of a stack,
    reshaped to ``shape`` after the seed axis (a view)."""
    return data[..., start:stop].reshape(data.shape[:-1] + shape)


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

# Rows whose curvature blocks the exact trace carries at once: its
# temporaries are (rows, width, width) per layer.
_TRACE_BLOCK_ROWS = 64

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


@dataclass(frozen=True, slots=True)
class _KeptPass:
    """The last gradient pass of an ``MlpOracle`` (see the module docstring).

    ``buffers`` is the workspace the hidden entries of ``acts`` live in (for
    a pass narrowed by ``select_rows``, copies of its rows), which also holds
    each hidden layer's back-propagated error and activation derivative; ``top_error`` and ``lse`` are the pair ``output_error``
    returned. ``owner`` is a weak reference to the objective, or None when
    the gradient named none: a strong one would make a cycle through the
    oracle, which keeps a discarded oracle's workspaces alive until the
    cyclic garbage collector runs.
    """

    theta: ParamVector
    batch: Batch
    acts: list
    logits: np.ndarray
    buffers: list
    lse: np.ndarray
    top_error: np.ndarray
    owner: weakref.ref | None


class MlpOracle(ObjectiveOracle):
    """Fully-connected softmax cross-entropy classifier with backprop gradients
    and exact R-op Hessian-vector products.

    The model is a stack of ``n_layers`` affine blocks (W{l}, b{l}) with the
    spec's activation between them. ``grad_from_output_error`` is the one
    gradient entry: it checks theta and the batch, runs one forward pass and
    backpropagates an output-layer error computed from its logits, L2 term
    included. ``hvp_from_curvature`` is the one product entry: it applies the
    Hessian of the same loss by one R-forward and one R-backward pass, given
    the loss's logit-space curvature. ``trace_from_curvature`` takes the
    exact Hessian trace from the same curvature by back-propagating each
    example's pre-activation Hessian. Cross-entropy (``grad``, ``hvp``,
    ``hessian_trace``) and distillation differ only in those two callbacks.
    The entries keep or read the last gradient pass (see the module
    docstring), so a loss, an HVP or the trace right after a gradient on the
    same objects runs no forward pass.

    Each layer's (W start, W stop, W shape, b start, b stop) in the flat
    vector is computed once from the manifest; passes read the blocks as
    slices of ``theta.data`` and write the gradient block by block into one
    fresh flat array. A theta whose manifest differs from the oracle's is
    rejected with a ``ValueError`` naming both layouts.

    Each hidden layer's pre-activation, activation, back-propagated error and
    activation derivative live in a workspace kept per leading batch shape,
    and the R passes' four per-layer arrays in a second one, so a pass at a
    shape seen before allocates only the logit-sized arrays and the flat
    result. Every pass is written once for a vector or a seed stack: blocks
    are read with ``...`` and reduced over ``axis=-2``. Outputs are always
    fresh arrays; a callback must not call back into the same oracle (see the
    module docstring).
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

    def _workspace(self, lead: tuple, cache: dict | None = None) -> list[tuple[np.ndarray, ...]]:
        """Per hidden layer four ``lead`` + (width,) buffers from ``cache``
        (default the primal workspace: pre-activation, activation,
        back-propagated error, derivative); ``lead`` is the batch's leading
        shape, (n,) or (S, n)."""
        cache = self._workspaces if cache is None else cache
        buffers = cache.get(lead)
        if buffers is None:
            if len(cache) >= _WORKSPACE_ROW_COUNTS:
                del cache[next(iter(cache))]
            buffers = cache[lead] = [tuple(np.empty(lead + (w,)) for _ in range(4))
                                     for w in self.spec.hidden]
        return buffers

    def _forward(self, theta: ParamVector, x: np.ndarray):
        """(acts, pre): each block's input and its affine output; pre[-1] is the logits.

        Checks theta's layout and drops a kept pass at this leading shape,
        whose buffers it overwrites. Hidden-layer entries are workspace
        buffers; the logits are fresh.
        """
        self._check_theta(theta)
        lead = x.shape[:-1]
        kept = self._last_pass
        if kept is not None and kept.batch.x.shape[:-1] == lead:
            self._last_pass = None
        buffers = self._workspace(lead)
        data = theta.data
        last = self.n_layers - 1
        acts = [x]
        pre = []
        a = x
        for layer, (w0, w1, w_shape, b0, b1) in enumerate(self._layers):
            W = _block(data, w0, w1, w_shape).swapaxes(-1, -2)
            z = np.matmul(a, W, out=buffers[layer][0]) if layer < last else a @ W
            z += data[..., None, b0:b1]
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
        buffers = self._workspace(acts[0].shape[:-1])
        data = theta.data
        flat = np.empty(data.shape)
        G = dlogits
        for layer in range(self.n_layers - 1, -1, -1):
            w0, w1, w_shape, b0, b1 = self._layers[layer]
            np.matmul(G.swapaxes(-1, -2), acts[layer], out=_block(flat, w0, w1, w_shape))
            np.add.reduce(G, axis=-2, out=flat[..., b0:b1])
            if layer > 0:
                _, _, GW, deriv = buffers[layer - 1]
                np.matmul(G, _block(data, w0, w1, w_shape), out=GW)
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
        """Gradient, L2 term included, of a loss on ``batch``; one forward pass.

        ``output_error(logits)`` returns ``(G, lse)``, the loss's logit
        gradient and the logits' row log-sum-exp, and must not call this
        oracle. After the backward pass the pass is kept whole for
        ``_loss_and_logits`` and, tagged with the objective ``owner`` whose
        gradient this is, for ``hvp_from_curvature``."""
        self._check_labels(batch)
        acts, pre = self._forward(theta, batch.x)
        z = pre[-1]
        z.setflags(write=False)
        G, lse = output_error(z)
        flat = self._backprop(theta, acts, pre, G)
        self._last_pass = _KeptPass(theta, batch, acts, z, self._workspace(batch.x.shape[:-1]),
                                    lse, G, None if owner is None else weakref.ref(owner))
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
        if v.data.shape != theta.data.shape:
            raise ValueError(
                f"dimension mismatch: direction has shape {v.data.shape}, "
                f"theta has {theta.data.shape}")
        kept = self._kept_pass_of(theta, batch, owner)
        acts, buffers = kept.acts, kept.buffers
        r_buffers = self._workspace(batch.x.shape[:-1], self._r_workspaces)
        data, vdata = theta.data, v.data
        last = self.n_layers - 1
        # R-forward: Rz of every block's output, Ra of every hidden activation
        for layer, (w0, w1, w_shape, b0, b1) in enumerate(self._layers):
            V = _block(vdata, w0, w1, w_shape).swapaxes(-1, -2)
            Rz = np.matmul(acts[layer], V, out=r_buffers[layer][0]) if layer < last \
                else acts[layer] @ V
            if layer > 0:
                W = _block(data, w0, w1, w_shape).swapaxes(-1, -2)
                Rz += np.matmul(Ra, W, out=r_buffers[layer][3]) if layer < last else Ra @ W
            Rz += vdata[..., None, b0:b1]
            if layer < last:
                Ra = np.multiply(buffers[layer][3], Rz, out=r_buffers[layer][1])
        # R-backward from the logit curvature, reading the kept errors G
        flat = np.empty(data.shape)
        RG = curvature(kept.logits, kept.lse, Rz)
        G = kept.top_error
        for layer in range(last, -1, -1):
            w0, w1, w_shape, b0, b1 = self._layers[layer]
            block = _block(flat, w0, w1, w_shape)
            np.matmul(RG.swapaxes(-1, -2), acts[layer], out=block)
            np.add.reduce(RG, axis=-2, out=flat[..., b0:b1])
            if layer > 0:
                Rz_in, Ra_in, RG_in, tmp = r_buffers[layer - 1]
                block += G.swapaxes(-1, -2) @ Ra_in
                np.matmul(RG, _block(data, w0, w1, w_shape), out=RG_in)
                RG_in += np.matmul(G, _block(vdata, w0, w1, w_shape), out=tmp)
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

    def trace_from_curvature(self, theta: ParamVector, batch: Batch, owner,
                             curvature) -> float:
        """Exact Hessian trace, L2 term included, of the loss whose gradient is
        ``owner.grad``, by back-propagating each example's pre-activation
        Hessian (Dangel, Harmeling & Hennig 2020, Hessian backpropagation).

        It reads the kept pass as ``hvp_from_curvature`` does. For each block
        of ``_TRACE_BLOCK_ROWS`` rows, ``curvature`` applied to the C unit
        vectors (as one leading axis of u) gives every row's logit-space
        Hessian block B. ``curvature`` is mean-reduced over the rows it is
        given, so the blocks are rescaled from the block's rows to the
        batch's. Then, from the top layer down, the trace gains
        sum_n (||a_n||^2 + 1) tr(B_n) for the layer's input activations a,
        and the blocks step down a layer as D' (W^T B W) D', minus, for tanh,
        2 a G on the diagonal, where G is the kept back-propagated error
        (the R-op's tanh'' = -2 tanh tanh' identity; relu'' = 0). The bottom
        layer needs only the diagonal of its blocks, so a one-hidden-layer
        model never forms a (rows, width, width) array.
        """
        self._check_theta(theta)
        self._require_one_seed(theta, batch)
        kept = self._kept_pass_of(theta, batch, owner)
        n, C = kept.logits.shape
        units = np.eye(C)[:, None, :]
        data = theta.data
        total = 0.0
        for start in range(0, n, _TRACE_BLOCK_ROWS):
            rows = slice(start, start + _TRACE_BLOCK_ROWS)
            z = kept.logits[rows]
            m = len(z)
            # entry [c, r, i] is row r's block applied to e_c: B_r[i, c]
            B = curvature(z, kept.lse[rows], units).transpose(1, 2, 0) * (m / n)
            diagonal = np.einsum("rii->ri", B)
            for layer in range(self.n_layers - 1, -1, -1):
                a = kept.acts[layer][rows]
                total += float((np.einsum("ri,ri->r", a, a) + 1.0) @ diagonal.sum(axis=1))
                if layer == 0:
                    break
                w0, w1, (d_out, d_in), _, _ = self._layers[layer]
                W = _block(data, w0, w1, (d_out, d_in))
                BW = (B.reshape(-1, d_out) @ W).reshape(m, d_out, d_in)
                G_in, deriv = kept.buffers[layer - 1][2:]
                d = deriv[rows]
                # the diagonal of the blocks one layer down
                diagonal = np.einsum("rci,ci->ri", BW, W) * (d * d)
                if self.spec.activation == "tanh":
                    diagonal -= 2.0 * a * G_in[rows]
                if layer > 1:  # whole blocks only while a layer below reads them
                    B = np.matmul(W.T, BW)
                    B *= d[:, :, None]
                    B *= d[:, None, :]
                    B.reshape(m, -1)[:, ::d_in + 1] = diagonal
        return total + self.l2 * self.dim

    def _kept_pass_of(self, theta: ParamVector, batch: Batch, owner) -> _KeptPass:
        """The kept pass when it is ``owner``'s gradient on these ``theta``
        and ``batch`` objects; otherwise ``owner.grad`` runs first to keep one."""
        kept = self._last_pass
        if kept is None or kept.theta is not theta or kept.batch is not batch \
                or kept.owner is None or kept.owner() is not owner:
            owner.grad(theta, batch)
            kept = self._last_pass
        return kept

    def _loss_and_logits(self, theta: ParamVector, batch: Batch) -> tuple:
        """Mean cross-entropy plus the L2 term (a 0-d value, or one per seed
        of a stack), and the logits it was computed from: the kept pass's
        logits when it ran on these very objects."""
        kept = self._last_pass
        if kept is not None and kept.theta is theta and kept.batch is batch:
            z, lse = kept.logits, kept.lse
        else:
            self._check_labels(batch)
            z = self.logits(theta, batch.x)
            lse = _logsumexp(z)
        at_label = z.reshape(-1, z.shape[-1])[_label_index(batch.y)].reshape(batch.y.shape)
        # np.mean's value (sum, then divide by the count) without its dispatch
        ce = np.add.reduce(lse - at_label, axis=-1) / batch.n
        return ce + 0.5 * self.l2 * _self_dots(theta.data), z

    def loss(self, theta, batch=None):
        return _scalar(self._loss_and_logits(theta, batch)[0])

    def grad(self, theta, batch=None) -> ParamVector:
        return self.grad_from_output_error(
            theta, batch, lambda z: _ce_output_error(z, batch.y), owner=self)

    def hvp(self, theta, v, batch=None) -> ParamVector:
        return self.hvp_from_curvature(theta, v, batch, self, _ce_curvature)

    def hessian_trace(self, theta, batch=None) -> float:
        return self.trace_from_curvature(theta, batch, self, _ce_curvature)

    def select_rows(self, theta: ParamVector, batch: Batch,
                    rows: np.ndarray) -> tuple["MlpOracle", ParamVector, Batch]:
        """This objective, ``theta`` and ``batch`` narrowed to the seed-stack
        ``rows`` (an index array); every seed-stack objective has one."""
        return (self, *self._keep_rows(theta, batch, rows, self, self))

    def _keep_rows(self, theta: ParamVector, batch: Batch, rows: np.ndarray,
                   source, owner) -> tuple[ParamVector, Batch]:
        """``theta`` and ``batch`` narrowed to the stack ``rows``; when the
        kept pass is ``source``'s gradient on them, it is narrowed too (its
        rows copied) and tagged with ``owner``, the narrowed objective, so an
        HVP on the narrowed objects reads it."""
        sub_theta = theta._adopt(theta.data[rows])
        sub_batch = Batch._rows(batch.x[rows], batch.y[rows])
        kept = self._last_pass
        if kept is not None and kept.theta is theta and kept.batch is batch \
                and kept.owner is not None and kept.owner() is source:
            buffers = [tuple(b[rows] for b in layer) for layer in kept.buffers]
            logits = kept.logits[rows]
            logits.setflags(write=False)
            self._last_pass = _KeptPass(
                sub_theta, sub_batch, [sub_batch.x] + [layer[1] for layer in buffers],
                logits, buffers, kept.lse[rows], kept.top_error[rows], weakref.ref(owner))
        return sub_theta, sub_batch

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
