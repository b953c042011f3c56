"""Deterministic flat-vector numerics and seeded randomness.

Every quantity is a 64-bit float and every operation is a pure function of
its inputs, so repeated calls are bit-identical. A ``ParamVector`` is one
flat vector (shape (d,)) or a stack of them, one row per seed (shape (S, d));
the arithmetic here works row by row on a stack, and each row's result is
bit-identical to the same operation on that row alone. Randomness is
counter-based (Philox) keyed on a (seed, stream) pair, which makes draw
sequences reproducible across runs and platforms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Segment",
    "ParamVector",
    "SeededRng",
    "norm2",
    "axpy",
    "stack",
    "unstack",
    "restack",
]

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


@dataclass(frozen=True)
class Segment:
    """One named block of a flat parameter vector."""

    name: str
    offset: int
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return int(math.prod(self.shape))


class ParamVector:
    """Flat float64 vector with a manifest mapping segments to tensors.

    Data of shape (S, d) is a stack of S vectors on one manifest, one row per
    seed; any other shape is flattened to one vector. ``dim`` is d either way,
    ``view`` keeps the leading seed axis and ``row`` is one row as a vector.
    The public constructor and ``with_data`` copy the data they are given,
    check it against the manifest and mark the copy read-only; all operations
    return new vectors. Each checked construction indexes the manifest once by
    segment name, and every vector derived through ``_adopt`` shares that
    index, so ``view`` and ``segment`` are one dict lookup.
    """

    __slots__ = ("data", "manifest", "_index")

    def __init__(self, data, manifest: Sequence[Segment] | None = None):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 2:
            arr = arr.reshape(-1)
        arr.setflags(write=False)
        if manifest is None:
            manifest = (Segment("theta", 0, (arr.size,)),)
        manifest = tuple(manifest)
        index = {}
        total = 0
        for seg in reversed(manifest):  # the first segment of a name wins
            size = seg.size
            index[seg.name] = (seg.offset, seg.offset + size, seg)
            total += size
        if total != arr.shape[-1]:
            raise ValueError(
                f"manifest covers {total} entries but data has {arr.shape[-1]}"
            )
        self.data = arr
        self.manifest = manifest
        self._index = index

    def _adopt(self, arr: np.ndarray) -> "ParamVector":
        """New vector on this vector's manifest that takes ``arr`` as its data.

        Internal constructor for the package's own arithmetic: ``arr`` must be
        a fresh 1-D or (S, d) float64 array of this vector's dimension that no
        one else writes. It is not copied or checked, only marked read-only.
        """
        arr.setflags(write=False)
        vec = object.__new__(ParamVector)
        vec.data = arr
        vec.manifest = self.manifest
        vec._index = self._index
        return vec

    @property
    def dim(self) -> int:
        return self.data.shape[-1]

    @property
    def stack_size(self) -> int:
        """Rows of a stack; 1 for a 1-D vector."""
        return 1 if self.data.ndim == 1 else len(self.data)

    def row(self, i: int) -> "ParamVector":
        """Row ``i`` of a stack as a 1-D vector (a read-only view)."""
        return self._adopt(self.data[i])

    def _bounds(self, name: str) -> tuple[int, int, Segment]:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no segment named {name!r}") from None

    def segment(self, name: str) -> Segment:
        return self._bounds(name)[2]

    def view(self, name: str) -> np.ndarray:
        """Read-only view of one segment, reshaped to its tensor shape (after
        the seed axis of a stack)."""
        start, stop, seg = self._bounds(name)
        return self.data[..., start:stop].reshape(self.data.shape[:-1] + seg.shape)

    def with_data(self, data) -> "ParamVector":
        """New vector with the same manifest and different values (copied)."""
        return ParamVector(data, self.manifest)

    def __reduce__(self):
        # Rebuild through the constructor so an unpickled vector stays read-only.
        return (ParamVector, (self.data, self.manifest))

    def __repr__(self) -> str:
        names = ",".join(seg.name for seg in self.manifest)
        return f"ParamVector(dim={self.dim}, segments=[{names}])"


def _mix_stream(stream: int, indices: tuple) -> int:
    # FNV-1a over the index tuple: a fixed, documented derivation so spawned
    # streams are identical on every platform.
    h = ((_FNV_OFFSET ^ (stream & _MASK64)) * _FNV_PRIME) & _MASK64
    for ix in indices:
        h = ((h ^ (int(ix) & _MASK64)) * _FNV_PRIME) & _MASK64
    return h


class SeededRng:
    """Counter-based RNG; identical (seed, stream) replays identical draws."""

    __slots__ = ("seed", "stream", "_gen")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        key = (self.seed << 64) | self.stream
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def spawn(self, *indices: int) -> "SeededRng":
        """Independent substream derived from this one and the given indices."""
        return SeededRng(self.seed, _mix_stream(self.stream, indices))

    def normal(self, mean: float = 0.0, std: float = 1.0, size=None):
        return self._gen.normal(mean, std, size)

    def fill_normal(self, out: np.ndarray) -> None:
        """Fill the C-contiguous float64 ``out`` with the draws
        ``normal(0.0, 1.0, out.shape)`` would return, allocating nothing."""
        self._gen.standard_normal(out=out)
        out += 0.0  # normal computes 0.0 + x, which maps -0.0 to +0.0

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int | None = None, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int) -> np.ndarray:
        """``size`` distinct integers drawn from range(``n``)."""
        return self._gen.choice(n, size=size, replace=False)

    def rademacher(self, size) -> np.ndarray:
        return self._gen.integers(0, 2, size).astype(np.float64) * 2.0 - 1.0

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream={self.stream})"


def _check_dims(a: ParamVector, b: ParamVector) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"dimension mismatch: {a.data.shape} vs {b.data.shape}")


def _self_dots(data: np.ndarray):
    """v . v for a 1-D array (a scalar), row by row for an (S, d) array.

    One stacked matmul of each row with itself: the BLAS dot product a 1-D
    ``data.dot(data)`` takes, bit for bit, on every row.
    """
    return np.matmul(data[..., None, :], data[..., :, None])[..., 0, 0]


def norm2(v: ParamVector):
    """Euclidean norm; 0 for the zero vector. A float for a 1-D vector, an
    (S,) array of row norms for a stack.

    sqrt(v . v) is what ``np.linalg.norm`` computes for a 1-D float64 array,
    without its dispatch.
    """
    sq = _self_dots(v.data)
    return math.sqrt(sq) if sq.ndim == 0 else np.sqrt(sq)


def axpy(alpha: float, x: ParamVector, y: ParamVector) -> ParamVector:
    """y + alpha * x as a new vector; inputs are not modified."""
    _check_dims(x, y)
    return y._adopt(y.data + float(alpha) * x.data)


def stack(vectors) -> ParamVector:
    """The vectors, which share one manifest, as the rows of one stack (copied)."""
    first = vectors[0]
    for v in vectors[1:]:
        if v.manifest != first.manifest:
            raise ValueError("stacked vectors must share one manifest")
    return first._adopt(np.stack([v.data for v in vectors]))


def unstack(v: ParamVector) -> list[ParamVector]:
    """The rows of a stack as 1-D vectors; ``[v]`` for a 1-D vector."""
    return [v] if v.data.ndim == 1 else [v.row(i) for i in range(v.stack_size)]


def restack(like: ParamVector, vectors: list[ParamVector]) -> ParamVector:
    """Inverse of ``unstack`` for a vector shaped like ``like``."""
    return vectors[0] if like.data.ndim == 1 else stack(vectors)
