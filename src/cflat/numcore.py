"""Deterministic flat-vector numerics and seeded randomness.

Every quantity is a 64-bit float and every operation is a pure function of
its inputs, so repeated calls are bit-identical. Randomness is counter-based
(Philox) keyed on a (seed, stream) pair, which makes draw sequences
reproducible across runs and platforms.
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
    "all_finite",
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

    The public constructor and ``with_data`` copy the data they are given,
    check it against the manifest and mark the copy read-only; all operations
    return new vectors. Each checked construction indexes the manifest once by
    segment name, and every vector derived through ``_adopt`` shares that
    index, so ``view`` and ``segment`` are one dict lookup.
    """

    __slots__ = ("data", "manifest", "_index")

    def __init__(self, data, manifest: Sequence[Segment] | None = None):
        arr = np.array(data, dtype=np.float64).reshape(-1)
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
        if total != arr.size:
            raise ValueError(
                f"manifest covers {total} entries but data has {arr.size}"
            )
        self.data = arr
        self.manifest = manifest
        self._index = index

    def _adopt(self, arr: np.ndarray) -> "ParamVector":
        """New vector on this vector's manifest that takes ``arr`` as its data.

        Internal constructor for the package's own arithmetic: ``arr`` must be
        a fresh 1-D float64 array of this vector's dimension that no one else
        holds. It is not copied or checked, only marked read-only.
        """
        arr.setflags(write=False)
        vec = object.__new__(ParamVector)
        vec.data = arr
        vec.manifest = self.manifest
        vec._index = self._index
        return vec

    @property
    def dim(self) -> int:
        return self.data.size

    def _bounds(self, name: str) -> tuple[int, int, Segment]:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no segment named {name!r}") from None

    def segment(self, name: str) -> Segment:
        return self._bounds(name)[2]

    def view(self, name: str) -> np.ndarray:
        """Read-only view of one segment, reshaped to its tensor shape."""
        start, stop, seg = self._bounds(name)
        return self.data[start:stop].reshape(seg.shape)

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

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def rademacher(self, size) -> np.ndarray:
        return self._gen.integers(0, 2, size).astype(np.float64) * 2.0 - 1.0

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream={self.stream})"


def _check_dims(a: ParamVector, b: ParamVector) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def norm2(v: ParamVector) -> float:
    """Euclidean norm; 0 for the zero vector.

    sqrt(v . v) is what ``np.linalg.norm`` computes for a 1-D float64 array,
    without its dispatch.
    """
    data = v.data
    return math.sqrt(data.dot(data))


def axpy(alpha: float, x: ParamVector, y: ParamVector) -> ParamVector:
    """y + alpha * x as a new vector; inputs are not modified."""
    _check_dims(x, y)
    return y._adopt(y.data + float(alpha) * x.data)


def all_finite(v: ParamVector) -> bool:
    return bool(np.isfinite(v.data).all())
