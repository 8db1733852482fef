"""Numeric values: float64 scalars, vectors and matrices with an optional
leading batch dimension.

A ``Value`` is what crosses every interface: program inputs and outputs,
tape records, parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch

_CORE_NDIM = {"scalar": 0, "vector": 1, "matrix": 2}
_new_value = object.__new__
# numpy's scalar float64: what a ufunc returns on 0-d arrays, and the type
# of the operands and results of the scalar kernels (see ``runtime``).
F64 = np.float64


def _float64(data) -> np.ndarray:
    """``data`` as a float64 array.  What is not real numbers (a string, a
    dict, a complex number) raises ShapeMismatch naming it, where numpy
    would raise its own error, read a numeric string, or drop an imaginary
    part behind a warning.  None reads as NaN."""
    try:
        arr = np.asarray(data)
        if arr.dtype.kind in "biufO":  # bool, integer, float, or objects such as None
            return arr.astype(np.float64, copy=False)
    except (TypeError, ValueError):
        pass
    raise ShapeMismatch(f"not a real number, vector or matrix: {data!r:.80}")


class Value:
    """An immutable float64 array with a kind tag.

    Shapes are [] / [n] / [n, m] for unbatched values and [B] / [B, n] /
    [B, n, m] when ``batched`` is set; the batch dimension is always
    leading.  ``data`` is always an ndarray, 0-d for an unbatched
    scalar, and is never written in place: values are shared between
    slots, tapes and runs.
    """

    __slots__ = ("data", "kind", "batched")

    def __init__(self, data, kind: str, batched: bool = False):
        arr = _float64(data)
        if kind not in _CORE_NDIM:
            raise ShapeMismatch(f"unknown kind {kind!r}")
        expected = _CORE_NDIM[kind] + (1 if batched else 0)
        if arr.ndim != expected:
            raise ShapeMismatch(
                f"{kind} value expects ndim {expected}"
                f"{' (batched)' if batched else ''}, got shape {arr.shape}"
            )
        self.data = arr
        self.kind = kind
        self.batched = batched

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(x) -> "Value":
        return Value(x, "scalar")

    @staticmethod
    def vector(v) -> "Value":
        return Value(v, "vector")

    @staticmethod
    def matrix(m) -> "Value":
        return Value(m, "matrix")

    @staticmethod
    def batch_scalars(arr) -> "Value":
        return Value(arr, "scalar", batched=True)

    @staticmethod
    def batch_vectors(arr) -> "Value":
        return Value(arr, "vector", batched=True)

    @staticmethod
    def batch_matrices(arr) -> "Value":
        return Value(arr, "matrix", batched=True)

    @staticmethod
    def trusted(data: np.ndarray, kind: str, batched: bool) -> "Value":
        """Wrap a float64 ndarray whose ndim the caller already knows to fit
        ``kind`` and ``batched``; nothing is converted or checked."""
        v = _new_value(Value)
        v.data = data
        v.kind = kind
        v.batched = batched
        return v

    @staticmethod
    def of(x) -> "Value":
        """Coerce plain numbers/arrays: 0-d -> scalar, 1-d -> vector,
        2-d -> matrix.  Batched values must be constructed explicitly."""
        if isinstance(x, Value):
            return x
        arr = _float64(x)
        if arr.ndim == 0:
            return Value(arr, "scalar")
        if arr.ndim == 1:
            return Value(arr, "vector")
        if arr.ndim == 2:
            return Value(arr, "matrix")
        raise ShapeMismatch(f"cannot infer value kind for shape {arr.shape}")

    # -- introspection -----------------------------------------------------

    @property
    def core_shape(self) -> tuple[int, ...]:
        return self.data.shape[1:] if self.batched else self.data.shape

    @property
    def batch_size(self) -> int | None:
        return self.data.shape[0] if self.batched else None

    def item(self) -> float:
        return float(self.data)

    def unbatch(self, i: int) -> "Value":
        if not self.batched:
            raise ShapeMismatch("value is not batched")
        return Value(self.data[i], self.kind)

    def __repr__(self) -> str:
        b = f", batch={self.data.shape[0]}" if self.batched else ""
        return f"Value({self.kind}{b}, {self.data!r})"


def frozen_scalar(x) -> Value:
    """An unbatched scalar around a read-only 0-d array, for a value that
    callers may keep and share (compiled constants, program outputs)."""
    arr = np.array(x, dtype=np.float64)
    arr.setflags(write=False)  # cheaper than setting arr.flags.writeable
    return Value.trusted(arr, "scalar", False)


def bit_equal(a: Value, b: Value) -> bool:
    """Equal kind, batching, shape and raw bits: NaNs of another sign or payload differ."""
    if a.kind != b.kind or a.batched != b.batched or a.data.shape != b.data.shape:
        return False
    av = a.data.view(np.uint64)
    bv = b.data.view(np.uint64)
    return bool(np.array_equal(av, bv))


def stack_batch(values: list[Value]) -> Value:
    """Stack unbatched values of a common kind into a batched value."""
    kinds = {v.kind for v in values}
    if len(kinds) != 1:
        raise ShapeMismatch(f"cannot stack mixed kinds {kinds}")
    if any(v.batched for v in values):
        raise ShapeMismatch("stack_batch expects unbatched values")
    return Value(np.stack([v.data for v in values]), kinds.pop(), batched=True)
