"""Norms and affine isometries of finite-dimensional l^p spaces.

For p other than 2 the linear isometries of finite-dimensional l^p are the
signed permutations of the coordinates (Lamperti 1958), which are isometries
for every p; they are the only linear parts.  ``IsometryStack`` holds many
isometries of one space as arrays, one per row; it is the one isometry type.
Rows are validated once, by ``checked``, where a caller hands them in (a
rule, an oracle, block maps): ``inverse`` and ``after`` results are valid by
construction.  The one composition kernel, ``after``, composes chosen rows of
two stacks by gathering through flat indices; verifiers invert a stack once
and derive every transition between its rows from that inverse.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["lp_norm", "IsometryStack"]

_TOL = 1e-9


def _check_p(p) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ValueError(f"p must be at least 1, got {p}")
    return p


def lp_norm(values, p, axis=None):
    """l^p norm along ``axis`` (whole array when None); p may be ``inf``.

    Integer input of at most 32 bits is exact for p in {1, inf}: the maximum
    is taken in its own dtype and the sum accumulates in uint64.  Every other
    input and p goes through float64.  The result is float64.
    """
    p = _check_p(p)
    arr = np.asarray(values)
    if arr.dtype.kind in "iu" and arr.dtype.itemsize <= 4 and (math.isinf(p) or p == 1.0):
        if arr.dtype.kind == "i":
            # |v| wraps at the dtype's minimum, whose bits read unsigned are exactly |v|
            arr = np.abs(arr).view(arr.dtype.str.replace("i", "u"))
        if math.isinf(p):
            return arr.max(axis=axis, initial=0).astype(np.float64)
        return arr.sum(axis=axis, dtype=np.uint64).astype(np.float64)
    arr = np.abs(arr.astype(np.float64, copy=False))
    if math.isinf(p):
        return arr.max(axis=axis, initial=0.0)
    if p == 1.0:
        return arr.sum(axis=axis)
    if p == 2.0:
        return np.sqrt((arr * arr).sum(axis=axis))
    return (arr**p).sum(axis=axis) ** (1.0 / p)


class IsometryStack(NamedTuple):
    """Isometries v -> signs * v[perm] + translation of one space, one per row.

    Each array has shape ``(k, dim)``.  Row k maps v to ``signs[k] *
    v[perm[k]] + translation[k]``; ``inverse`` and ``after`` compute, row by
    row, the inverse and the composite of such maps.
    """

    perm: np.ndarray
    signs: np.ndarray
    translation: np.ndarray

    @classmethod
    def identity(cls, rows: int, dim: int) -> "IsometryStack":
        perm = np.tile(np.arange(dim, dtype=np.int64), (rows, 1))
        return cls(perm, np.ones_like(perm), np.zeros(perm.shape))

    def checked(self, shape: tuple) -> tuple["IsometryStack", tuple | int | None]:
        """This stack cast to int64 ``perm`` and ``signs`` and float64 ``translation``
        (None fields stay None), and the first fault: None, the shape of a field
        not of ``shape``, or the flat index of the first row along the last axis
        with a non-integer entry, a perm not a permutation of ``range(shape[-1])``
        or a sign other than +1 and -1.  Translations are only cast.
        """
        fields = [None if a is None else np.asarray(a) for a in self]
        wrong = next((a.shape for a in fields if a is not None and a.shape != shape), None)
        if wrong is not None:
            return self, wrong
        dtypes = (np.int64, np.int64, np.float64)
        with np.errstate(invalid="ignore"):  # a NaN or inf entry casts to garbage, caught below
            cast = [a if a is None else a.astype(t, copy=False) for a, t in zip(fields, dtypes)]
        perm, signs, _ = cast
        valid = (np.sort(perm, axis=-1) == np.arange(shape[-1])).all(axis=-1)
        if signs is not None:
            valid &= (np.abs(signs) == 1).all(axis=-1)
        for a, b in zip(fields, cast[:2]):
            if b is not None and not np.can_cast(a.dtype, np.int64):  # float or uint64 input
                valid &= (b == a).all(axis=-1)
        return IsometryStack(*cast), None if valid.all() else int(np.argmin(valid.ravel()))

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Row k applied to ``vectors[k]``."""
        return self.signs * np.take_along_axis(vectors, self.perm, axis=1) + self.translation

    def inverse(self) -> "IsometryStack":
        # a scatter, O(dim) per row: inv[perm[j]] = j
        inv = np.empty_like(self.perm)
        np.put_along_axis(inv, self.perm, np.arange(self.perm.shape[-1]), axis=-1)
        signs = np.take_along_axis(self.signs, inv, axis=1)
        shift = -(signs * np.take_along_axis(self.translation, inv, axis=1))
        return IsometryStack(inv, signs, shift)

    def after(self, other: "IsometryStack", a, b) -> "IsometryStack":
        """Row ``a[k]`` of this stack after row ``b[k]`` of ``other``; a, b of any one shape.

        Entries of ``other`` are gathered through flat indices ``b * dim +
        perm[a]`` into its raveled arrays, with no copy of its rows.  A
        transition between two rows of one stack is ``stack.after(inverse, a,
        b)`` with ``inverse = stack.inverse()`` computed once.
        """
        b = np.asarray(b)
        flat = self.perm[a]
        flat += (b * self.perm.shape[-1])[..., None]
        signs = self.signs[a]
        return IsometryStack(
            np.take(other.perm, flat),
            signs * np.take(other.signs, flat),
            signs * np.take(other.translation, flat) + self.translation[a],
        )

    def differs(self, other: "IsometryStack", tol: float = _TOL) -> np.ndarray:
        """Rows off the rows of ``other`` they broadcast against: in perm, signs or past ``tol``."""
        same = (self.perm == other.perm).all(axis=-1) & (self.signs == other.signs).all(axis=-1)
        near = np.isclose(self.translation, other.translation, rtol=0.0, atol=tol)
        return ~(same & near.all(axis=-1))

    def take(self, rows) -> "IsometryStack":
        return IsometryStack(self.perm[rows], self.signs[rows], self.translation[rows])
