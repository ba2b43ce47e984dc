"""Norms and affine isometries of finite-dimensional l^p spaces.

For p other than 2 the linear isometries of finite-dimensional l^p are the
signed permutations of the coordinates (Lamperti 1958), which are isometries
for every p; they are the only linear parts.  Values are validated once, where
a caller constructs them: ``compose``, ``inverse`` and ``identity`` results are
valid by construction and skip the checks.  ``IsometryStack`` holds many
isometries of one space as arrays, for verifiers that compare them in bulk.
Its one composition kernel, ``after``, composes chosen rows of two stacks by
gathering through flat indices; verifiers invert a stack once and derive every
transition between its rows from that inverse.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "lp_norm",
    "SignedPermutation",
    "AffineIsometry",
    "IsometryStack",
    "identity_isometry",
]

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


def _unchecked(cls, *values):
    """Build ``cls`` from slot values already known to be valid, skipping ``__init__``."""
    new = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        setattr(new, name, value)
    return new


class SignedPermutation:
    """Linear map (Lv)_i = signs_i * v[perm_i]; an isometry of every l^p."""

    __slots__ = ("perm", "signs")

    def __init__(self, perm, signs):
        self.perm = np.asarray(perm, dtype=np.int64)
        self.signs = np.asarray(signs, dtype=np.int64)
        n = self.perm.shape[0]
        if self.signs.shape != (n,):
            raise ValueError("perm and signs must have equal length")
        if sorted(self.perm.tolist()) != list(range(n)):
            raise ValueError(f"not a permutation: {self.perm.tolist()}")
        if not (np.abs(self.signs) == 1).all():
            raise ValueError("signs must be +1 or -1")

    @property
    def dim(self) -> int:
        return self.perm.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "SignedPermutation":
        return _unchecked(cls, np.arange(dim, dtype=np.int64), np.ones(dim, dtype=np.int64))

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.signs * np.asarray(v)[..., self.perm]

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other."""
        return _unchecked(
            SignedPermutation, other.perm[self.perm], self.signs * other.signs[self.perm]
        )

    def inverse(self) -> "SignedPermutation":
        inv = np.argsort(self.perm)
        return _unchecked(SignedPermutation, inv, self.signs[inv])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        return np.array_equal(self.perm, other.perm) and np.array_equal(self.signs, other.signs)

    def __repr__(self) -> str:
        return f"SignedPermutation(perm={self.perm.tolist()}, signs={self.signs.tolist()})"


class AffineIsometry:
    """Map v -> L v + t with L a signed permutation."""

    __slots__ = ("p", "linear", "translation")

    def __init__(self, p, linear, translation):
        self.p = _check_p(p)
        if not isinstance(linear, SignedPermutation):
            raise TypeError(f"unsupported linear part {type(linear).__name__}")
        self.linear = linear
        self.translation = np.asarray(translation, dtype=np.float64)
        if self.translation.shape != (linear.dim,):
            raise ValueError(
                f"translation has dim {self.translation.shape}, linear part {linear.dim}"
            )

    @property
    def dim(self) -> int:
        return self.linear.dim

    def apply(self, v) -> np.ndarray:
        return self.linear.apply(np.asarray(v, dtype=np.float64)) + self.translation

    def compose(self, other: "AffineIsometry") -> "AffineIsometry":
        """self after other."""
        if self.dim != other.dim or self.p != other.p:
            raise ValueError("cannot compose isometries of different spaces")
        shift = self.linear.apply(other.translation) + self.translation
        return _unchecked(AffineIsometry, self.p, self.linear.compose(other.linear), shift)

    def inverse(self) -> "AffineIsometry":
        inv = self.linear.inverse()
        return _unchecked(AffineIsometry, self.p, inv, -inv.apply(self.translation))

    def close_to(self, other: "AffineIsometry", tol: float = _TOL) -> bool:
        same = self.linear == other.linear
        return same and bool(np.allclose(self.translation, other.translation, rtol=0.0, atol=tol))

    def __repr__(self) -> str:
        return (
            f"AffineIsometry(p={self.p}, linear={self.linear!r},"
            f" translation={self.translation.tolist()})"
        )


def identity_isometry(p, dim: int) -> AffineIsometry:
    return AffineIsometry(p, SignedPermutation.identity(dim), np.zeros(dim))


class IsometryStack(NamedTuple):
    """Isometries v -> signs * v[perm] + translation of one space, one per row.

    Each array has shape ``(k, dim)``.  Row arithmetic is the arithmetic of
    ``AffineIsometry``, operation for operation, so results agree bit for bit.
    """

    perm: np.ndarray
    signs: np.ndarray
    translation: np.ndarray

    @classmethod
    def of(cls, isos: list, dim: int) -> "IsometryStack":
        shape = (len(isos), dim)
        return cls(
            np.array([iso.linear.perm for iso in isos], dtype=np.int64).reshape(shape),
            np.array([iso.linear.signs for iso in isos], dtype=np.int64).reshape(shape),
            np.array([iso.translation for iso in isos], dtype=np.float64).reshape(shape),
        )

    @classmethod
    def identity(cls, rows: int, dim: int) -> "IsometryStack":
        shape = (rows, dim)
        return cls(
            np.tile(np.arange(dim, dtype=np.int64), (rows, 1)),
            np.ones(shape, dtype=np.int64),
            np.zeros(shape, dtype=np.float64),
        )

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Row k applied to ``vectors[k]``."""
        return self.signs * np.take_along_axis(vectors, self.perm, axis=1) + self.translation

    def inverse(self) -> "IsometryStack":
        inv = np.argsort(self.perm, axis=1)
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
        """Rows that ``close_to`` rejects against the same row of ``other``."""
        same = (self.perm == other.perm).all(axis=1) & (self.signs == other.signs).all(axis=1)
        near = np.isclose(self.translation, other.translation, rtol=0.0, atol=tol)
        return ~(same & near.all(axis=1))

    def take(self, rows) -> "IsometryStack":
        return IsometryStack(self.perm[rows], self.signs[rows], self.translation[rows])
