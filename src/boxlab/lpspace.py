"""Norms and affine isometries of finite-dimensional l^p spaces.

For p other than 2 every linear isometry is a signed permutation of the
coordinates, so linear parts are stored structurally; p = 2 additionally
admits arbitrary orthogonal matrices.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "lp_norm",
    "SignedPermutation",
    "OrthogonalLinear",
    "AffineIsometry",
    "identity_isometry",
]

_TOL = 1e-9


def _check_p(p) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ValueError(f"p must be at least 1, got {p}")
    return p


def lp_norm(values, p, axis=None):
    """l^p norm along ``axis`` (whole array when None); p may be ``inf``."""
    p = _check_p(p)
    arr = np.abs(np.asarray(values, dtype=np.float64))
    if math.isinf(p):
        return arr.max(axis=axis) if arr.size else 0.0
    if p == 1.0:
        return arr.sum(axis=axis)
    if p == 2.0:
        return np.sqrt((arr * arr).sum(axis=axis))
    return (arr**p).sum(axis=axis) ** (1.0 / p)


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
        if not np.isin(self.signs, (-1, 1)).all():
            raise ValueError("signs must be +1 or -1")

    @property
    def dim(self) -> int:
        return self.perm.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "SignedPermutation":
        return cls(np.arange(dim), np.ones(dim, dtype=np.int64))

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.signs * np.asarray(v)[..., self.perm]

    def compose(self, other) -> "SignedPermutation | np.ndarray":
        """self after other."""
        if isinstance(other, SignedPermutation):
            return SignedPermutation(other.perm[self.perm], self.signs * other.signs[self.perm])
        return self.as_matrix() @ other.as_matrix()

    def inverse(self) -> "SignedPermutation":
        inv = np.argsort(self.perm)
        return SignedPermutation(inv, self.signs[inv])

    def as_matrix(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim))
        mat[np.arange(self.dim), self.perm] = self.signs
        return mat

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        return (self.perm == other.perm).all() and (self.signs == other.signs).all()

    def __repr__(self) -> str:
        return f"SignedPermutation(perm={self.perm.tolist()}, signs={self.signs.tolist()})"


def _linear_close(a, b, tol: float) -> bool:
    if isinstance(a, SignedPermutation) and isinstance(b, SignedPermutation):
        return a == b
    ma = a.as_matrix() if isinstance(a, SignedPermutation) else np.asarray(a)
    mb = b.as_matrix() if isinstance(b, SignedPermutation) else np.asarray(b)
    return bool(np.allclose(ma, mb, rtol=0.0, atol=tol))


class _MatrixLinear:
    """Dense linear part; only orthogonal matrices are accepted (p = 2)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        if not np.allclose(mat.T @ mat, np.eye(mat.shape[0]), rtol=0.0, atol=_TOL):
            raise ValueError("matrix is not orthogonal within 1e-9")
        self.matrix = mat

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v) @ self.matrix.T

    def compose(self, other):
        om = other.as_matrix() if isinstance(other, SignedPermutation) else other.matrix
        return _MatrixLinear(self.matrix @ om)

    def inverse(self) -> "_MatrixLinear":
        return _MatrixLinear(self.matrix.T)

    def as_matrix(self) -> np.ndarray:
        return self.matrix

    def __repr__(self) -> str:
        return f"OrthogonalLinear({self.matrix.tolist()})"


def OrthogonalLinear(matrix) -> _MatrixLinear:
    return _MatrixLinear(matrix)


class AffineIsometry:
    """Map v -> L v + t with L a structural l^p isometry.

    Matrix linear parts are rejected unless p = 2.
    """

    __slots__ = ("p", "linear", "translation")

    def __init__(self, p, linear, translation):
        self.p = _check_p(p)
        if isinstance(linear, _MatrixLinear):
            if self.p != 2.0:
                raise ValueError("matrix linear parts are isometric only for p = 2")
        elif not isinstance(linear, SignedPermutation):
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
        lin = self.linear.compose(other.linear)
        if isinstance(lin, np.ndarray):
            lin = _MatrixLinear(lin)
        return AffineIsometry(self.p, lin, self.linear.apply(other.translation) + self.translation)

    def inverse(self) -> "AffineIsometry":
        inv = self.linear.inverse()
        return AffineIsometry(self.p, inv, -inv.apply(self.translation))

    def close_to(self, other: "AffineIsometry", tol: float = _TOL) -> bool:
        return (
            self.dim == other.dim
            and _linear_close(self.linear, other.linear, tol)
            and bool(np.allclose(self.translation, other.translation, rtol=0.0, atol=tol))
        )

    def __repr__(self) -> str:
        return (
            f"AffineIsometry(p={self.p}, linear={self.linear!r},"
            f" translation={self.translation.tolist()})"
        )


def identity_isometry(p, dim: int) -> AffineIsometry:
    return AffineIsometry(p, SignedPermutation.identity(dim), np.zeros(dim))
