"""The scalar isometry algebra: an oracle for ``IsometryStack`` and proper actions.

``SignedPermutation`` and ``AffineIsometry`` hold one isometry each and
compose them one at a time.  The array path in ``boxlab.lpspace`` must agree
with them bit for bit; tests build corrupted oracles and brute-force reports
from them.
"""

import numpy as np

from boxlab.lpspace import IsometryStack, _check_p

_TOL = 1e-9


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


def stack_of(isos: list, dim: int) -> IsometryStack:
    """The rows of ``AffineIsometry`` objects as one stack."""
    shape = (len(isos), dim)
    return IsometryStack(
        np.array([iso.linear.perm for iso in isos], dtype=np.int64).reshape(shape),
        np.array([iso.linear.signs for iso in isos], dtype=np.int64).reshape(shape),
        np.array([iso.translation for iso in isos], dtype=np.float64).reshape(shape),
    )


def row_isometry(p, stack: IsometryStack, k: int) -> AffineIsometry:
    """Row ``k`` of a stack as an ``AffineIsometry`` of l^p."""
    return AffineIsometry(p, SignedPermutation(stack.perm[k], stack.signs[k]), stack.translation[k])


def action_isometry(action, g) -> AffineIsometry:
    """The isometry a proper action assigns to one ambient element."""
    return row_isometry(action.p, action.act(np.array([g], dtype=np.int64)), 0)


def rows_rule(scalar_rule, dim: int):
    """An array rule over ambient rows from a rule over one element (a tuple)."""
    return lambda rows: stack_of([scalar_rule(tuple(g)) for g in rows.tolist()], dim)
