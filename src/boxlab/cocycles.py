"""Averaged and scale-local cocycles built over finite quotients.

Block values are stored raw, one block per element of the carrier quotient;
the averaging normalization (order to the power -1/p) enters only when norms
are taken.  The defining identity b(xy) = sigma(x) b(y) + b(x) is linear, so
raw blocks verify it exactly whenever the input data is integer-valued.

Scale-local objects hold one array row per live element, that is per element
shorter than the scale, live elements ascending; everything outside is zero
with identity action, by convention.
"""

from __future__ import annotations

import numpy as np

from .boxspace import BoxPoint
from .embedding import _check_tolerance, _Record
from .errors import ActionCheckError, InvalidArgumentError
from .fibration import FibredEmbedding, _segments
from .groups import (
    GroupChain,
    MarkedQuotient,
    ambient_word_length,
    project_to_level,
    select_level_for_r,
)
from .lpspace import _unchecked, lp_norm

__all__ = [
    "QuotientCarrier",
    "BlockMap",
    "LocalRepresentation",
    "LocalCocycle",
    "LiftedCocycle",
    "CocycleFamily",
    "CocycleReport",
    "UltraReport",
    "averaged_cocycle",
    "local_cocycle_from_fce",
    "lift_to_group",
    "verify_local_action",
    "family_from_fce",
    "ultraproduct_hypothesis_check",
]


class QuotientCarrier:
    """Block index set: the elements of one finite quotient."""

    def __init__(self, quotient: MarkedQuotient):
        self.quotient = quotient

    @property
    def size(self) -> int:
        return self.quotient.order


def _live_elements(quotient: MarkedQuotient, r: int | None) -> np.ndarray:
    """Ascending ids of the elements shorter than ``r``; every element when r is None."""
    return np.flatnonzero(quotient.distance_from_identity() < (np.inf if r is None else r))


def _row(elements: np.ndarray, x) -> int | None:
    """Row of element ``x`` among the ascending live ``elements``; None when x is not live."""
    i = int(np.searchsorted(elements, x))
    return i if i < len(elements) and elements[i] == x else None


class BlockMap:
    """Linear isometry permuting blocks: (A xi)_z = signs[z] * xi[tau[z]][perm[z]].

    The twist holds one signed permutation per block as two ``(size, dim)``
    arrays, both None when every block map is the identity, which keeps the
    permutation-only case O(size).  The constructor validates the twist;
    ``compose`` builds valid results without checking them again.
    """

    __slots__ = ("tau", "perm", "signs")

    def __init__(self, tau, perm=None, signs=None):
        self.tau = np.asarray(tau, dtype=np.int64)
        if self.tau.ndim != 1:
            raise ValueError("tau must be one-dimensional")
        if (perm is None) != (signs is None):
            raise ValueError("perm and signs must be given together")
        if perm is not None:
            perm = np.asarray(perm, dtype=np.int64)
            signs = np.asarray(signs, dtype=np.int64)
            if perm.ndim != 2 or perm.shape[0] != self.size or signs.shape != perm.shape:
                raise ValueError(f"twist of shape {perm.shape} for {self.size} blocks")
            if not (np.sort(perm, axis=1) == np.arange(perm.shape[1])).all():
                raise ValueError("twist is not a permutation in every block")
            if not np.isin(signs, (-1, 1)).all():
                raise ValueError("signs must be +1 or -1")
        self.perm, self.signs = perm, signs

    @property
    def size(self) -> int:
        return len(self.tau)

    def apply(self, blocks: np.ndarray) -> np.ndarray:
        blocks = np.asarray(blocks, dtype=np.float64)
        if blocks.shape[0] != self.size:
            raise ValueError(f"expected {self.size} blocks, got {blocks.shape[0]}")
        moved = blocks[self.tau]
        if self.perm is None:
            return moved
        return self.signs * np.take_along_axis(moved, self.perm, axis=1)

    def compose(self, other: "BlockMap") -> "BlockMap":
        """self after other: block z is self's map at z after other's at tau[z]."""
        if self.size != other.size:
            raise ValueError("block counts differ")
        tau = other.tau[self.tau]
        if other.perm is None:
            return _unchecked(BlockMap, tau, self.perm, self.signs)
        perm, signs = other.perm[self.tau], other.signs[self.tau]
        if self.perm is not None:
            signs = self.signs * np.take_along_axis(signs, self.perm, axis=1)
            perm = np.take_along_axis(perm, self.perm, axis=1)
        return _unchecked(BlockMap, tau, perm, signs)

    def equals(self, other: "BlockMap") -> bool:
        if self.size != other.size or not np.array_equal(self.tau, other.tau):
            return False
        if self.perm is None or other.perm is None:
            twisted = self if other.perm is None else other
            return twisted.perm is None or (
                (twisted.perm == np.arange(twisted.perm.shape[1])).all()
                and (twisted.signs == 1).all()
            )
        return np.array_equal(self.perm, other.perm) and np.array_equal(self.signs, other.signs)

    def __repr__(self) -> str:
        kind = "permutation" if self.perm is None else "twisted"
        return f"BlockMap({kind}, size={self.size})"


class LocalRepresentation:
    """Scale-local linear action by block maps on the combined block space.

    Row i of ``tau`` (live, blocks) and of the twist ``perm``/``signs`` (live,
    blocks, dim), None when untwisted, is the ``BlockMap`` of live element
    ``elements[i]``; every other element acts as the identity.  ``r`` of None
    means globally defined.
    """

    def __init__(
        self,
        carrier: QuotientCarrier,
        p: float,
        dim: int,
        r: int | None,
        tau: np.ndarray,
        perm: np.ndarray | None = None,
        signs: np.ndarray | None = None,
    ):
        self.carrier, self.p, self.dim, self.r = carrier, p, dim, r
        self.perm, self.signs = perm, signs
        self.elements = _live_elements(carrier.quotient, r)
        shape = (len(self.elements), carrier.size, dim)
        self.tau = np.asarray(tau, dtype=np.int64)
        if self.tau.shape != shape[:2]:
            raise ValueError(f"tau of shape {self.tau.shape}, expected {shape[:2]}")
        if self.perm is not None or self.signs is not None:
            twist_shapes = (np.shape(self.perm), np.shape(self.signs))
            if twist_shapes != (shape, shape):
                raise ValueError(f"twist of shapes {twist_shapes}, expected {shape}")
            # one block map over the blocks of every row checks every twist
            flat = (self.tau.size, self.dim)
            twist = BlockMap(self.tau.ravel(), *(np.reshape(t, flat) for t in (self.perm, self.signs)))
            self.perm, self.signs = twist.perm.reshape(shape), twist.signs.reshape(shape)

    def image(self, x: int) -> BlockMap:
        i = _row(self.elements, x)
        if i is None:
            return BlockMap(np.arange(self.carrier.size))
        twist = (None, None) if self.perm is None else (self.perm[i], self.signs[i])
        return _unchecked(BlockMap, self.tau[i], *twist)


class LocalCocycle:
    """Cocycle on a finite quotient with block values over the same quotient.

    ``values`` (live, blocks, dim) holds in row i the raw blocks at the live
    element ``elements[i]``; outside the scale the value is zero and the
    companion acts trivially.
    """

    def __init__(
        self,
        carrier: QuotientCarrier,
        p: float,
        dim: int,
        r: int | None,
        values: np.ndarray,
        companion: LocalRepresentation,
        label: str = "",
    ):
        self.carrier, self.p, self.dim, self.r = carrier, float(p), dim, r
        self.companion, self.label = companion, label
        self.elements = _live_elements(carrier.quotient, r)
        self.values = np.asarray(values, dtype=np.float64)
        shape = (len(self.elements), carrier.size, dim)
        if self.values.shape != shape:
            raise ValueError(f"values of shape {self.values.shape}, expected {shape}")

    @property
    def normalization(self) -> float:
        # at p = inf the exponent is -0.0 and the normalization is exactly 1
        return self.carrier.size ** (-1.0 / self.p)

    def value(self, x: int) -> np.ndarray:
        """Raw, unscaled blocks; zero outside the live scale."""
        i = _row(self.elements, x)
        if i is None:
            return np.zeros((self.carrier.size, self.dim))
        return self.values[i]

    def norm(self, x: int) -> float:
        return self.normalization * float(lp_norm(self.value(x).ravel(), self.p))

    def live(self, x: int) -> bool:
        return _row(self.elements, x) is not None


def averaged_cocycle(f, quotient: MarkedQuotient, p):
    """Average a map on the quotient into a cocycle for right translation.

    Block z of the value at x is f(zx) - f(z); the companion representation
    shifts blocks by right multiplication.  Works for any map into l^p: the
    identity holds by telescoping, and coarse controls on f become norm
    controls on the cocycle because d(z, zx) is the length of x for every z.

    Returns the (representation, cocycle) pair.
    """
    if isinstance(f, dict):
        F = np.stack(
            [np.atleast_1d(np.asarray(f[x], dtype=np.float64)) for x in quotient.elements()]
        )
    else:
        F = np.asarray(f, dtype=np.float64)
        if F.ndim == 1:
            F = F[:, None]
    if F.shape[0] != quotient.order:
        raise ValueError(f"map table has {F.shape[0]} rows for order {quotient.order}")
    carrier = QuotientCarrier(quotient)
    elements = np.arange(quotient.order)
    tau = quotient.mult_many(elements, elements[:, None])  # tau[x, z] = z * x
    values = F[tau]
    values -= F
    rep = LocalRepresentation(carrier=carrier, p=float(p), dim=F.shape[1], r=None, tau=tau)
    coc = LocalCocycle(
        carrier=carrier,
        p=float(p),
        dim=F.shape[1],
        r=None,
        values=values,
        companion=rep,
        label="averaged",
    )
    return rep, coc


def local_cocycle_from_fce(
    fib: FibredEmbedding,
    r: int,
    level: int | None = None,
) -> LocalCocycle:
    """Localize a fibred embedding to a cocycle at scale ``r``.

    The carrier is the first level whose isometry radius is at least 2r, so
    that every ball of radius r-1 is served by the trivialization oracle.
    Block z of the value at a live x compares the trivialized section at z
    and zx inside the ball around z; the companion shifts blocks and twists
    each by the linear part of the transition between the two overlapping
    balls.  Transitions are re-derived from the oracle and checked for
    constancy on the full ball overlaps.
    """
    if r < 1:
        raise InvalidArgumentError(f"scale must be >= 1, got {r}")
    chain = fib.space.chain
    if level is None:
        level = select_level_for_r(chain, 2 * r)
    elif chain.radius(level) < 2 * r:
        raise ValueError(
            f"level {level} has isometry radius {chain.radius(level)},"
            f" below the required {2 * r}"
        )
    q = chain.levels[level]
    carrier = QuotientCarrier(q)

    # one stacked row per (ball center z, member w), balls in order of z
    inside = q.cayley_matrix() <= r - 1
    row = np.full(inside.shape, -1, dtype=np.int64)
    row[inside] = np.arange(np.count_nonzero(inside))
    balls = [tuple(BoxPoint(level, w) for w in np.flatnonzero(ball).tolist()) for ball in inside]
    stack, moved = fib.trivialize(balls, r)

    blocks = np.arange(q.order)
    taus = q.mult_many(blocks, _live_elements(q, r)[:, None])  # taus[i, z] = z * live[i]
    inverse = stack.inverse()
    # the transition between the balls around z and zx, read off at zx
    transitions = stack.after(inverse, row[blocks, taus].ravel(), row[taus, taus].ravel())
    for i, tau in enumerate(taus):
        zs, ws = np.nonzero(inside & inside[tau])
        cand = stack.after(inverse, row[zs, ws], row[tau[zs], ws])
        bad = np.flatnonzero(cand.differs(transitions.take(i * q.order + zs), 1e-9))
        if bad.size:
            z = int(zs[bad[0]])
            raise ActionCheckError(
                "transition between overlapping balls is not constant;"
                f" the input is not fibred at scale {r} (blocks {z}, {int(tau[z])})"
            )
    shape = (*taus.shape, fib.dim)
    rep = LocalRepresentation(
        carrier=carrier, p=fib.p, dim=fib.dim, r=r, tau=taus,
        perm=transitions.perm.reshape(shape), signs=transitions.signs.reshape(shape),
    )
    values = moved[row[blocks, blocks]] - moved[row[blocks, taus]]
    return LocalCocycle(
        carrier=carrier,
        p=fib.p,
        dim=fib.dim,
        r=r,
        values=values,
        companion=rep,
        label=f"local scale {r} on level {level}",
    )


class LiftedCocycle:
    """Pullback of a quotient cocycle to the ambient group.

    Defined by composition with the projection on elements shorter than the
    scale, zero with identity action outside.
    """

    def __init__(self, chain: GroupChain, level: int, base: LocalCocycle, r: int):
        self.chain, self.level, self.base, self.r = chain, level, base, r

    @property
    def p(self) -> float:
        return self.base.p

    def value(self, g) -> np.ndarray:
        if ambient_word_length(self.chain, g) >= self.r:
            return np.zeros((self.base.carrier.size, self.base.dim))
        return self.base.value(project_to_level(self.chain, g, self.level))

    def sigma(self, g) -> BlockMap:
        if ambient_word_length(self.chain, g) >= self.r:
            return BlockMap(np.arange(self.base.carrier.size))
        return self.base.companion.image(project_to_level(self.chain, g, self.level))

    def norm(self, g) -> float:
        return self.base.normalization * float(lp_norm(self.value(g).ravel(), self.base.p))


def lift_to_group(coc: LocalCocycle, chain: GroupChain) -> LiftedCocycle:
    """Lift along the projection onto the cocycle's carrier level, at the cocycle's scale.

    Needs the scale to stay within the level's isometry radius, so that
    length comparisons against the scale agree upstairs and downstairs.
    """
    r = coc.r
    if r is None:
        raise ValueError("only scale-local cocycles lift; the scale bounds the support")
    level = next(
        (i for i, q in enumerate(chain.levels) if q is coc.carrier.quotient), None
    )
    if level is None:
        raise ValueError("cocycle carrier is not a level of the given chain")
    if r > chain.radius(level):
        raise ValueError(
            f"scale {r} exceeds the isometry radius {chain.radius(level)} of level {level}"
        )
    return LiftedCocycle(chain=chain, level=level, base=coc, r=int(r))


class CocycleReport(_Record):
    """Identity and representation checks on one cocycle."""

    def __init__(
        self,
        passed: bool,
        mode: str,
        tolerance: float,
        identity_checked: int,
        representation_checked: int,
        identity_witnesses: list | None = None,
        representation_witnesses: list | None = None,
    ):
        self.passed, self.mode, self.tolerance = passed, mode, tolerance
        self.identity_checked = identity_checked
        self.representation_checked = representation_checked
        self.identity_witnesses = [] if identity_witnesses is None else identity_witnesses
        self.representation_witnesses = (
            [] if representation_witnesses is None else representation_witnesses
        )

    def to_text(self) -> str:
        lines = [
            f"cocycle check: {'PASS' if self.passed else 'FAIL'} (mode={self.mode})",
            f"identity b(xy) = sigma(x)b(y) + b(x): {self.identity_checked} pairs,"
            f" {len(self.identity_witnesses)} violations",
            f"representation sigma(x)sigma(y) = sigma(xy): {self.representation_checked}"
            f" pairs, {len(self.representation_witnesses)} violations",
        ]
        for x, y, dev in self.identity_witnesses:
            lines.append(f"  identity fails at ({x}, {y}), max deviation {dev:.12g}")
        for x, y in self.representation_witnesses:
            lines.append(f"  representation fails at ({x}, {y})")
        return "\n".join(lines)


# block entries compared per batch of pairs
_PAIR_ENTRIES = 1 << 16


def verify_local_action(
    rep: LocalRepresentation,
    coc: LocalCocycle,
    mode: str = "atol",
    tolerance: float = 1e-9,
) -> CocycleReport:
    """Check the cocycle identity and multiplicativity of the action on every live pair.

    A pair (x, y) is live when x, y and xy are all inside the scale; for a
    global cocycle every pair is live.  Raw blocks are compared, either
    exactly (integer data) or within an absolute tolerance, one batch of
    pairs at a time; witnesses come in x-major pair order.
    """
    _check_tolerance(tolerance)
    if mode not in ("exact", "atol"):
        raise ValueError(f"unknown mode {mode!r}")
    if rep.carrier is not coc.carrier or rep.r != coc.r or rep.p != coc.p:
        raise ValueError("representation and cocycle do not share carrier, scale and p")
    q = coc.carrier.quotient
    live = coc.elements
    alive = q.distance_from_identity() < (np.inf if coc.r is None else coc.r)
    products = q.mult_many(live[:, None], live)
    xs, ys = np.nonzero(alive[products])
    xys = np.searchsorted(live, products[xs, ys])
    V, T, P, S = coc.values, rep.tau, rep.perm, rep.signs
    blocks, rows = V.shape[1], V.reshape(-1, coc.dim)  # rows[y * blocks + z] = V[y, z]
    segments = list(_segments(np.full(len(xs), q.order * coc.dim), _PAIR_ENTRIES))
    # the (pairs, blocks, dim) gathers land in two buffers sized once per call:
    # with wide blocks a batch is one pair, and each fresh gather would be a
    # new allocation of a whole row of blocks
    width = max((stop - first for first, stop in segments), default=0)
    gathered, spare = np.empty((2, width, blocks, coc.dim))
    identity_witnesses = []
    representation_witnesses = []
    for first, stop in segments:
        x, y, xy = xs[first:stop], ys[first:stop], xys[first:stop]
        # sigma(x) moves block tau_x[z] of b(y) to z; sigma(x)sigma(y) has tau_y[tau_x]
        at = (y[:, None], T[x])
        flat = y[:, None] * blocks + at[1]
        moved = np.take(rows, flat, axis=0, out=gathered[: len(x)], mode="clip")
        same = (T[at] == T[xy]).all(axis=1)
        if P is not None:
            # x's twist at z, after y's at tau_x[z] in the composite, as in BlockMap.compose
            moved = S[x] * np.take_along_axis(moved, P[x], axis=2)
            perm = np.take_along_axis(P[at], P[x], axis=2)
            signs = S[x] * np.take_along_axis(S[at], P[x], axis=2)
            same &= (perm == P[xy]).all(axis=(1, 2)) & (signs == S[xy]).all(axis=(1, 2))
        # moved and lhs are buffers or fresh copies, so each is rewritten in place
        moved += np.take(V, x, axis=0, out=spare[: len(x)], mode="clip")  # sigma(x)b(y) + b(x)
        lhs = np.take(V, xy, axis=0, out=spare[: len(x)], mode="clip")  # b(xy)
        if mode == "exact":
            bad = np.flatnonzero(~(lhs == moved).all(axis=(1, 2)))
            dev = np.abs(lhs[bad] - moved[bad]).max(axis=(1, 2), initial=0.0)
        else:
            with np.errstate(invalid="ignore"):  # inf - inf is NaN; np.isclose decides below
                diff = np.abs(np.subtract(lhs, moved, out=lhs), out=lhs)
                dev = diff.max(axis=(1, 2), initial=0.0)
            # under a tolerance >= 0, np.isclose(rtol=0) passes finite entries
            # within it; the rest take np.isclose itself: pairs with non-finite
            # entries or an overflowing difference, and every pair otherwise
            ok = dev <= tolerance
            odd = np.flatnonzero(~np.isfinite(dev)) if tolerance >= 0 else np.arange(len(dev))
            if odd.size:
                close = np.isclose(V[xy[odd]], moved[odd], rtol=0.0, atol=tolerance)
                ok[odd] = close.all(axis=(1, 2))
            bad = np.flatnonzero(~ok)
            dev = dev[bad]
        identity_witnesses += zip(live[x[bad]].tolist(), live[y[bad]].tolist(), dev.tolist())
        representation_witnesses += zip(live[x[~same]].tolist(), live[y[~same]].tolist())
    return CocycleReport(
        passed=not identity_witnesses and not representation_witnesses,
        mode=mode,
        tolerance=tolerance,
        identity_checked=len(xs),
        representation_checked=len(xs),
        identity_witnesses=identity_witnesses,
        representation_witnesses=representation_witnesses,
    )


class CocycleFamily:
    """Lifted cocycles indexed by scale, over one chain."""

    def __init__(self, chain: GroupChain, members: dict[int, LiftedCocycle]):
        self.chain, self.members = chain, members

    def scales(self) -> list[int]:
        return sorted(self.members)

    def norms(self, g) -> dict[int, float]:
        return {r: self.members[r].norm(g) for r in self.scales()}


def family_from_fce(fib: FibredEmbedding, scales) -> CocycleFamily:
    """One lifted cocycle per scale, each on the shallowest feasible level."""
    chain = fib.space.chain
    members = {}
    for r in scales:
        members[int(r)] = lift_to_group(local_cocycle_from_fce(fib, int(r)), chain)
    return CocycleFamily(chain=chain, members=members)


class UltraReport(_Record):
    """Norm behaviour of a cocycle family across scales, element by element.

    The family plays the role of a sequence approaching a limit object; the
    verdicts here are finite-scale evidence for that reading, not a proof.
    """

    def __init__(self, passed: bool, tolerance: float, rows: list):
        # a row is (g, |g|, {r: norm}, upper_ok, lower_ok, constant_live)
        self.passed, self.tolerance, self.rows = passed, tolerance, rows

    def to_text(self) -> str:
        lines = [f"cocycle family norms: {'PASS' if self.passed else 'FAIL'}"]
        for g, n, seq, upper_ok, lower_ok, const in self.rows:
            series = ", ".join(f"r={r}: {v:.12g}" for r, v in sorted(seq.items()))
            verdict = []
            if not upper_ok:
                verdict.append("upper bound violated")
            if not lower_ok:
                verdict.append("lower bound violated at live scales")
            verdict.append("constant on live scales" if const else "varies on live scales")
            lines.append(f"  g={g} (length {n}): {series} [{'; '.join(verdict)}]")
        lines.append(
            "finite-scale evidence only: bounds checked on the available scales,"
            " not in any limit"
        )
        return "\n".join(lines)


def ultraproduct_hypothesis_check(
    family: CocycleFamily,
    elements,
    rho_minus,
    rho_plus,
    tolerance: float = 1e-9,
) -> UltraReport:
    """Check family norms against controls: upper at every scale, lower at live ones.

    A scale is live for g when it exceeds the length of g; below that the
    lift vanishes by construction and only the upper bound is meaningful.
    """
    _check_tolerance(tolerance)
    rows = []
    passed = True
    for g in elements:
        n = ambient_word_length(family.chain, g)
        seq = family.norms(g)
        lo = float(rho_minus[n])
        hi = float(rho_plus[n])
        upper_ok = all(v <= hi + tolerance for v in seq.values())
        live = {r: v for r, v in seq.items() if r > n}
        lower_ok = all(v >= lo - tolerance for v in live.values())
        const = not live or max(live.values()) - min(live.values()) <= tolerance
        passed = passed and upper_ok and lower_ok
        rows.append((tuple(g), n, seq, upper_ok, lower_ok, const))
    return UltraReport(passed=passed, tolerance=tolerance, rows=rows)
