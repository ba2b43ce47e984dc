"""Finite embeddings of box spaces into l^p and their distortion controls.

A control pair is the sampled analogue of the usual pair of monotone
comparison functions: lower and upper envelopes indexed by realized
distances.  Divergence cannot be observed on a finite space, so verifiers
only report the attained range.
"""

from __future__ import annotations

import math

import numpy as np

from .boxspace import BoxPoint, BoxSpace, format_point
from .errors import ControlSampleError, InvalidArgumentError
from .lpspace import lp_norm

__all__ = [
    "CoarseEmbeddingMap",
    "ControlPair",
    "CoarseReport",
    "PnormReport",
    "profile",
    "linf_embedding",
    "cycle_plane_embedding",
    "torus_coordinate_embedding",
    "identity_controls",
    "norm_equivalence_controls",
    "verify_coarse",
    "pnorm_power_check",
]


class _Record:
    """Base of the report records: equal field by field, shown by field, over ``vars``."""

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class CoarseEmbeddingMap:
    """Finite map from a box space into l^p, held as one read-only float64 matrix.

    Row k of ``matrix()`` is the vector at ``points()[k]``; ``table`` maps
    each point to its row, a view.
    """

    def __init__(self, domain: BoxSpace, p: float, dim: int, table: dict[BoxPoint, np.ndarray]):
        p = float(p)
        table = {pt: np.asarray(v, dtype=np.float64) for pt, v in table.items()}
        pts = domain.points()
        missing = [pt for pt in pts if pt not in table]
        if missing:
            raise ValueError(f"table missing point {format_point(missing[0])}")
        for pt, v in table.items():
            if v.shape != (dim,):
                raise ValueError(
                    f"vector at {format_point(pt)} has shape {v.shape}, expected ({dim},)"
                )
        mat = np.empty((len(pts), dim))
        for k, pt in enumerate(pts):
            mat[k] = table[pt]
        self._hold(domain, p, mat)

    @classmethod
    def _of_matrix(cls, domain: BoxSpace, p: float, mat: np.ndarray) -> "CoarseEmbeddingMap":
        """A map over a fresh float64 matrix whose rows follow ``domain.points()``, not copied."""
        f = cls.__new__(cls)
        f._hold(domain, p, mat)
        return f

    def _hold(self, domain: BoxSpace, p: float, mat: np.ndarray) -> None:
        self.domain, self.p, self.dim = domain, float(p), mat.shape[1]
        mat.flags.writeable = False
        self._matrix = mat
        self.table = dict(zip(domain.points(), mat))

    def __call__(self, point: BoxPoint) -> np.ndarray:
        return self.table[point]

    def matrix(self) -> np.ndarray:
        return self._matrix


def _difference_dtype(mat: np.ndarray) -> np.dtype:
    """Narrowest integer dtype holding every row difference of ``mat`` exactly.

    Only finite integer-valued tables qualify, and 2 max|v| must fit; anything
    else, NaN and infinities included, stays float64.  Integrality is the
    narrow cast comparing equal to ``mat``, so no float64 temporary is made.
    """
    top = max(float(mat.max(initial=0.0)), -float(mat.min(initial=0.0)))
    # a NaN or infinite top fits no integer dtype
    fits = [dtype for dtype in (np.int8, np.int16, np.int32) if 2 * top <= np.iinfo(dtype).max]
    if fits and np.array_equal(mat.astype(fits[0]), mat):
        return np.dtype(fits[0])
    return np.dtype(np.float64)


def _pair_norms(f: CoarseEmbeddingMap, above: int):
    """Yield ``(i, norms)`` with norms[k] = |f(x_{i+above+k}) - f(x_i)|_p, row by row.

    Every row is subtracted into one reused buffer, in the narrowest dtype in
    which the differences are exact, so the norms equal those of float64
    differences bit for bit.
    """
    mat = f.matrix()
    dtype = _difference_dtype(mat)
    rows = mat.astype(dtype, copy=False)
    buf = np.empty((len(rows) - above, f.dim), dtype=dtype)
    for i in range(len(rows) - above):
        diff = buf[: len(rows) - above - i]
        np.subtract(rows[i + above :], rows[i], out=diff)
        yield i, lp_norm(diff, f.p, axis=1)


def _check_tolerance(tolerance) -> None:
    """Refuse a NaN or infinite tolerance, which would pass or fail every comparison."""
    if not math.isfinite(tolerance):
        raise InvalidArgumentError(f"tolerance must be finite, got {tolerance}")


def _check_nondecreasing(rho_minus, rho_plus) -> None:
    for name, sample in (("rho_minus", rho_minus), ("rho_plus", rho_plus)):
        vals = [sample[t] for t in sorted(sample)]
        # fails closed: a NaN sample breaks monotonicity
        if any(not a <= b for a, b in zip(vals, vals[1:])):
            raise InvalidArgumentError(f"{name} samples are not nondecreasing")


class ControlPair(_Record):
    """Monotone lower/upper envelopes sampled on realized distances."""

    def __init__(self, rho_minus: dict[int, float], rho_plus: dict[int, float]):
        self.rho_minus, self.rho_plus = rho_minus, rho_plus
        _check_nondecreasing(rho_minus, rho_plus)
        for t in set(self.rho_minus) & set(self.rho_plus):
            if not self.rho_minus[t] <= self.rho_plus[t]:
                raise ValueError(f"rho_minus exceeds rho_plus at t={t}")

    @classmethod
    def _attained(cls, rho_minus: dict[int, float], rho_plus: dict[int, float]) -> "ControlPair":
        """The pair ``profile`` attains, nondecreasing by construction.

        A map with NaN pair norms attains NaN, which the checks above refuse.
        """
        pair = cls.__new__(cls)
        pair.rho_minus, pair.rho_plus = rho_minus, rho_plus
        return pair

    def realized_distances(self) -> list[int]:
        return sorted(set(self.rho_minus) | set(self.rho_plus))


def profile(f: CoarseEmbeddingMap) -> ControlPair:
    """Tightest monotone controls attained by ``f`` on its whole domain.

    Raw per-distance minima take a running minimum from the right and maxima
    a running maximum from the left, which is the optimal nondecreasing pair
    still sandwiching every realized pair.
    """
    pts = f.domain.points()
    if not pts:
        raise ValueError("empty domain")
    dist = f.domain.distance_matrix()
    # per-distance extremes, one row of pairs at a time: never an (n^2, dim) array
    low = np.full(int(dist.max()) + 1, np.inf)
    high = np.full(len(low), -np.inf)
    seen = np.zeros(len(low), dtype=bool)
    for i, norms in _pair_norms(f, above=1):
        t = dist[i, i + 1 :]
        np.minimum.at(low, t, norms)
        np.maximum.at(high, t, norms)
        seen[t] = True
    ts = np.flatnonzero(seen)
    if not ts.size:
        raise InvalidArgumentError("domain has a single point, no realized distances")
    lo = np.minimum.accumulate(low[ts][::-1])[::-1]
    hi = np.maximum.accumulate(high[ts])
    return ControlPair._attained(
        dict(zip(ts.tolist(), lo.tolist())), dict(zip(ts.tolist(), hi.tolist()))
    )


def linf_embedding(space: BoxSpace) -> CoarseEmbeddingMap:
    """Distance-difference embedding x -> (d(x, y) - d(x0, y))_y, isometric into l^inf.

    The base point x0 is the identity of level 0.
    """
    dist = space.distance_matrix()
    base_row = dist[space.point_index(space.identity_point(0))]
    return CoarseEmbeddingMap._of_matrix(
        space, math.inf, np.subtract(dist, base_row, dtype=np.float64)
    )


def cycle_plane_embedding(space: BoxSpace, p: float = 2.0) -> CoarseEmbeddingMap:
    """Each cyclic level mapped to the unit circle of the plane with the p-norm.

    On rank-one levels this is the torus coordinate embedding.
    """
    for i, q in enumerate(space.chain.levels):
        if len(getattr(q, "moduli", ())) != 1:
            raise InvalidArgumentError(f"level {i} is not a rank-one cyclic quotient")
    return torus_coordinate_embedding(space, p)


def torus_coordinate_embedding(space: BoxSpace, p: float = 2.0) -> CoarseEmbeddingMap:
    """Each torus coordinate mapped to its own plane circle, concatenated."""
    ranks = set()
    for i, q in enumerate(space.chain.levels):
        if not hasattr(q, "moduli"):
            raise InvalidArgumentError(f"level {i} is not a cyclic product quotient")
        ranks.add(len(q.moduli))
    if len(ranks) != 1:
        raise ValueError(f"levels mix coordinate counts {sorted(ranks)}")
    rows = []
    for q in space.chain.levels:
        for digits in q.digits(np.arange(q.order)).tolist():
            coords = []
            for c, m in zip(digits, q.moduli):
                angle = 2.0 * math.pi * c / m
                coords.extend((math.cos(angle), math.sin(angle)))
            rows.append(coords)
    return CoarseEmbeddingMap._of_matrix(space, p, np.array(rows, dtype=np.float64))


def identity_controls(distances) -> ControlPair:
    return norm_equivalence_controls(distances, 1, 1.0)


def norm_equivalence_controls(distances, rank: int, p) -> ControlPair:
    """The pair t * rank^(1/p - 1) <= |v|_p <= t over the v in Z^rank with |v|_1 = t.

    It is ``identity_controls`` at rank 1 or p = 1; at p = inf the lower
    bound is t / rank.
    """
    scale = rank ** (1.0 / float(p) - 1.0)
    ts = [int(t) for t in distances]
    return ControlPair({t: t * scale for t in ts}, {t: float(t) for t in ts})


class CoarseReport(_Record):
    """Outcome of a sandwich check, with witnesses for every violated pair.

    A witness is ``(x, y, d(x, y), norm, lower, upper)``.
    """

    def __init__(
        self, passed: bool, tolerance: float, pair_count: int,
        witnesses: list | None = None, divergence_note: str = "",
    ):
        self.passed, self.tolerance, self.pair_count = passed, tolerance, pair_count
        self.witnesses = [] if witnesses is None else witnesses
        self.divergence_note = divergence_note

    def to_text(self) -> str:
        lines = [f"coarse sandwich: {'PASS' if self.passed else 'FAIL'}"]
        lines.append(f"pairs checked: {self.pair_count}, tolerance {self.tolerance:g}")
        for x, y, t, nrm, lo, hi in self.witnesses:
            lines.append(
                f"  violated at ({format_point(x)}, {format_point(y)}):"
                f" d={t}, norm={nrm:.12g}, bounds [{lo:.12g}, {hi:.12g}]"
            )
        if self.divergence_note:
            lines.append(self.divergence_note)
        return "\n".join(lines)


def _control_table(sample, top: int) -> tuple[np.ndarray, np.ndarray]:
    """A control sample as arrays over distances 0..top: values, and which are present."""
    present = np.array([t in sample for t in range(top + 1)])
    values = np.array([float(sample[t]) if ok else np.nan for t, ok in enumerate(present)])
    return values, present


def verify_coarse(
    f: CoarseEmbeddingMap,
    rho_minus,
    rho_plus,
    tolerance: float = 1e-9,
) -> CoarseReport:
    """Check rho_minus(d(x,y)) <= |f(x)-f(y)| <= rho_plus(d(x,y)) on all pairs.

    The controls are mappings from realized distances to values and must be
    nondecreasing there.  Divergence is reported only as the attained range.
    """
    _check_tolerance(tolerance)
    _check_nondecreasing(rho_minus, rho_plus)
    pts = f.domain.points()
    dist = f.domain.distance_matrix()
    max_t = int(dist.max(initial=0))
    lo_at, has_lo = _control_table(rho_minus, max_t)
    hi_at, has_hi = _control_table(rho_plus, max_t)
    witnesses = []
    for i, norms in _pair_norms(f, above=0):
        t = dist[i, i:]
        missing = np.flatnonzero(~(has_lo[t] & has_hi[t]))
        if missing.size:
            t0 = int(t[missing[0]])
            which = "rho_plus" if has_lo[t0] else "rho_minus"
            raise ControlSampleError(f"{which} sample missing realized distance {t0}")
        lo, hi = lo_at[t], hi_at[t]
        # fails closed: a NaN norm or control is a violation
        for k in np.flatnonzero(~((lo - tolerance <= norms) & (norms <= hi + tolerance))).tolist():
            witnesses.append(
                (pts[i], pts[i + k], int(t[k]), float(norms[k]), float(lo[k]), float(hi[k]))
            )
    pair_count = len(pts) * (len(pts) + 1) // 2
    lo_at_max = float(rho_minus[max_t]) if max_t in rho_minus else float("nan")
    note = (
        f"finite-range divergence surrogate: rho_minus reaches {lo_at_max:.12g} at the"
        f" largest realized distance {max_t}; divergence itself is not observable"
        " on a finite space"
    )
    return CoarseReport(
        passed=not witnesses,
        tolerance=tolerance,
        pair_count=pair_count,
        witnesses=witnesses,
        divergence_note=note,
    )


class PnormReport(_Record):
    """Cube/annulus combination bound for block p-norms."""

    def __init__(
        self, block_count: int, p: float, scale: float, combined_norm: float,
        lower: float, upper: float, precondition_ok: bool, passed: bool,
    ):
        self.block_count, self.p, self.scale = block_count, p, scale
        self.combined_norm, self.lower, self.upper = combined_norm, lower, upper
        self.precondition_ok, self.passed = precondition_ok, passed

    def to_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = "" if self.precondition_ok else " (precondition violated, bound vacuous)"
        return (
            f"p-norm combination: {status}{extra}\n"
            f"blocks n={self.block_count}, p={self.p:g}, scale c=n^(1/p)={self.scale:.12g}\n"
            f"achieved N={self.combined_norm:.12g}, required range"
            f" [{self.lower:.12g}, {self.upper:.12g}]"
        )


def pnorm_power_check(
    n: int,
    p,
    block_norms,
    lower: float,
    upper: float,
    tolerance: float = 1e-9,
) -> PnormReport:
    """Verify c*lower <= N <= c*upper with c = n^(1/p) for block norms in [lower, upper]."""
    _check_tolerance(tolerance)
    p = float(p)
    norms = [float(b) for b in block_norms]
    if n < 1 or len(norms) != n:
        raise ValueError(f"expected {n} block norms, got {len(norms)}")
    if not 0 <= lower <= upper:
        raise ValueError(f"need 0 <= lower <= upper, got [{lower}, {upper}]")
    scale = 1.0 if math.isinf(p) else n ** (1.0 / p)
    combined = float(lp_norm(norms, p))
    precondition = all(lower - tolerance <= b <= upper + tolerance for b in norms)
    sandwich = scale * lower - tolerance <= combined <= scale * upper + tolerance
    return PnormReport(
        block_count=n,
        p=p,
        scale=scale,
        combined_norm=combined,
        lower=scale * lower,
        upper=scale * upper,
        precondition_ok=precondition,
        passed=sandwich if precondition else True,
    )
