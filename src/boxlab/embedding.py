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
from .groups import _BLOCK_ENTRIES
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
    """Finite map from a box space into l^p, held as one read-only matrix in
    its ``_difference_dtype``: int8, int16 or int32 for an integer map.

    Row k of ``matrix()`` is the vector at ``points()[k]``, and calling the
    map on a point reads its row.  The constructor takes a mapping from
    points to vectors, copied into a fresh matrix, or a ``(points, dim)``
    matrix in ``points()`` order, held as a read-only view with no copy when
    it has that dtype.  It refuses the first point, in ``points()`` order,
    that is missing, has a vector of the wrong shape or holds a NaN or
    infinite entry (an integer matrix has none).
    """

    def __init__(
        self, domain: BoxSpace, p: float, dim: int, table: dict[BoxPoint, np.ndarray] | np.ndarray
    ):
        pts = domain.points()
        if isinstance(table, np.ndarray):
            if table.shape != (len(pts), dim):
                raise ValueError(f"matrix has shape {table.shape}, expected ({len(pts)}, {dim})")
            mat = table if table.dtype.kind in "iu" else table.astype(np.float64, copy=False)
        else:
            # every vector is checked before the matrix is allocated
            rows = []
            for pt in pts:
                if pt not in table:
                    raise ValueError(f"table missing point {format_point(pt)}")
                v = np.asarray(table[pt], dtype=np.float64)
                if v.shape != (dim,):
                    raise ValueError(
                        f"vector at {format_point(pt)} has shape {v.shape}, expected ({dim},)"
                    )
                rows.append(v)
            mat = np.array(rows)
        if mat.dtype.kind == "f":
            finite = np.isfinite(mat).all(axis=1)
            if not finite.all():
                raise ValueError(
                    f"vector at {format_point(pts[int(np.argmin(finite))])} has a non-finite entry"
                )
        self._hold(domain, p, mat)

    def _hold(self, domain: BoxSpace, p: float, mat: np.ndarray) -> None:
        # a view: marking it read-only leaves the caller's array as it was
        mat = mat.astype(_difference_dtype(mat), copy=False).view()
        mat.flags.writeable = False
        self.domain, self.p, self.dim = domain, float(p), mat.shape[1]
        self._matrix = mat
        self._isometry = None  # the verdict of ``_certified``, once asked

    def __call__(self, point: BoxPoint) -> np.ndarray:
        return self._matrix[self.domain.point_index(point)]

    def matrix(self) -> np.ndarray:
        return self._matrix


def _difference_dtype(mat: np.ndarray) -> np.dtype:
    """Narrowest integer dtype holding every row difference of ``mat`` exactly.

    Only finite integer-valued tables qualify, and 2 max|v| must fit.  Anything
    else stays float64: NaN and infinities, and a float table holding a -0.0,
    whose sign an integer would drop (``_fmt`` prints it as -0).  An integer
    table needs only its extremes.  A float table qualifies when its narrow
    cast compares equal to it and has a negative entry for each of its sign
    bits; no float64 temporary is made, and one boolean one at a time.
    """
    top = max(float(mat.max(initial=0)), -float(mat.min(initial=0)))
    # a NaN or infinite top fits no integer dtype
    fits = [dtype for dtype in (np.int8, np.int16, np.int32) if 2 * top <= np.iinfo(dtype).max]
    if fits and mat.dtype.kind == "f":
        narrow = mat.astype(fits[0])
        if not np.array_equal(narrow, mat) or np.signbit(mat).sum() != (narrow < 0).sum():
            fits = []
    return np.dtype(fits[0] if fits else np.float64)


def _pair_norms(f: CoarseEmbeddingMap, spans):
    """Yield, for each span ``(i, lo, hi)``, norms[k] = |f(x_{lo+k}) - f(x_i)|_p.

    ``f.matrix()`` is held in ``_difference_dtype``, in which every row
    difference is exact, so the norms equal those of float64 differences bit
    for bit.  Each span is subtracted into one reused buffer.  Integer
    differences at p in {1, inf} take their absolute values in place and are
    read unsigned, as ``lp_norm`` reads them, so no row temporary is made.
    """
    rows = f.matrix()
    dtype = rows.dtype
    buf = np.empty((max((hi - lo for _, lo, hi in spans), default=0), f.dim), dtype=dtype)
    in_place = dtype.kind == "i" and (math.isinf(f.p) or f.p == 1.0)
    for i, lo, hi in spans:
        diff = buf[: hi - lo]
        np.subtract(rows[lo:hi], rows[i], out=diff)
        if in_place:
            # |v| wraps at the dtype's minimum, whose bits read unsigned are exactly |v|
            diff = np.abs(diff, out=diff).view(dtype.str.replace("i", "u"))
        yield lp_norm(diff, f.p, axis=1)


def _isometric(f: CoarseEmbeddingMap) -> bool:
    """Whether N(x, y) = |f(x) - f(y)|_inf equals d(x, y) on every pair, certified
    on the edges of the box graph.

    The box metric is the path metric of one graph: each level's Cayley graph,
    x -- xl of length 1 for each symmetrized letter l, and an edge of length
    s_i between the identities of levels i and i + 1 (a path that leaves a
    level comes back through the same identity, so it is never shorter than
    the word metric).  ``f.matrix()`` is held in an integer
    ``_difference_dtype``, so every comparison is exact.

    If each column g moves by at most the length along every edge, g is
    1-Lipschitz and N <= d.  If in g every point but one, x, has a neighbour
    lower by exactly the edge's length, a walk down from any y ends at x
    along a path of length g(y) - g(x), so d(x, y) <= g(y) - g(x) <= N(x, y).
    The map is certified when every point is such an x for some column or
    negated column; the negated columns are tried only when the columns leave
    a point uncovered.  Each level is taken a block of about
    ``_BLOCK_ENTRIES`` entries at a time.
    """
    rows, levels, seps, dim = f.matrix(), f.domain.chain.levels, f.domain.separations, f.dim
    starts = f.domain.level_starts().tolist()
    ids = [start + q.identity for start, q in zip(starts, levels)]
    covered = np.zeros(len(rows), dtype=bool)
    for sign in (1, -1):
        lowest = np.zeros(dim, dtype=np.int64)  # points without a lower neighbour, per column
        point = np.zeros(dim, dtype=np.int64)  # one of them
        for i, q in enumerate(levels):
            # every edge is taken from both its ends, so a maximum bounds |g(u) - g(v)|
            joins = [(ids[j], seps[min(i, j)]) for j in (i - 1, i + 1) if 0 <= j < len(levels)]
            width = max(1, _BLOCK_ENTRIES // q.order)
            for c in range(0, dim, width):
                cols = np.ascontiguousarray(rows[starts[i] : starts[i + 1], c : c + width])
                lower = np.zeros(cols.shape, dtype=bool)
                for perm in q.letter_perms():
                    diff = cols[perm] - cols
                    if sign == 1 and diff.max(initial=0) > 1:
                        return False
                    lower |= diff == -sign
                for j, length in joins:
                    diff = rows[j, c : c + width] - cols[q.identity]
                    if sign == 1 and diff.max(initial=0) > length:
                        return False
                    lower[q.identity] |= diff == -sign * length
                x, col = np.divmod(np.flatnonzero(~lower), cols.shape[1])
                lowest[c : c + cols.shape[1]] += np.bincount(col, minlength=cols.shape[1])
                point[c + col] = starts[i] + x
        covered[point[lowest == 1]] = True
        if covered.all():
            return True
    return False


def _certified(f: CoarseEmbeddingMap) -> bool:
    """Whether N(x, y) = d(x, y) on every pair: an integer map at p = inf that
    ``_isometric`` certifies.  The matrix is read-only, so the verdict is
    computed on first use and kept on ``f``."""
    if f._isometry is None:
        f._isometry = f.matrix().dtype.kind == "i" and math.isinf(f.p) and _isometric(f)
    return f._isometry


def _check_tolerance(tolerance) -> None:
    """Refuse a NaN or infinite tolerance, which would pass or fail every comparison,
    and a negative one, under which equal values would fail one comparison and
    pass another."""
    if not math.isfinite(tolerance):
        raise InvalidArgumentError(f"tolerance must be finite, got {tolerance}")
    if tolerance < 0:
        raise InvalidArgumentError(f"tolerance must not be negative, got {tolerance}")


def _check_nondecreasing(rho_minus, rho_plus) -> None:
    for name, sample in (("rho_minus", rho_minus), ("rho_plus", rho_plus)):
        vals = [sample[t] for t in sorted(sample)]
        # fails closed: a NaN sample breaks monotonicity
        if any(not a <= b for a, b in zip(vals, vals[1:])):
            raise InvalidArgumentError(f"{name} samples are not nondecreasing")


def _control_bounds(rho_minus, rho_plus, top: int):
    """The verifiers' one reading of a control pair, refusing samples that are
    not nondecreasing with InvalidArgumentError.

    Returns ``bounds``, which maps an integer array ``t`` of distances in
    0..top to the arrays ``(rho_minus[t], rho_plus[t])``, or raises
    ControlSampleError naming the first distance of ``t`` missing a sample,
    rho_minus's before rho_plus's.
    """
    _check_nondecreasing(rho_minus, rho_plus)
    ts = range(top + 1)
    has_lo, has_hi = (np.array([t in s for t in ts]) for s in (rho_minus, rho_plus))
    lo_at, hi_at = (
        np.array([float(s[t]) if t in s else np.nan for t in ts]) for s in (rho_minus, rho_plus)
    )

    def bounds(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        missing = np.flatnonzero(~(has_lo[t] & has_hi[t]))
        if missing.size:
            t0 = int(t[missing[0]])
            which = "rho_plus" if has_lo[t0] else "rho_minus"
            raise ControlSampleError(f"{which} sample missing realized distance {t0}")
        return lo_at[t], hi_at[t]

    return bounds


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


def _reduce_extremes(low, high, seen, t, norms) -> None:
    """Fold pairs at distances ``t`` with ``norms`` into the per-distance extremes."""
    np.minimum.at(low, t, norms)
    np.maximum.at(high, t, norms)
    seen[t] = True


def profile(f: CoarseEmbeddingMap) -> ControlPair:
    """Tightest monotone controls attained by ``f`` on its whole domain.

    A ``_certified`` map attains norm t at each realized distance t, and no
    pair is swept.  Any other map sweeps all pairs: raw per-distance minima
    take a running minimum from the right and maxima a running maximum from
    the left, which is the optimal nondecreasing pair still sandwiching every
    realized pair.
    """
    n = f.domain.point_count()
    if not n:
        raise ValueError("empty domain")
    dist = f.domain.distance_matrix()
    low = np.full(int(dist.max()) + 1, np.inf)
    high = np.full(len(low), -np.inf)
    seen = np.zeros(len(low), dtype=bool)
    if _certified(f):
        # dist is symmetric, so a block of rows needs its columns from its first row on
        step = max(1, _BLOCK_ENTRIES // n)
        for first in range(0, n, step):
            block = dist[first : first + step, first:]
            seen |= np.bincount(block.ravel(), minlength=len(seen)) > 0
        # distinct points are at positive distance, so only the diagonal is 0
        seen[0] = False
        low = high = np.arange(len(seen), dtype=np.float64)
    else:
        spans = [(i, i + 1, n) for i in range(n - 1)]
        # the norms and distances of whole rows gather in one reused buffer of
        # about _BLOCK_ENTRIES pairs, each full buffer reduced by one ufunc.at
        # per extreme: never an (n^2, dim) array nor all pairs at once
        size = max(_BLOCK_ENTRIES, n - 1)
        norm_buf, t_buf = np.empty(size), np.empty(size, dtype=dist.dtype)
        filled = 0
        for (i, first, stop), norms in zip(spans, _pair_norms(f, spans)):
            if filled + len(norms) > size:
                _reduce_extremes(low, high, seen, t_buf[:filled], norm_buf[:filled])
                filled = 0
            norm_buf[filled : filled + len(norms)] = norms
            t_buf[filled : filled + len(norms)] = dist[i, first:stop]
            filled += len(norms)
        _reduce_extremes(low, high, seen, t_buf[:filled], norm_buf[:filled])
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

    The base point x0 is the identity of level 0.  Each entry is at most
    d(x, x0) <= max_y d(x0, y) in absolute value, so x0's row sets the dtype.
    """
    dist = space.distance_matrix()
    base_row = dist[space.chain.levels[0].identity]  # level 0's points come first
    mat = np.subtract(dist, base_row, dtype=_difference_dtype(base_row))
    return CoarseEmbeddingMap(space, math.inf, len(base_row), mat)


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
    return CoarseEmbeddingMap(space, p, 2 * ranks.pop(), np.array(rows, dtype=np.float64))


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


def verify_coarse(
    f: CoarseEmbeddingMap,
    rho_minus,
    rho_plus,
    tolerance: float = 1e-9,
) -> CoarseReport:
    """Check rho_minus(d(x,y)) <= |f(x)-f(y)| <= rho_plus(d(x,y)) on all pairs.

    The controls are mappings from realized distances to values and must be
    nondecreasing there.  A ``_certified`` map takes its norms from the
    distances; any other map sweeps all pairs.  Divergence is reported only as
    the attained range.
    """
    _check_tolerance(tolerance)
    pts = f.domain.points()
    dist = f.domain.distance_matrix()
    max_t = int(dist.max(initial=0))
    bounds = _control_bounds(rho_minus, rho_plus, max_t)
    witnesses = []
    if _certified(f):
        # N = d, so each row's norms are its distances and no pair is swept
        all_norms = (dist[i, i:].astype(np.float64) for i in range(len(pts)))
    else:
        all_norms = _pair_norms(f, [(i, i, len(pts)) for i in range(len(pts))])
    for i, norms in enumerate(all_norms):
        t = dist[i, i:]
        lo, hi = bounds(t)
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
