"""Fibred coarse embeddings of box spaces and their verification.

The model keeps the data of the definition explicit: a section assigning a
vector to every point, an exclusion set per scale r, and a trivialization
oracle that serves local isometric identifications, one stack of rows for
many sets.  Verification enumerates witness sets at a given scale and checks
the two conditions: the sandwich on trivialized section differences, and
constancy of transition isometries on overlaps.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .boxspace import BoxPoint, BoxSpace, format_point
from .embedding import CoarseEmbeddingMap, _check_tolerance, _control_table, _Record
from .errors import (
    ActionCheckError,
    ControlSampleError,
    InvalidArgumentError,
    MissingTrivializationError,
)
from .groups import (
    FREE_ABELIAN,
    _ambient_spheres,
    ambient_from_letters,
    ambient_identity,
    ambient_mult,
)
from .lpspace import AffineIsometry, IsometryStack, SignedPermutation, identity_isometry, lp_norm

__all__ = [
    "FibredEmbedding",
    "ProperAction",
    "FceReport",
    "trivial_fibration",
    "translation_action",
    "from_proper_action",
    "verify_fce",
]

SetOfPoints = tuple[BoxPoint, ...]
# mode 'all' refuses more non-excluded points than this
MAX_ALL_POINTS = 16


class FibredEmbedding:
    """Section + exclusion + trivialization oracle over a box space.

    ``trivialization(sets, r)`` returns one ``IsometryStack`` of this
    fibration's l^p space with a row per (set, point), sets in order and
    points in the order each set lists them, or raises
    MissingTrivializationError for the first set it cannot serve.  Verifiers
    only ever request sets of diameter below ``r``, but the oracle may serve
    more (the proper-action construction serves any single-level set whose
    covering radius is below ``r``).
    """

    def __init__(
        self,
        space: BoxSpace,
        p: float,
        dim: int,
        section: dict[BoxPoint, np.ndarray],
        exclusion: Callable[[int], frozenset[BoxPoint]],
        trivialization: Callable[[list[SetOfPoints], int], IsometryStack],
        note: str = "",
    ):
        self.space, self.p, self.dim = space, float(p), dim
        self.section = {pt: np.asarray(v, dtype=np.float64) for pt, v in section.items()}
        self.exclusion, self.trivialization, self.note = exclusion, trivialization, note
        for pt in self.space.points():
            v = self.section.get(pt)
            if v is None:
                raise ValueError(f"section missing point {format_point(pt)}")
            if v.shape != (self.dim,):
                raise ValueError(f"section at {format_point(pt)} has shape {v.shape}")
        self._section_rows = np.array(
            [self.section[pt] for pt in self.space.points()], dtype=np.float64
        ).reshape(-1, self.dim)

    def excluded(self, r: int) -> frozenset[BoxPoint]:
        if r < 1:
            raise ValueError(f"scale must be >= 1, got {r}")
        return self.exclusion(r)

    def trivialize(self, sets, r: int) -> tuple[IsometryStack, np.ndarray]:
        """Serve nonempty sets of points and check the served rows once.

        Returns the oracle's stack, one row per (set, point) in order, and
        each row's isometry applied to the section at its point.
        """
        sets = [tuple(C) for C in sets]
        if not all(sets):
            raise ValueError("cannot trivialize an empty set")
        members = [pt for C in sets for pt in C]
        where = self.space.point_indices(members)
        stack = self.trivialization(sets, int(r))
        if not isinstance(stack, IsometryStack):
            raise TypeError(f"oracle returned {type(stack).__name__}, not an IsometryStack")
        stack = IsometryStack(
            *(np.asarray(a, dtype=t) for a, t in zip(stack, (np.int64, np.int64, np.float64)))
        )
        shape = (len(members), self.dim)
        for a in stack:
            if a.shape != shape:
                raise ValueError(
                    f"oracle returned rows of shape {a.shape} for {len(members)} points;"
                    f" the fibration lives in dimension {self.dim}"
                )
        valid = (np.sort(stack.perm, axis=1) == np.arange(self.dim)).all(axis=1)
        valid &= (np.abs(stack.signs) == 1).all(axis=1)
        if not valid.all():
            raise ValueError(
                "oracle returned a row that is not a signed permutation at"
                f" {format_point(members[int(np.argmin(valid))])}"
            )
        return stack, stack.apply(self._section_rows[where])


def trivial_fibration(f: CoarseEmbeddingMap) -> FibredEmbedding:
    """Fibration with section f and identity trivializations everywhere.

    Satisfies the overlap condition by construction; the sandwich condition
    reduces to the coarse controls of ``f`` itself.
    """

    def serve(sets: list[SetOfPoints], r: int) -> IsometryStack:
        return IsometryStack.identity(sum(map(len, sets)), f.dim)

    return FibredEmbedding(
        space=f.domain,
        p=f.p,
        dim=f.dim,
        section={pt: f(pt) for pt in f.domain.points()},
        exclusion=lambda r: frozenset(),
        trivialization=serve,
        note="trivial fibration over a global map",
    )


class ProperAction:
    """Affine isometric action of the ambient group on l^p, given by a rule.

    ``rule`` receives an ambient element and returns the corresponding
    isometry; results are cached.  Properness is a statement about all of the
    group and is not certified here, only spot-checked downstream.
    """

    def __init__(
        self,
        p: float,
        dim: int,
        rule: Callable[[tuple], AffineIsometry],
        label: str = "",
        _cache: dict | None = None,
    ):
        self.p, self.dim, self.rule, self.label = p, dim, rule, label
        self._cache = {} if _cache is None else _cache

    def isometry(self, g) -> AffineIsometry:
        key = tuple(g)
        iso = self._cache.get(key)
        if iso is None:
            iso = self.rule(key)
            if iso.p != float(self.p) or iso.dim != self.dim:
                raise ActionCheckError(
                    f"rule returned an isometry of the wrong space at {key}"
                )
            self._cache[key] = iso
        return iso


def translation_action(rank: int, p: float) -> ProperAction:
    """Free abelian group acting on R^rank by coordinate translations."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")

    def rule(g: tuple) -> AffineIsometry:
        if len(g) != rank:
            raise ActionCheckError(f"expected {rank} coordinates, got {len(g)}")
        return AffineIsometry(p, SignedPermutation.identity(rank), np.asarray(g, float))

    return ProperAction(p=float(p), dim=rank, rule=rule, label=f"translation rank {rank}")


def _check_action(chain, action: ProperAction, r_max: int, tol: float = 1e-9) -> None:
    """Check T(e) = id and T(gs) = T(g)T(s) for |g| < 2 r_max and every letter s.

    By induction on the length of b this gives T(a)T(b) = T(ab) whenever
    |a|, |b| <= r_max, up to r_max times ``tol``.  A failure names the first
    (g, s) with g in sphere order and s in letter order.
    """
    e = ambient_identity(chain)
    if not action.isometry(e).close_to(identity_isometry(action.p, action.dim), tol):
        raise ActionCheckError("identity element does not act as the identity")
    spheres = _ambient_spheres(chain, 2 * r_max)
    ball = [g for sphere in spheres for g in sphere]
    index = {g: k for k, g in enumerate(ball)}
    letters = [ambient_from_letters(chain, (l,)) for l in chain.levels[0].letters()]
    g, s = np.divmod(np.arange((len(ball) - len(spheres[-1])) * len(letters)), len(letters))
    gs = [index[ambient_mult(chain, ball[a], letters[b])] for a, b in zip(g.tolist(), s.tolist())]
    act = IsometryStack.of([action.isometry(h) for h in ball], action.dim)
    at = np.array([index[h] for h in letters], dtype=np.int64)
    bad = np.flatnonzero(act.after(act, g, at[s]).differs(act.take(gs), tol))
    if bad.size:
        k = bad[0]
        raise ActionCheckError(f"action is not multiplicative at {ball[g[k]]}, {letters[s[k]]}")


# entries of one (members, order) block of the one-centre search: 128 KB of
# int64 per temporary; smaller blocks cost more calls than they save
_CENTRE_ENTRIES = 1 << 14


def _one_centres(q, elements: np.ndarray, sizes: np.ndarray):
    """Per set, the first element minimizing the largest distance to the set, and that distance.

    The sets' members lie one after another in ``elements``.  Distances from
    every element to the members are taken a segment of sets at a time.
    """
    centre = np.empty(len(sizes), dtype=np.int64)
    cover = np.empty(len(sizes), dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    inverse = q.inv_many(np.arange(q.order))
    length = q.distance_from_identity()
    for first, stop in _segments(sizes * q.order, _CENTRE_ENTRIES):
        lo, hi = starts[first], starts[stop - 1] + sizes[stop - 1]
        # far[k, z]: the largest |z^-1 y| over the members y of set k
        far = length[q.mult_many(inverse, elements[lo:hi, None])]
        far = np.maximum.reduceat(far, starts[first:stop] - lo, axis=0)
        centre[first:stop] = far.argmin(axis=1)  # the first minimum: ties go to the smallest
        cover[first:stop] = far[np.arange(stop - first), centre[first:stop]]
    return centre, cover


def from_proper_action(space: BoxSpace, action: ProperAction, r_max: int = 5) -> FibredEmbedding:
    """Fibration obtained by localizing a proper action along isometric lifts.

    A set is served from the level's one-center: the level element minimizing
    the maximal distance to the set, ties broken by smallest element.  Each
    point lifts along its breadth-first geodesic from the center and is sent
    to the inverse of the action of its lift, so all pairwise lift distances
    stay below twice the scale and project back isometrically whenever the
    level's isometry radius is at least twice the scale.  The same margin
    pins the transition mismatch between two overlapping sets to a single
    group element, which is what makes the overlap condition hold.  That
    pinning argument needs commutativity, hence the abelian restriction.

    Each served level's lifts and their inverse action isometries are built
    once, one row per element; a point x of a set centred at z is served the
    row of z^-1 x.  ``r_max`` bounds the multiplicativity precheck on the
    action (exact for products of elements of length up to r_max, see
    ``_check_action``); serving itself is uniform in the scale.
    """
    if r_max < 1:
        raise ValueError(f"precheck depth must be >= 1, got {r_max}")
    chain = space.chain
    if chain.ambient.family != FREE_ABELIAN:
        raise InvalidArgumentError(
            "proper-action fibrations need a free abelian ambient group;"
            f" got family {chain.ambient.family!r}"
        )
    _check_action(chain, action, r_max)

    zero = np.zeros(action.dim)
    section = {pt: zero.copy() for pt in space.points()}

    radius = np.array([chain.radius(i) for i in range(chain.level_count())])

    def exclusion(r: int) -> frozenset[BoxPoint]:
        out = []
        for i, q in enumerate(chain.levels):
            if radius[i] < 2 * r:
                out.extend(BoxPoint(i, x) for x in range(q.order))
        return frozenset(out)

    inverse_lifts: dict[int, IsometryStack] = {}

    def lifted(i: int) -> IsometryStack:
        if i not in inverse_lifts:
            q = chain.levels[i]
            dist = q.distance_from_identity()
            letters = np.array(q.letters(), dtype=np.int64)
            # each element's breadth-first word as an ambient vector, one
            # layer at a time: its parent's vector plus one letter
            lift = np.zeros((q.order, chain.ambient.rank), dtype=np.int64)
            for d in range(1, int(dist.max()) + 1):
                layer = np.flatnonzero(dist == d)
                step = letters[q._parent_letter[layer]]
                lift[layer] = lift[q._parent[layer]]
                lift[layer, np.abs(step) - 1] += np.sign(step)
            isos = [action.isometry(g) for g in map(tuple, lift.tolist())]
            inverse_lifts[i] = IsometryStack.of(isos, action.dim).inverse()
        return inverse_lifts[i]

    def serve(sets: list[SetOfPoints], r: int) -> IsometryStack:
        sizes = np.array([len(C) for C in sets], dtype=np.int64)
        level, elem = np.array([pt for C in sets for pt in C], dtype=np.int64).reshape(-1, 2).T
        out = IsometryStack.identity(len(level), action.dim)
        if not len(sets):
            return out
        starts = np.cumsum(sizes) - sizes
        low = np.minimum.reduceat(level, starts)
        spans = low != np.maximum.reduceat(level, starts)
        excluded = ~spans & (radius[low] < 2 * r)
        home = np.where(spans | excluded, -1, low)  # the level serving each set
        served = np.flatnonzero(np.bincount(home[home >= 0])).tolist()
        owner = np.repeat(np.arange(len(sets)), sizes)
        centre = np.zeros(len(sets), dtype=np.int64)
        cover = np.zeros(len(sets), dtype=np.int64)
        for i in served:
            at = np.flatnonzero(home == i)
            centre[at], cover[at] = _one_centres(chain.levels[i], elem[home[owner] == i], sizes[at])
        failed = spans | excluded | (cover >= r)
        if failed.any():
            k = int(failed.argmax())
            if spans[k]:
                raise MissingTrivializationError(
                    f"set spans levels {sorted(set(level[owner == k].tolist()))};"
                    " only single-level sets are served"
                )
            if excluded[k]:
                raise MissingTrivializationError(
                    f"level {low[k]} is excluded at scale {r}: isometry radius"
                    f" {radius[low[k]]} < {2 * r}"
                )
            raise MissingTrivializationError(
                f"covering radius {cover[k]} of the set is not below scale {r}"
            )
        for i in served:
            q = chain.levels[i]
            rows = home[owner] == i
            x = q.mult_many(q.inv_many(centre[owner[rows]]), elem[rows])
            for whole, part in zip(out, lifted(i).take(x)):
                whole[rows] = part
        return out

    return FibredEmbedding(
        space=space,
        p=action.p,
        dim=action.dim,
        section=section,
        exclusion=exclusion,
        trivialization=serve,
        note=f"proper-action fibration ({action.label or 'unlabeled action'})",
    )


class FceReport(_Record):
    """Outcome of a fibred-embedding check at one scale."""

    def __init__(
        self,
        passed: bool,
        r: int,
        mode: str,
        tolerance: float,
        set_count: int,
        excluded_count: int,
        sandwich_pairs: int,
        overlap_pairs: int,
        vacuous_overlaps: int,
        sandwich_witnesses: list | None = None,
        overlap_witnesses: list | None = None,
        notes: list[str] | None = None,
    ):
        self.passed, self.r, self.mode, self.tolerance = passed, r, mode, tolerance
        self.set_count, self.excluded_count = set_count, excluded_count
        self.sandwich_pairs, self.overlap_pairs = sandwich_pairs, overlap_pairs
        self.vacuous_overlaps = vacuous_overlaps
        self.sandwich_witnesses = [] if sandwich_witnesses is None else sandwich_witnesses
        self.overlap_witnesses = [] if overlap_witnesses is None else overlap_witnesses
        self.notes = [] if notes is None else notes

    def to_text(self) -> str:
        lines = [
            f"fibred embedding check: {'PASS' if self.passed else 'FAIL'}"
            f" (r={self.r}, mode={self.mode})",
            f"witness sets: {self.set_count}, excluded points: {self.excluded_count}",
            f"sandwich condition: {self.sandwich_pairs} pairs at tolerance"
            f" {self.tolerance:g}, {len(self.sandwich_witnesses)} violations",
            f"overlap condition: {self.overlap_pairs} set pairs compared,"
            f" {self.vacuous_overlaps} vacuous, {len(self.overlap_witnesses)} violations",
        ]
        for C, x, y, t, nrm, lo, hi in self.sandwich_witnesses:
            lines.append(
                f"  sandwich violated on {_set_label(C)} at"
                f" ({format_point(x)}, {format_point(y)}): d={t},"
                f" norm={nrm:.12g}, bounds [{lo:.12g}, {hi:.12g}]"
            )
        for C1, C2, x0, x in self.overlap_witnesses:
            lines.append(
                f"  transition not constant between {_set_label(C1)} and"
                f" {_set_label(C2)}: differs at {format_point(x0)} vs {format_point(x)}"
            )
        lines.extend(self.notes)
        return "\n".join(lines)


def _set_label(C: SetOfPoints) -> str:
    body = ",".join(format_point(pt) for pt in C[:4])
    return "{" + body + (",..." if len(C) > 4 else "") + "}"


def _candidate_sets(space, allowed, dist, r: int, mode: str):
    ix = space.point_indices(allowed)
    sets: list[SetOfPoints] = []
    seen: set[SetOfPoints] = set()

    def push(C: SetOfPoints):
        if len(C) >= 2 and C not in seen:
            seen.add(C)
            sets.append(C)

    if mode in ("balls", "balls+pairs"):
        for k in ix.tolist():
            push(tuple(allowed[m] for m in np.flatnonzero(dist[k, ix] <= (r - 1) // 2).tolist()))
    if mode in ("pairs", "balls+pairs"):
        for k, x in enumerate(allowed):
            for m in np.flatnonzero(dist[ix[k], ix[k + 1 :]] < r).tolist():
                push((x, allowed[k + 1 + m]))
    if mode == "all":
        if len(allowed) > MAX_ALL_POINTS:
            raise InvalidArgumentError(
                f"mode 'all' over {len(allowed)} points exceeds the cap of"
                f" {MAX_ALL_POINTS}; use balls+pairs"
            )
        near = np.triu(dist[np.ix_(ix, ix)] < r, 1)
        # grow the cliques of `near` one point at a time: extending each
        # k-subset, in lexicographic order, by the larger indices near all its
        # members gives the (k+1)-subsets in lexicographic order
        cliques = np.arange(len(allowed))[:, None]
        common = near
        while len(cliques):
            parent, last = np.nonzero(common)
            cliques = np.column_stack([cliques[parent], last])
            common = common[parent] & near[last]
            for combo in cliques.tolist():
                push(tuple(allowed[i] for i in combo))
    if mode not in ("balls", "pairs", "balls+pairs", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    return sets


# entries of one (rows, dim) array in a batch of the array checks (32 KB of
# float64), and index rows of one segment of the overlap pass.  On Z/16 with
# `fce-verify --subsets all --r 5` (dim 16; 2 vCPU, Python 3.11, numpy 2.4),
# peak RSS in a fresh process reads 32.5, 33.4, 34.3 and 36.6 MB at 2^12,
# 2^13, 2^14 and 2^15, and verify_fce takes 7.4, 6.8 and 6.6 ms at 2^12,
# 2^13 and 2^14: a larger batch buys under a millisecond per megabyte
_BATCH_ENTRIES = 1 << 12


def _fan_out(counts):
    """Rows ``(k, step)`` with step 1..counts[k], for each k in order."""
    source = np.repeat(np.arange(len(counts)), counts)
    return source, np.arange(len(source)) - np.repeat(np.cumsum(counts) - counts, counts) + 1


def _segments(weights, budget: int):
    """Consecutive ranges of items, each of total weight about ``budget``."""
    if not len(weights):
        return []
    window = (np.cumsum(weights) - weights) // budget
    bounds = [0, *(np.flatnonzero(np.diff(window)) + 1).tolist(), len(weights)]
    return zip(bounds[:-1], bounds[1:])


def verify_fce(
    fib: FibredEmbedding,
    r: int,
    rho_minus,
    rho_plus,
    mode: str = "balls+pairs",
    tolerance: float = 1e-9,
) -> FceReport:
    """Check both fibred-embedding conditions at scale ``r``.

    Witness sets are drawn from the non-excluded part of the space: balls of
    radius (r-1)//2, pairs closer than r, their union, or every subset of
    diameter below r (mode 'all', capped).  Controls are mappings from
    realized distances; a missing sample raises ControlSampleError.  Two sets
    sharing one point are a vacuous overlap; sets sharing more have their
    transition at every shared point compared with the one at the first.
    """
    _check_tolerance(tolerance)
    if r < 1:
        raise InvalidArgumentError(f"scale must be >= 1, got {r}")
    space = fib.space
    K = fib.excluded(r)
    allowed = [pt for pt in space.points() if pt not in K]
    dist = space.distance_matrix()
    sets = _candidate_sets(space, allowed, dist, r, mode)
    # one row per (set, point): sets in order, points sorted within a set
    members = [pt for C in sets for pt in C]
    stack, moved = fib.trivialize(sets, r)
    where = space.point_indices(members)
    sizes = np.array([len(C) for C in sets], dtype=np.int64)
    ends = np.cumsum(sizes)
    owner = np.repeat(np.arange(len(sets)), sizes)
    budget = max(1, _BATCH_ENTRIES // max(fib.dim, 1))
    # rows after each row within its set, and in its point's incidence list
    # (the rows of every set holding the point, sets ascending)
    in_set = ends[owner] - np.arange(len(members)) - 1
    by_point = np.lexsort((owner, where))
    rank = np.empty_like(by_point)
    rank[by_point] = np.arange(len(members))
    holders = np.unique(where, return_counts=True)[1]
    at_point = (np.repeat(np.cumsum(holders), holders) - np.arange(len(members)) - 1)[rank]

    (lo_at, has_lo), (hi_at, has_hi) = (
        _control_table(c, int(dist.max(initial=0))) for c in (rho_minus, rho_plus)
    )
    sandwich_witnesses = []
    sandwich_pairs = 0
    for first, stop in _segments(in_set, budget):
        # member rows (u, v) of every pair of points inside one set
        source, step = _fan_out(in_set[first:stop])
        u = source + first
        v = u + step
        t = dist[where[u], where[v]]
        missing = np.flatnonzero(~(has_lo[t] & has_hi[t]))
        if missing.size:
            raise ControlSampleError(f"control sample missing realized distance {t[missing[0]]}")
        lo, hi = lo_at[t], hi_at[t]
        nrm = lp_norm(moved[u] - moved[v], fib.p, axis=1)
        bad = ~((lo - tolerance <= nrm) & (nrm <= hi + tolerance))  # NaN fails closed
        sandwich_pairs += len(t)
        sandwich_witnesses += [
            (sets[owner[m]], members[m], members[n], d, norm, low, high)
            for m, n, d, norm, low, high in zip(*(c[bad].tolist() for c in (u, v, t, nrm, lo, hi)))
        ]

    overlap_witnesses = []
    overlap_pairs = 0
    vacuous = 0
    inverse = stack.inverse()
    weights = np.bincount(owner, weights=at_point, minlength=len(sets))
    for first, stop in _segments(weights, _BATCH_ENTRIES):
        # member rows (a, b) of set pairs a < b, a in this segment of sets, at
        # each shared point; sorted by pair, then by point
        rows = np.arange(ends[first] - sizes[first], ends[stop - 1])
        source, step = _fan_out(at_point[rows])
        a = rows[source]
        b = by_point[rank[a] + step]
        order = np.lexsort((where[a], owner[b], owner[a]))
        a, b = a[order], b[order]
        size = np.unique(owner[a] * len(sets) + owner[b], return_counts=True)[1]
        vacuous += int((size == 1).sum())
        keep = np.repeat(size > 1, size)
        a, b, size = a[keep], b[keep], size[size > 1]
        overlap_pairs += len(size)
        base = np.repeat(np.cumsum(size) - size, size)  # the row of each pair's first point
        bad = np.zeros(len(a), dtype=bool)
        for k in range(0, len(a), budget):
            batch = slice(k, k + budget)
            trans = stack.after(inverse, a[batch], b[batch])
            lead = base[batch] - k  # each row's pair's first row, negative before the batch
            ref = trans.take(np.maximum(lead, 0))
            if lead[0] < 0:  # a pair begun in an earlier batch: compare with its kept first row
                for whole, part in zip(ref, head):
                    whole[lead < 0] = part
            bad[batch] = trans.differs(ref, tolerance)
            if lead[-1] >= 0:  # keep the last pair's first row for the next batch
                head = trans.take(lead[-1:])
        bad[base == np.arange(len(base))] = False
        pairs, at = np.unique(base[bad], return_index=True)
        overlap_witnesses += [
            (sets[owner[a[m]]], sets[owner[b[m]]], members[a[m]], members[a[n]])
            for m, n in zip(pairs.tolist(), np.flatnonzero(bad)[at].tolist())
        ]

    notes = []
    if not sets:
        notes.append("no witness sets at this scale; both conditions hold vacuously")
    return FceReport(
        passed=not sandwich_witnesses and not overlap_witnesses,
        r=r,
        mode=mode,
        tolerance=tolerance,
        set_count=len(sets),
        excluded_count=len(K),
        sandwich_pairs=sandwich_pairs,
        overlap_pairs=overlap_pairs,
        vacuous_overlaps=vacuous,
        sandwich_witnesses=sandwich_witnesses,
        overlap_witnesses=overlap_witnesses,
        notes=notes,
    )
