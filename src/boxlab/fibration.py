"""Fibred coarse embeddings of box spaces and their verification.

The model keeps the data of the definition explicit: a section assigning a
vector to every point, an exclusion mask per scale r, and a trivialization
oracle that serves local isometric identifications, one stack of rows for
many sets.  Verification enumerates witness sets at a given scale and checks
the two conditions: the sandwich on trivialized section differences, and
constancy of transition isometries on overlaps.  A point is its index into
``space.points()`` throughout, and is named only in reports and errors.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .boxspace import BoxSpace, format_point
from .embedding import CoarseEmbeddingMap, _check_tolerance, _control_bounds, _Record
from .errors import ActionCheckError, InvalidArgumentError, MissingTrivializationError
from .groups import (
    _BLOCK_ENTRIES,
    FREE_ABELIAN,
    _ambient_spheres,
    ambient_from_letters,
)
from .lpspace import IsometryStack, lp_norm

__all__ = [
    "FibredEmbedding",
    "ProperAction",
    "FceReport",
    "trivial_fibration",
    "translation_action",
    "from_proper_action",
    "verify_fce",
]

MODES = ("balls", "pairs", "balls+pairs", "all")
# mode 'all' refuses more non-excluded points than this
MAX_ALL_POINTS = 16


class FibredEmbedding:
    """Section + exclusion + trivialization oracle over a box space.

    The section is what ``CoarseEmbeddingMap(space, p, dim, section)`` takes
    and checks, a mapping from each point to its vector or a ``(points, dim)``
    matrix whose rows follow ``space.points()``; ``section`` is that map's
    read-only matrix.  ``exclusion(r)`` is a bool mask over ``space.points()``,
    True at each excluded point.  A batch of sets is packed as two int64 arrays
    of point indices: set k is ``members[starts[k]:starts[k + 1]]``, ``starts``
    running from 0 to ``len(members)``.  ``trivialization(starts, members, r)``
    returns one ``IsometryStack`` of this fibration's l^p space with a row per
    member, or raises MissingTrivializationError for the first set it cannot
    serve.  Verifiers only ever request sets of diameter below ``r``, but the
    oracle may serve more (the proper-action construction serves any
    single-level set within ``r - 1`` of its first point).  ``trivialize``
    checks the batch before the oracle runs, and the served rows after.
    """

    def __init__(
        self,
        space: BoxSpace,
        p: float,
        dim: int,
        section: dict | np.ndarray,
        exclusion: Callable[[int], np.ndarray],
        trivialization: Callable[[np.ndarray, np.ndarray, int], IsometryStack],
        note: str = "",
    ):
        self.space, self.p, self.dim = space, float(p), dim
        self.exclusion, self.trivialization, self.note = exclusion, trivialization, note
        self.section = CoarseEmbeddingMap(space, p, dim, section).matrix()

    def excluded(self, r: int) -> np.ndarray:
        if r < 1:
            raise InvalidArgumentError(f"scale must be >= 1, got {r}")
        mask, n = np.asarray(self.exclusion(r)), self.space.point_count()
        if mask.dtype != bool or mask.shape != (n,):
            raise ValueError(f"exclusion returned {mask.dtype} of shape {mask.shape}, not a mask of {n}")
        return mask

    def trivialize(self, starts, members, r: int) -> tuple[IsometryStack, np.ndarray]:
        """Serve a packed batch of nonempty sets and check the served rows once.

        The batch is checked before the oracle runs.  Returns the oracle's
        stack, one row per member in order, and each row's isometry applied
        to the section at its point.
        """
        starts, members = np.asarray(starts, dtype=np.int64), np.asarray(members, dtype=np.int64)
        sizes, n = np.diff(starts), self.space.point_count()
        if not (len(starts) and starts[0] == 0 and starts[-1] == len(members) and (sizes >= 0).all()):
            raise ValueError(f"set starts do not run up from 0 to {len(members)} members")
        if not sizes.all():
            raise ValueError("cannot trivialize an empty set")
        if len(members) and not 0 <= members.min() <= members.max() < n:
            raise ValueError(f"members must be point indices below {n}")
        stack = self.trivialization(starts, members, int(r))
        if not isinstance(stack, IsometryStack):
            raise TypeError(f"oracle returned {type(stack).__name__}, not an IsometryStack")
        stack, bad = stack.checked((len(members), self.dim))
        if isinstance(bad, tuple):
            raise ValueError(
                f"oracle returned rows of shape {bad} for {len(members)} points;"
                f" the fibration lives in dimension {self.dim}"
            )
        if bad is not None:
            raise ValueError(
                "oracle returned a row that is not a signed permutation at"
                f" {format_point(self.space.points()[members[bad]])}"
            )
        return stack, stack.apply(self.section[members])


def trivial_fibration(f: CoarseEmbeddingMap) -> FibredEmbedding:
    """Fibration with section f and identity trivializations everywhere.

    Satisfies the overlap condition by construction; the sandwich condition
    reduces to the coarse controls of ``f`` itself.
    """
    return FibredEmbedding(
        space=f.domain,
        p=f.p,
        dim=f.dim,
        section=f.matrix(),
        exclusion=lambda r: np.zeros(f.domain.point_count(), dtype=bool),
        trivialization=lambda starts, members, r: IsometryStack.identity(len(members), f.dim),
        note="trivial fibration over a global map",
    )


class ProperAction:
    """Affine isometric action of the ambient group on l^p, given by a rule over rows.

    ``rule`` receives an ``(n, rank)`` int64 array of ambient elements of a
    free abelian group, one per row, and returns an ``IsometryStack`` with the
    isometry of each row.  ``act`` makes one rule call and checks its rows.
    Properness is a statement about all of the group and is not certified
    here, only spot-checked downstream.
    """

    def __init__(
        self,
        p: float,
        dim: int,
        rule: Callable[[np.ndarray], IsometryStack],
        label: str = "",
    ):
        self.p, self.dim, self.rule, self.label = p, dim, rule, label

    def act(self, rows) -> IsometryStack:
        """The isometries of the ambient elements ``rows``, one per row."""
        rows = np.asarray(rows, dtype=np.int64)
        stack = self.rule(rows)
        if not isinstance(stack, IsometryStack):
            raise ActionCheckError(f"rule returned {type(stack).__name__}, not an IsometryStack")
        stack, bad = stack.checked((len(rows), self.dim))
        if isinstance(bad, tuple):
            raise ActionCheckError(
                f"rule returned rows of shape {bad} for {len(rows)} elements;"
                f" the action lives in dimension {self.dim}"
            )
        if bad is not None:
            raise ActionCheckError(
                "rule returned a row that is not a signed permutation at"
                f" {tuple(rows[bad].tolist())}"
            )
        return stack


def translation_action(rank: int, p: float) -> ProperAction:
    """Free abelian group acting on R^rank by coordinate translations."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")

    def rule(rows: np.ndarray) -> IsometryStack:
        if rows.ndim != 2 or rows.shape[1] != rank:
            raise ActionCheckError(f"expected {rank} coordinates, got rows of shape {rows.shape}")
        return IsometryStack.identity(len(rows), rank)._replace(translation=rows.astype(np.float64))

    return ProperAction(p=float(p), dim=rank, rule=rule, label=f"translation rank {rank}")


def _check_action(chain, action: ProperAction, r_max: int, tol: float = 1e-9) -> None:
    """Check T(e) = id and T(gs) = T(g)T(s) for |g| < 2 r_max and every letter s.

    By induction on the length of b this gives T(a)T(b) = T(ab) whenever
    |a|, |b| <= r_max, up to r_max times ``tol``.  A failure names the first
    (g, s) with g in sphere order and s in letter order.  The ambient group is
    free abelian, so gs is the sum of the rows g and s.  The rule is called
    once, on the whole ball.
    """
    spheres = _ambient_spheres(chain, 2 * r_max)
    ball = [g for sphere in spheres for g in sphere]  # the identity first
    rows = np.array(ball, dtype=np.int64)
    act = action.act(rows)
    if act.take([0]).differs(IsometryStack.identity(1, action.dim), tol)[0]:
        raise ActionCheckError("identity element does not act as the identity")
    index = {g: k for k, g in enumerate(ball)}
    letters = [ambient_from_letters(chain, (l,)) for l in chain.levels[0].letters()]
    g, s = np.divmod(np.arange((len(ball) - len(spheres[-1])) * len(letters)), len(letters))
    gs = [index[h] for h in map(tuple, (rows[g] + np.array(letters)[s]).tolist())]
    at = np.array([index[h] for h in letters], dtype=np.int64)
    bad = np.flatnonzero(act.after(act, g, at[s]).differs(act.take(gs), tol))
    if bad.size:
        k = bad[0]
        raise ActionCheckError(f"action is not multiplicative at {ball[g[k]]}, {letters[s[k]]}")


def from_proper_action(space: BoxSpace, action: ProperAction, r_max: int = 5) -> FibredEmbedding:
    """Fibration obtained by localizing a proper action along isometric lifts.

    A set is served from its first point c.  Each point x lifts along the
    breadth-first geodesic of c^-1 x and is sent to the inverse of the action
    of its lift.  The oracle serves any single-level set within r - 1 of its
    first point; verifiers ask only for sets of diameter below r, and
    localization lists each ball's centre first.  Two lifts then differ by an
    ambient vector shorter than 2r, which projects isometrically whenever the
    level's isometry radius is at least twice the scale, so any base gives
    the same differences.  The same margin pins the transition mismatch
    between two overlapping sets to a single group element, which is what
    makes the overlap condition hold.  That pinning argument needs
    commutativity, hence the abelian restriction.

    Each served level's lifts and their inverse action isometries are built
    once, one row per element; a point x of a set whose first point is c is
    served the row of c^-1 x.  ``r_max`` bounds the multiplicativity
    precheck on the action (exact for products of elements of length up to
    r_max, see ``_check_action``); serving itself is uniform in the scale.
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

    radius = np.array([chain.radius(i) for i in range(chain.level_count())])
    first = space.level_starts()
    inverse_lifts: dict[int, IsometryStack] = {}

    def lifted(i: int) -> IsometryStack:
        if i not in inverse_lifts:
            q = chain.levels[i]
            # each element's breadth-first word as an ambient vector: its
            # parent's vector plus the unit vector of one letter
            units = np.repeat(np.eye(chain.ambient.rank, dtype=np.int64), 2, axis=0)
            units[1::2] *= -1  # letters +1, -1, +2, -2, ...
            zero = np.zeros(chain.ambient.rank, dtype=np.int64)
            lift = q._along_words(zero, lambda vector, letter: vector + units[letter])
            inverse_lifts[i] = action.act(lift).inverse()
        return inverse_lifts[i]

    def serve(starts: np.ndarray, members: np.ndarray, r: int) -> IsometryStack:
        out = IsometryStack.identity(len(members), action.dim)
        level = np.searchsorted(first, members, side="right") - 1
        elem = members - first[level]
        owner = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        starts = starts[:-1]
        low = np.minimum.reduceat(level, starts)
        spans = low != np.maximum.reduceat(level, starts)
        excluded = ~spans & (radius[low] < 2 * r)
        home = np.where(spans | excluded, -1, low)  # the level serving each set
        served = np.flatnonzero(np.bincount(home[home >= 0])).tolist()
        member_home = home[owner]
        # c^-1 x for each member x, c its set's first point, and its length
        offset = np.zeros(len(level), dtype=np.int64)
        length = np.zeros(len(level), dtype=np.int64)
        for i in served:
            q = chain.levels[i]
            rows = member_home == i
            offset[rows] = q.mult_many(q.inv_many(elem[starts[owner[rows]]]), elem[rows])
            length[rows] = q.distance_from_identity()[offset[rows]]
        reach = np.maximum.reduceat(length, starts)
        failed = spans | excluded | (reach >= r)
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
                f"set reaches {reach[k]} from its first point, not below scale {r}"
            )
        for i in served:
            rows = member_home == i
            for whole, part in zip(out, lifted(i).take(offset[rows])):
                whole[rows] = part
        return out

    return FibredEmbedding(
        space=space,
        p=action.p,
        dim=action.dim,
        section=np.zeros((space.point_count(), action.dim)),
        exclusion=lambda r: np.repeat(radius < 2 * r, np.diff(first)),
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


def _set_label(C: tuple) -> str:
    body = ",".join(format_point(pt) for pt in C[:4])
    return "{" + body + (",..." if len(C) > 4 else "") + "}"


def _near_pairs(dist, ix: np.ndarray, below: int, upper: bool):
    """Index pairs (k, m) into ``ix`` with ``dist[ix[k], ix[m]] < below``, row-major.

    Only m > k when ``upper``.  The distances are read a block of rows at a time.
    """
    width = max(len(ix), 1)
    step = max(1, _BLOCK_ENTRIES // width)
    found = []
    for start in range(0, width, step):
        # rows, then columns, gathered by take; and flat indices, since
        # np.nonzero on a 2-d mask costs about ten times as much
        near = dist[ix[start : start + step]].take(ix, axis=1) < below
        rows, cols = np.divmod(np.flatnonzero(near), width)
        rows += start
        keep = cols > rows if upper else slice(None)
        found.append((rows[keep], cols[keep]))
    return tuple(np.concatenate(part) for part in zip(*found))


def _candidate_sets(ix: np.ndarray, dist, r: int, mode: str):
    """The witness sets of ``mode`` over the points ``ix``, packed as ``(starts,
    members)``: each set's members ascend, and no set is listed twice."""
    sizes, parts = [], []  # each set's size, and its members as positions in ix
    ball_pairs = np.zeros(0, dtype=np.int64)  # balls of two, as k * len(ix) + m
    if mode in ("balls", "balls+pairs") and r >= 3:
        # the ball of radius (r - 1) // 2 around each point, in the order of ix;
        # below r = 3 each ball is its centre alone, never a witness set
        centre, member = _near_pairs(dist, ix, (r - 1) // 2 + 1, upper=False)
        count = np.bincount(centre, minlength=len(ix))
        # one row per ball, padded by -1 and never zero-wide; the first of equal rows is kept
        head = np.cumsum(count) - count
        padded = np.full((len(ix), count.max(initial=0) + 1), -1)
        padded[centre, np.arange(len(centre)) - head[centre]] = member
        first_of_equal = np.unique(padded, axis=0, return_index=True)[1]
        keep = (count >= 2) & np.isin(np.arange(len(ix)), first_of_equal)
        sizes.append(count[keep])
        parts.append(member[np.repeat(keep, count)])
        two = head[keep & (count == 2)]
        ball_pairs = member[two] * len(ix) + member[two + 1]
    if mode in ("pairs", "balls+pairs"):
        k, m = _near_pairs(dist, ix, r, upper=True)
        fresh = ~np.isin(k * len(ix) + m, ball_pairs)  # pairs that are balls too are listed once
        sizes.append(np.full(int(fresh.sum()), 2))
        parts.append(np.column_stack([k[fresh], m[fresh]]).ravel())
    if mode == "all":
        if len(ix) > MAX_ALL_POINTS:
            raise InvalidArgumentError(
                f"mode 'all' over {len(ix)} points exceeds the cap of"
                f" {MAX_ALL_POINTS}; use balls+pairs"
            )
        near = np.triu(dist[np.ix_(ix, ix)] < r, 1)
        # grow the cliques of `near` one point at a time: extending each
        # k-subset, in lexicographic order, by the larger indices near all its
        # members gives the (k+1)-subsets in lexicographic order
        cliques = np.arange(len(ix))[:, None]
        common = near
        while len(cliques):
            parent, last = np.nonzero(common)
            cliques = np.column_stack([cliques[parent], last])
            common = common[parent] & near[last]
            sizes.append(np.full(len(cliques), cliques.shape[1]))
            parts.append(cliques.ravel())
    starts = np.cumsum(np.concatenate([[0], *sizes]), dtype=np.int64)
    return starts, ix[np.concatenate([np.zeros(0, dtype=np.int64), *parts])]


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


def _shared_points(starts, owner, at_point, by_point, rank):
    """Member rows ``(a, b)`` of one point in two sets, a's set before b's.

    Yielded a segment of sets at a time, by a's row; ``at_point`` counts the
    rows after each row in its point's incidence list ``by_point`` (the rows
    of every set holding the point, sets ascending), and ``rank`` is each
    row's place there.
    """
    weights = np.bincount(owner, weights=at_point)
    for first, stop in _segments(weights, _BATCH_ENTRIES):
        rows = np.arange(starts[first], starts[stop])
        source, step = _fan_out(at_point[rows])
        a = rows[source]
        yield a, by_point[rank[a] + step]


# a translation entry below this in magnitude keeps every composite of two
# rows, and so every transition, an exact integer in float64
_EXACT_BELOW = 2.0**52


def _exact(translation: np.ndarray) -> bool:
    """Every entry a finite integer below ``_EXACT_BELOW`` in magnitude."""
    # a NaN maximum compares false
    if not np.abs(translation).max(initial=0.0) < _EXACT_BELOW:
        return False
    return np.array_equal(np.rint(translation), translation)


def _certified(stack, inverse, where, by_point, in_set, budget: int) -> bool:
    """Whether q_C(x, y) = s_C(x)^-1 s_C(y) is one isometry over every set C holding
    both x and y, for each pair of points x before y, compared exactly.

    Then each transition t(x) = s_C1(x) s_C2(x)^-1 is constant on C1 and C2's
    shared points, since t(x) = t(y) exactly when q_C1(x, y) = q_C2(x, y).
    Each q is compared with that of the first set holding its pair.  The
    pairs (u, v) of member rows inside a set are taken by the point of u, a
    segment of points at a time, so the pairs of one point pair meet in one
    segment; compositions take ``budget`` pairs at a time.
    """
    holders = np.unique(where, return_counts=True)[1]
    starts = np.cumsum(holders) - holders
    weights = np.add.reduceat(in_set[by_point], starts)
    for first, stop in _segments(weights, _BATCH_ENTRIES):
        rows = by_point[starts[first] : starts[stop - 1] + holders[stop - 1]]
        source, step = _fan_out(in_set[rows])
        u = rows[source]
        v = u + step
        # by point pair, then by set: rows come by set within a point, and the sort is stable
        key = where[u] * (int(where.max()) + 1) + where[v]
        order = np.argsort(key, kind="stable")
        u, v, key = u[order], v[order], key[order]
        lead = np.flatnonzero(np.diff(key, prepend=-1))
        ref = np.repeat(lead, np.diff(lead, append=len(key)))  # each pair's first
        later = np.flatnonzero(ref != np.arange(len(key)))
        for k in range(0, len(later), budget):
            m = later[k : k + budget]
            q = inverse.after(stack, u[m], v[m])
            if not all(map(np.array_equal, q, inverse.after(stack, u[ref[m]], v[ref[m]]))):
                return False
    return True


def _overlap_sweep(stack, inverse, shared, owner, where, tolerance: float, budget: int):
    """Rows ``(a, b, x)`` naming each set pair whose transition differs, beyond
    ``tolerance``, at the point of row x from the one at its first shared point
    (row a, and b of the other set), the first such x.  ``shared`` yields the
    rows ``_shared_points`` does.
    """
    for a, b in shared:
        # sorted by set pair, then by point
        order = np.lexsort((where[a], owner[b], owner[a]))
        a, b = a[order], b[order]
        size = np.unique(owner[a] * len(owner) + owner[b], return_counts=True)[1]
        keep = np.repeat(size > 1, size)
        a, b, size = a[keep], b[keep], size[size > 1]
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
        yield from zip(a[pairs].tolist(), b[pairs].tolist(), a[np.flatnonzero(bad)[at]].tolist())


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
    realized distances, nondecreasing there (a decreasing or NaN sample raises
    InvalidArgumentError); a missing sample raises ControlSampleError.  Two sets
    sharing one point are a vacuous overlap; sets sharing more have their
    transition at every shared point compared with the one at the first.
    That comparison is certified exactly per point pair by ``_certified``
    where served translations are small integers; elsewhere, or on a
    mismatch, ``_overlap_sweep`` makes it and names the violations.
    """
    _check_tolerance(tolerance)
    excluded = fib.excluded(r)  # refuses r < 1
    if mode not in MODES:
        raise InvalidArgumentError(f"unknown mode {mode!r}")
    space = fib.space
    dist = space.distance_matrix()
    bounds = _control_bounds(rho_minus, rho_plus, int(dist.max(initial=0)))
    # one row per member: sets in order, points ascending within a set
    starts, where = _candidate_sets(np.flatnonzero(~excluded), dist, r, mode)
    stack, moved = fib.trivialize(starts, where, r)
    owner = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    budget = max(1, _BATCH_ENTRIES // max(fib.dim, 1))
    # rows after each row within its set, and in its point's incidence list
    # (the rows of every set holding the point, sets ascending)
    in_set = starts[1:][owner] - np.arange(len(where)) - 1
    by_point = np.lexsort((owner, where))
    rank = np.empty_like(by_point)
    rank[by_point] = np.arange(len(where))
    holders = np.unique(where, return_counts=True)[1]
    at_point = (np.repeat(np.cumsum(holders), holders) - np.arange(len(where)) - 1)[rank]

    def named(rows) -> tuple:  # the points of member rows, as a report prints them
        return tuple(map(space.points().__getitem__, where[rows].tolist()))

    def set_at(row) -> tuple:  # the points of the set holding member row ``row``
        return named(slice(*starts[owner[row] : owner[row] + 2]))

    sandwich_witnesses = []
    sandwich_pairs = 0
    for first, stop in _segments(in_set, budget):
        # member rows (u, v) of every pair of points inside one set
        source, step = _fan_out(in_set[first:stop])
        u = source + first
        v = u + step
        t = dist[where[u], where[v]]
        lo, hi = bounds(t)
        nrm = lp_norm(moved[u] - moved[v], fib.p, axis=1)
        bad = ~((lo - tolerance <= nrm) & (nrm <= hi + tolerance))  # NaN fails closed
        sandwich_pairs += len(t)
        sandwich_witnesses += [
            (set_at(m), *named([m, n]), d, norm, low, high)
            for m, n, d, norm, low, high in zip(*(c[bad].tolist() for c in (u, v, t, nrm, lo, hi)))
        ]

    overlap_pairs = vacuous = 0
    for a, b in _shared_points(starts, owner, at_point, by_point, rank):
        size = np.unique(owner[a] * len(starts) + owner[b], return_counts=True)[1]
        overlap_pairs += int((size > 1).sum())
        vacuous += int((size == 1).sum())
    overlap_witnesses = []
    if overlap_pairs:
        inverse = stack.inverse()
        # the certificate is exact, so it stands for the sweep only where the
        # sweep's comparisons are exact too
        exact = _exact(stack.translation)
        if not (exact and _certified(stack, inverse, where, by_point, in_set, budget)):
            shared = _shared_points(starts, owner, at_point, by_point, rank)
            overlap_witnesses = [
                (set_at(a), set_at(b), *named([a, x]))
                for a, b, x in _overlap_sweep(stack, inverse, shared, owner, where, tolerance, budget)
            ]

    notes = []
    if len(starts) == 1:
        notes.append("no witness sets at this scale; both conditions hold vacuously")
    return FceReport(
        passed=not sandwich_witnesses and not overlap_witnesses,
        r=r,
        mode=mode,
        tolerance=tolerance,
        set_count=len(starts) - 1,
        excluded_count=int(excluded.sum()),
        sandwich_pairs=sandwich_pairs,
        overlap_pairs=overlap_pairs,
        vacuous_overlaps=vacuous,
        sandwich_witnesses=sandwich_witnesses,
        overlap_witnesses=overlap_witnesses,
        notes=notes,
    )
