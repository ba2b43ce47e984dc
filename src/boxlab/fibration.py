"""Fibred coarse embeddings of box spaces and their verification.

The model keeps the data of the definition explicit: a section assigning a
vector to every point, an exclusion set per scale r, and a trivialization
oracle that serves local isometric identifications.  Verification enumerates
witness sets at a given scale and checks the two conditions: the sandwich on
trivialized section differences, and constancy of transition isometries on
overlaps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .boxspace import BoxPoint, BoxSpace, format_point
from .embedding import CoarseEmbeddingMap
from .errors import ActionCheckError, ControlSampleError, MissingTrivializationError
from .groups import (
    FREE_ABELIAN,
    ambient_from_letters,
    ambient_identity,
    ambient_mult,
    ambient_sphere,
)
from .lpspace import AffineIsometry, SignedPermutation, identity_isometry, lp_norm

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
Trivialization = dict[BoxPoint, AffineIsometry]


@dataclass
class FibredEmbedding:
    """Section + exclusion + trivialization oracle over a box space.

    ``trivialization(C, r)`` returns one isometry per point of ``C`` or
    raises MissingTrivializationError when the contract cannot serve the
    request.  Verifiers only ever request sets of diameter below ``r``, but
    the oracle may serve more (the proper-action construction serves any
    single-level set whose covering radius is below ``r``).
    """

    space: BoxSpace
    p: float
    dim: int
    section: dict[BoxPoint, np.ndarray]
    exclusion: Callable[[int], frozenset[BoxPoint]]
    trivialization: Callable[[SetOfPoints, int], Trivialization]
    note: str = ""

    def __post_init__(self):
        self.p = float(self.p)
        self.section = {
            pt: np.asarray(v, dtype=np.float64) for pt, v in self.section.items()
        }
        for pt in self.space.points():
            v = self.section.get(pt)
            if v is None:
                raise ValueError(f"section missing point {format_point(pt)}")
            if v.shape != (self.dim,):
                raise ValueError(f"section at {format_point(pt)} has shape {v.shape}")

    def section_vector(self, point: BoxPoint) -> np.ndarray:
        return self.section[point]

    def excluded(self, r: int) -> frozenset[BoxPoint]:
        if r < 1:
            raise ValueError(f"scale must be >= 1, got {r}")
        return self.exclusion(r)

    def trivialize(self, points, r: int) -> Trivialization:
        C = tuple(sorted(set(points)))
        if not C:
            raise ValueError("cannot trivialize an empty set")
        for pt in C:
            if not self.space.contains(pt):
                raise ValueError(f"{format_point(pt)} is not a point of the space")
        triv = self.trivialization(C, int(r))
        missing = [pt for pt in C if pt not in triv]
        if missing:
            raise MissingTrivializationError(
                f"oracle returned no isometry for {format_point(missing[0])}"
            )
        return triv


def trivial_fibration(f: CoarseEmbeddingMap) -> FibredEmbedding:
    """Fibration with section f and identity trivializations everywhere.

    Satisfies the overlap condition by construction; the sandwich condition
    reduces to the coarse controls of ``f`` itself.
    """
    ident = identity_isometry(f.p, f.dim)

    def serve(C: SetOfPoints, r: int) -> Trivialization:
        return {pt: ident for pt in C}

    return FibredEmbedding(
        space=f.domain,
        p=f.p,
        dim=f.dim,
        section={pt: f(pt) for pt in f.domain.points()},
        exclusion=lambda r: frozenset(),
        trivialization=serve,
        note="trivial fibration over a global map",
    )


@dataclass
class ProperAction:
    """Affine isometric action of the ambient group on l^p, given by a rule.

    ``rule`` receives an ambient element and returns the corresponding
    isometry; results are cached.  Properness is a statement about all of the
    group and is not certified here, only spot-checked downstream.
    """

    p: float
    dim: int
    rule: Callable[[tuple], AffineIsometry]
    label: str = ""
    _cache: dict = field(default_factory=dict, repr=False)

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

    def displacement(self, g) -> float:
        """Norm of the origin's motion under g."""
        return float(lp_norm(self.isometry(g).apply(np.zeros(self.dim)), self.p))


def translation_action(rank: int, p: float) -> ProperAction:
    """Free abelian group acting on R^rank by coordinate translations."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")

    def rule(g: tuple) -> AffineIsometry:
        if len(g) != rank:
            raise ActionCheckError(f"expected {rank} coordinates, got {len(g)}")
        return AffineIsometry(p, SignedPermutation.identity(rank), np.asarray(g, float))

    return ProperAction(p=float(p), dim=rank, rule=rule, label=f"translation rank {rank}")


def _check_action(
    chain, action: ProperAction, r_max: int, tol: float = 1e-9, max_pairs: int = 20000
) -> None:
    e = ambient_identity(chain)
    if not action.isometry(e).close_to(identity_isometry(action.p, action.dim), tol):
        raise ActionCheckError("identity element does not act as the identity")
    ball = [g for n in range(r_max + 1) for g in ambient_sphere(chain, n)]
    pairs = list(itertools.product(ball, repeat=2))
    if len(pairs) > max_pairs:
        rng = np.random.default_rng(0)
        idx = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[i] for i in idx]
    for a, b in pairs:
        combined = action.isometry(a).compose(action.isometry(b))
        if not combined.close_to(action.isometry(ambient_mult(chain, a, b)), tol):
            raise ActionCheckError(f"action is not multiplicative at {a}, {b}")


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

    ``r_max`` bounds the depth of the multiplicativity precheck on the action
    (all products of elements of length up to r_max, sampled past 20000
    pairs); serving itself is uniform in the scale.
    """
    if r_max < 1:
        raise ValueError(f"precheck depth must be >= 1, got {r_max}")
    chain = space.chain
    if chain.ambient.family != FREE_ABELIAN:
        raise ValueError(
            "proper-action fibrations need a free abelian ambient group;"
            f" got family {chain.ambient.family!r}"
        )
    _check_action(chain, action, r_max)

    zero = np.zeros(action.dim)
    section = {pt: zero.copy() for pt in space.points()}

    def exclusion(r: int) -> frozenset[BoxPoint]:
        out = []
        for i, q in enumerate(chain.levels):
            if chain.radius(i) < 2 * r:
                out.extend(BoxPoint(i, x) for x in range(q.order))
        return frozenset(out)

    def serve(C: SetOfPoints, r: int) -> Trivialization:
        levels = {pt.level for pt in C}
        if len(levels) != 1:
            raise MissingTrivializationError(
                f"set spans levels {sorted(levels)}; only single-level sets are served"
            )
        i = levels.pop()
        radius = chain.radius(i)
        if radius < 2 * r:
            raise MissingTrivializationError(
                f"level {i} is excluded at scale {r}: isometry radius {radius} < {2 * r}"
            )
        q = chain.levels[i]
        elems = [pt.element for pt in C]
        cover = q.cayley_matrix(ys=elems).max(axis=1)
        best_z = int(cover.argmin())  # the first minimum: ties go to the smallest element
        if cover[best_z] >= r:
            raise MissingTrivializationError(
                f"covering radius {cover[best_z]} of the set is not below scale {r}"
            )
        out = {}
        for pt, x in zip(C, q.mult_many(q.inv(best_z), elems).tolist()):
            word = q.canonical_word(x)
            out[pt] = action.isometry(ambient_from_letters(chain, word)).inverse()
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


@dataclass
class FceReport:
    """Outcome of a fibred-embedding check at one scale."""

    passed: bool
    r: int
    mode: str
    tolerance: float
    set_count: int
    excluded_count: int
    sandwich_pairs: int
    overlap_pairs: int
    vacuous_overlaps: int
    sandwich_witnesses: list = field(default_factory=list)
    overlap_witnesses: list = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

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


def _candidate_sets(space, allowed, dist, r: int, mode: str, max_all_points: int):
    index = {pt: space.point_index(pt) for pt in allowed}
    sets: list[SetOfPoints] = []
    seen: set[SetOfPoints] = set()

    def push(C: SetOfPoints):
        if len(C) >= 2 and C not in seen:
            seen.add(C)
            sets.append(C)

    if mode in ("balls", "balls+pairs"):
        rad = (r - 1) // 2
        for x in allowed:
            row = dist[index[x]]
            push(tuple(sorted(y for y in allowed if row[index[y]] <= rad)))
    if mode in ("pairs", "balls+pairs"):
        for x, y in itertools.combinations(allowed, 2):
            if 0 < dist[index[x], index[y]] < r:
                push((x, y) if x < y else (y, x))
    if mode == "all":
        if len(allowed) > max_all_points:
            raise ValueError(
                f"mode 'all' over {len(allowed)} points exceeds the cap of"
                f" {max_all_points}; use balls+pairs or raise max_all_points"
            )
        for size in range(2, len(allowed) + 1):
            for combo in itertools.combinations(allowed, size):
                ix = [index[pt] for pt in combo]
                if max(dist[np.ix_(ix, ix)].max(), 0) < r:
                    push(tuple(combo))
    if mode not in ("balls", "pairs", "balls+pairs", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    return sets


def verify_fce(
    fib: FibredEmbedding,
    r: int,
    rho_minus,
    rho_plus,
    mode: str = "balls+pairs",
    tolerance: float = 1e-9,
    max_all_points: int = 16,
) -> FceReport:
    """Check both fibred-embedding conditions at scale ``r``.

    Witness sets are drawn from the non-excluded part of the space: balls of
    radius (r-1)//2, pairs closer than r, their union, or every subset of
    diameter below r (mode 'all', capped).  Controls are mappings from
    realized distances; a missing sample raises ControlSampleError.
    """
    if r < 1:
        raise ValueError(f"scale must be >= 1, got {r}")
    K = fib.excluded(r)
    allowed = [pt for pt in fib.space.points() if pt not in K]
    dist = fib.space.distance_matrix()
    sets = _candidate_sets(fib.space, allowed, dist, r, mode, max_all_points)
    trivs = [fib.trivialize(C, r) for C in sets]

    sandwich_witnesses = []
    sandwich_pairs = 0
    for C, triv in zip(sets, trivs):
        moved = {pt: triv[pt].apply(fib.section_vector(pt)) for pt in C}
        for x, y in itertools.combinations(C, 2):
            t = int(dist[fib.space.point_index(x), fib.space.point_index(y)])
            nrm = float(lp_norm(moved[x] - moved[y], fib.p))
            try:
                lo = float(rho_minus[t])
                hi = float(rho_plus[t])
            except KeyError:
                raise ControlSampleError(
                    f"control sample missing realized distance {t}"
                ) from None
            sandwich_pairs += 1
            if nrm < lo - tolerance or nrm > hi + tolerance:
                sandwich_witnesses.append((C, x, y, t, nrm, lo, hi))

    incidence: dict[BoxPoint, list[int]] = {}
    for s, C in enumerate(sets):
        for pt in C:
            incidence.setdefault(pt, []).append(s)
    set_pairs = sorted(
        {(a, b) for members in incidence.values() for a, b in itertools.combinations(members, 2)}
    )
    overlap_witnesses = []
    overlap_pairs = 0
    vacuous = 0
    for a, b in set_pairs:
        overlap = sorted(set(sets[a]) & set(sets[b]))
        if len(overlap) < 2:
            vacuous += 1
            continue
        overlap_pairs += 1
        x0 = overlap[0]
        base = trivs[a][x0].compose(trivs[b][x0].inverse())
        for x in overlap[1:]:
            if not trivs[a][x].compose(trivs[b][x].inverse()).close_to(base, tolerance):
                overlap_witnesses.append((sets[a], sets[b], x0, x))
                break

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
