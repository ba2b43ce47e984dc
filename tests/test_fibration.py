"""Fibred embeddings: construction, verification, failure modes."""

import functools
import itertools
import math
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxlab as bl
from boxlab.boxspace import BoxPoint, format_point
from boxlab.errors import ActionCheckError, InvalidArgumentError, MissingTrivializationError
from boxlab import fibration
from boxlab.fibration import _candidate_sets, _check_action
from boxlab.groups import ambient_from_letters, ambient_identity, ambient_mult, ambient_sphere
from boxlab.lpspace import IsometryStack
from conftest import (
    canonical_word,
    cyclic_chain,
    non_finite_controls,
    non_finite_translations,
    pack,
    served_dict,
    sl2_chain_spec,
    stacked,
    twisted_action,
    twisted_rule,
    unchecked_map,
    unpack,
)
from scalar_isometry import (
    AffineIsometry,
    SignedPermutation,
    action_isometry,
    identity_isometry,
    row_isometry,
    rows_rule,
    stack_of,
)


def identity_pair(top):
    ctrl = bl.identity_controls(range(top + 1))
    return ctrl.rho_minus, ctrl.rho_plus


class TestTrivialFibration:
    def test_linf_passes_everywhere(self, dyadic_space):
        fib = bl.trivial_fibration(bl.linf_embedding(dyadic_space))
        lo, hi = identity_pair(dyadic_space.diameter())
        for r in (2, 4, 7):
            report = bl.verify_fce(fib, r, lo, hi)
            assert report.passed, report.to_text()
            assert report.excluded_count == 0

    def test_constant_section_fails_sandwich(self, make_chain):
        space = bl.assemble_box_space(make_chain(8))
        table = {pt: np.zeros(3) for pt in space.points()}
        f = bl.CoarseEmbeddingMap(space, 2.0, 3, table)
        fib = bl.trivial_fibration(f)
        lo, hi = identity_pair(space.diameter())
        report = bl.verify_fce(fib, 3, lo, hi)
        assert not report.passed
        assert report.sandwich_witnesses
        assert "sandwich violated" in report.to_text()

    def test_transitions_are_identity(self, make_chain):
        space = bl.assemble_box_space(make_chain(4))
        fib = bl.trivial_fibration(bl.linf_embedding(space))
        triv = served_dict(fib, space.points(), 9)
        ident = identity_isometry(fib.p, fib.dim)
        for iso in triv.values():
            assert iso.close_to(ident, 0.0)


    def test_section_is_one_read_only_matrix(self, dyadic_space):
        f = bl.linf_embedding(dyadic_space)
        fib = bl.trivial_fibration(f)
        rows = fib.section
        # the embedding's own matrix, not a copy, held read-only
        assert np.shares_memory(rows, f.matrix()) and not rows.flags.writeable
        with pytest.raises(ValueError, match=r"^matrix has shape \(28, 27\), expected \(28, 28\)$"):
            bl.FibredEmbedding(
                dyadic_space, f.p, f.dim, f.matrix()[:, 1:], fib.exclusion, fib.trivialization
            )

    def test_non_finite_section_matrix_refused(self, dyadic_space):
        mat = bl.linf_embedding(dyadic_space).matrix().astype(np.float64)
        mat[7, 3] = np.inf
        first = format_point(dyadic_space.points()[7])
        with pytest.raises(ValueError, match=rf"^vector at {first} has a non-finite entry$"):
            bl.trivial_fibration(unchecked_map(dyadic_space, math.inf, mat))

    def test_trivial_fibration_adds_no_matrix(self):
        """On the 1984-point line, dim 1984, the fibration holds the embedding's
        7.9 MB int16 matrix; it used to copy it into a second one."""
        space = bl.assemble_box_space(cyclic_chain(*(2**k for k in range(6, 11))))
        f = bl.linf_embedding(space)
        lo, hi = identity_pair(space.diameter())
        tracemalloc.start()
        try:
            fib = bl.trivial_fibration(f)
            report = bl.verify_fce(fib, 2, lo, hi, mode="balls")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.matrix().nbytes == 2 * 1984**2
        assert report.passed and report.set_count == 0
        # an integer section is finite by its dtype: no temporary of its size is made
        assert peak < f.matrix().nbytes // 4


class TestProperActionFibration:
    def test_translation_line_all_scales(self, deep_space):
        for p in (1.0, 2.0):
            fib = bl.from_proper_action(deep_space, bl.translation_action(1, p), r_max=5)
            lo, hi = identity_pair(12)
            for r in range(1, 6):
                report = bl.verify_fce(fib, r, lo, hi)
                assert report.passed, f"p={p} r={r}\n" + report.to_text()

    def test_translation_torus(self, torus_chain):
        space = bl.assemble_box_space(torus_chain)
        fib = bl.from_proper_action(space, bl.translation_action(2, 1.0), r_max=4)
        lo, hi = identity_pair(10)
        for r in (2, 3, 4):
            report = bl.verify_fce(fib, r, lo, hi, mode="balls")
            assert report.passed, f"r={r}\n" + report.to_text()

    def test_exclusion_tracks_radius(self, deep_chain, deep_space):
        fib = bl.from_proper_action(deep_space, bl.translation_action(1, 2.0))
        levels = np.array([pt.level for pt in deep_space.points()])
        for r in (1, 2, 3, 5):
            K = fib.excluded(r)
            shallow = {
                i for i in range(deep_chain.level_count()) if deep_chain.radius(i) < 2 * r
            }
            assert K.dtype == bool and set(levels[K].tolist()) == shallow
        with pytest.raises(InvalidArgumentError, match="^scale must be >= 1, got 0$"):
            fib.excluded(0)

    def test_serving_contract(self, deep_space):
        fib = bl.from_proper_action(deep_space, bl.translation_action(1, 2.0))
        # a set reaching beyond the scale from its first point is refused
        far = (BoxPoint(5, 0), BoxPoint(5, 20))
        with pytest.raises(MissingTrivializationError, match="^set reaches 20 from its first point"):
            fib.trivialize(*pack(deep_space, [far]), 3)
        # cross-level sets are refused
        with pytest.raises(MissingTrivializationError, match=r"spans levels \[4, 5\]"):
            fib.trivialize(*pack(deep_space, [(BoxPoint(4, 0), BoxPoint(5, 0))]), 3)
        # shallow levels are refused at large scales
        with pytest.raises(MissingTrivializationError, match="level 0 is excluded at scale 3"):
            fib.trivialize(*pack(deep_space, [(BoxPoint(0, 0), BoxPoint(0, 1))]), 3)
        # points outside the space are refused as they are packed, and empty
        # sets never reach the oracle
        with pytest.raises(ValueError, match="L6:0 is not a point of the space"):
            fib.trivialize(*pack(deep_space, [(BoxPoint(6, 0),)]), 3)
        with pytest.raises(ValueError, match="empty set"):
            fib.trivialize(*pack(deep_space, [()]), 3)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            # rows of dimension 2 in a fibration of dimension 1
            (lambda s: IsometryStack(*(np.hstack([a, a]) for a in s)), r"shape \(3, 2\) for 3"),
            # a row missing
            (lambda s: s.take(slice(0, -1)), r"shape \(2, 1\) for 3 points"),
            # a sign 0 or a coordinate 1 in the last row
            (lambda s: s._replace(signs=np.vstack([s.signs[:-1], 0])), r"permutation at L4:8$"),
            (lambda s: s._replace(perm=np.vstack([s.perm[:-1], 1])), r"permutation at L4:8$"),
        ],
        ids=["dimension", "missing-row", "sign", "permutation"],
    )
    def test_malformed_rows_rejected(self, deep_space, corrupt, message):
        # the line fibration lives in l^2 of dimension 1
        base = bl.from_proper_action(deep_space, bl.translation_action(1, 2.0))
        fib = bl.FibredEmbedding(
            space=deep_space,
            p=2.0,
            dim=1,
            section=base.section,
            exclusion=base.exclusion,
            trivialization=lambda starts, members, r: corrupt(base.trivialization(starts, members, r)),
        )
        ball = (BoxPoint(4, 6), BoxPoint(4, 7), BoxPoint(4, 8))
        with pytest.raises(ValueError, match=message):
            fib.trivialize(*pack(deep_space, [ball]), 3)
        lo, hi = identity_pair(12)
        with pytest.raises(ValueError, match="oracle returned"):
            bl.verify_fce(fib, 3, lo, hi)
        with pytest.raises(ValueError, match="oracle returned"):
            bl.local_cocycle_from_fce(fib, 3)

    def test_lift_distances_preserved(self, deep_space):
        # trivialized differences realize the quotient metric on served balls
        fib = bl.from_proper_action(deep_space, bl.translation_action(1, 1.0))
        q = deep_space.chain.levels[4]
        # the centre first, as localization lists a ball
        near = [x for x in q.elements() if x != 7 and q.cayley_distance(7, x) <= 3]
        ball = tuple(BoxPoint(4, x) for x in [7, *near])
        triv = served_dict(fib, ball, 4)
        for x in ball:
            for y in ball:
                moved = triv[x].apply(np.zeros(1)) - triv[y].apply(np.zeros(1))
                assert abs(moved[0]) == q.cayley_distance(x.element, y.element)

    def test_identity_action_fails_sandwich(self, deep_space):
        ident_rule = lambda g: identity_isometry(2.0, 1)
        action = bl.ProperAction(p=2.0, dim=1, rule=rows_rule(ident_rule, 1))
        fib = bl.from_proper_action(deep_space, action, r_max=3)
        lo, hi = identity_pair(12)
        report = bl.verify_fce(fib, 3, lo, hi)
        assert not report.passed
        assert report.sandwich_witnesses

    def test_non_multiplicative_action_rejected(self, deep_space):
        def broken(g):
            shift = float(g[0]) if g[0] != 2 else 5.0
            return AffineIsometry(1.0, SignedPermutation.identity(1), np.array([shift]))

        with pytest.raises(ActionCheckError):
            bl.from_proper_action(deep_space, bl.ProperAction(1.0, 1, rows_rule(broken, 1)), r_max=3)

    def test_needs_abelian_ambient(self):
        chain = bl.build_chain(bl.AmbientGroup("free", 1), [bl.CyclicQuotient([8])])
        space = bl.assemble_box_space(chain)
        with pytest.raises(ValueError):
            bl.from_proper_action(space, bl.translation_action(1, 2.0))


class TestVerifierMechanics:
    def test_candidate_balls_and_pairs(self, make_chain):
        space = bl.assemble_box_space(make_chain(8))
        ix = np.arange(space.point_count())
        dist = space.distance_matrix()
        balls = unpack(space, *_candidate_sets(ix, dist, 5, "balls"))
        assert all(len(C) == 5 for C in balls)  # radius-2 balls in Z/8
        pairs = unpack(space, *_candidate_sets(ix, dist, 3, "pairs"))
        assert all(len(C) == 2 for C in pairs)
        assert {tuple(sorted((x.element, y.element))) for x, y in pairs} == {
            (a, b) for a in range(8) for b in range(8) if a < b
            and min(b - a, 8 - (b - a)) in (1, 2)
        }

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, dyadic_space, tolerance):
        fib = bl.trivial_fibration(bl.linf_embedding(dyadic_space))
        lo, hi = identity_pair(dyadic_space.diameter())
        with pytest.raises(InvalidArgumentError, match=f"^tolerance must be finite, got {tolerance}$"):
            bl.verify_fce(fib, 3, lo, hi, tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [-1e-9, -1.0])
    def test_negative_tolerance_rejected(self, dyadic_space, tolerance):
        fib = bl.trivial_fibration(bl.linf_embedding(dyadic_space))
        lo, hi = identity_pair(dyadic_space.diameter())
        with pytest.raises(InvalidArgumentError, match=f"^tolerance must not be negative, got {tolerance}$"):
            bl.verify_fce(fib, 3, lo, hi, tolerance=tolerance)

    @pytest.mark.parametrize("bad", [{1: 5.0}, {3: math.nan}])
    def test_non_monotone_controls_rejected(self, make_chain, bad):
        """On Z/4, Z/8 the trivial linf fibration used to pass at r=3 with rho_plus 0, 5, 2, 3, ...
        and with a NaN sample, which ``verify_coarse`` refuses."""
        space = bl.assemble_box_space(make_chain(4, 8))
        fib = bl.trivial_fibration(bl.linf_embedding(space))
        lo, hi = identity_pair(space.diameter())
        assert bl.verify_fce(fib, 3, lo, hi).passed
        with pytest.raises(InvalidArgumentError, match="^rho_plus samples are not nondecreasing$"):
            bl.verify_fce(fib, 3, lo, {**hi, **bad})
        with pytest.raises(InvalidArgumentError, match="^rho_minus samples are not nondecreasing$"):
            bl.verify_fce(fib, 3, {**lo, **bad}, hi)
        with pytest.raises(InvalidArgumentError, match="^rho_plus samples are not nondecreasing$"):
            bl.verify_coarse(bl.linf_embedding(space), lo, {**hi, **bad})

    def test_all_mode_cap(self, dyadic_space):
        fib = bl.trivial_fibration(bl.linf_embedding(dyadic_space))
        lo, hi = identity_pair(dyadic_space.diameter())
        with pytest.raises(ValueError):
            bl.verify_fce(fib, 3, lo, hi, mode="all")  # 28 points > 16

    def test_all_mode_small_space(self, make_chain):
        space = bl.assemble_box_space(make_chain(2, 4))
        fib = bl.trivial_fibration(bl.linf_embedding(space))
        lo, hi = identity_pair(space.diameter())
        report = bl.verify_fce(fib, 4, lo, hi, mode="all")
        assert report.passed
        assert report.set_count > 0

    def test_all_mode_whole_cycle(self, make_chain):
        # Z/16 at r=6 puts a pair-free batch at the end of the sandwich check
        space = bl.assemble_box_space(make_chain(16))
        fib = bl.trivial_fibration(bl.linf_embedding(space))
        lo, hi = identity_pair(space.diameter())
        report = bl.verify_fce(fib, 6, lo, hi, mode="all")
        assert report.passed and report.set_count == 16 * (2**5 - 1)

    def test_corrupted_trivialization_caught(self, deep_space):
        base = bl.from_proper_action(deep_space, bl.translation_action(1, 2.0))
        q = deep_space.chain.levels[4]
        target_ball = tuple(
            sorted(BoxPoint(4, x) for x in q.elements() if q.cayley_distance(9, x) <= 2)
        )
        flip = AffineIsometry(
            2.0, SignedPermutation(np.array([0]), np.array([-1])), np.zeros(1)
        )

        def corrupted(C, r):
            out = served_dict(base, C, r)
            if tuple(C) == target_ball:
                victim = C[0]
                out[victim] = flip.compose(out[victim])
            return out

        fib = bl.FibredEmbedding(
            space=deep_space,
            p=2.0,
            dim=1,
            section=base.section,
            exclusion=base.exclusion,
            trivialization=stacked(deep_space, corrupted, 1),
        )
        lo, hi = identity_pair(12)
        report = bl.verify_fce(fib, 5, lo, hi, mode="balls")
        assert not report.passed
        assert report.overlap_witnesses

    def test_transition_coherence_on_triples(self, deep_space):
        # transitions between three pairwise overlapping balls compose coherently
        fib = bl.from_proper_action(deep_space, bl.translation_action(1, 1.0))
        q = deep_space.chain.levels[4]
        r = 4
        balls = []
        for z in (5, 6, 7):
            # the centre first, as localization lists a ball
            near = [x for x in q.elements() if x != z and q.cayley_distance(z, x) <= 2]
            balls.append(tuple(BoxPoint(4, x) for x in [z, *near]))
        trivs = [served_dict(fib, C, r) for C in balls]
        common = set(balls[0]) & set(balls[1]) & set(balls[2])
        assert common
        pt = sorted(common)[0]
        t01 = trivs[0][pt].compose(trivs[1][pt].inverse())
        t12 = trivs[1][pt].compose(trivs[2][pt].inverse())
        t02 = trivs[0][pt].compose(trivs[2][pt].inverse())
        assert t01.compose(t12).close_to(t02, 1e-9)

    def test_unknown_mode_rejected(self, make_chain):
        space = bl.assemble_box_space(make_chain(4))
        fib = bl.trivial_fibration(bl.linf_embedding(space))
        lo, hi = identity_pair(space.diameter())
        with pytest.raises(ValueError):
            bl.verify_fce(fib, 2, lo, hi, mode="everything")


def _keyed_rng(*key):
    return np.random.default_rng(zlib.crc32(repr(key).encode()))


def _gauged(base, rate, tol=1e-9):
    """``base`` behind a random isometry per served set, with sparse corruptions.

    A gauge g_C applied to every isometry of a set keeps transitions constant
    and sandwich norms unchanged, so only the corruptions can fail: a flipped
    coordinate sign, or a translation offset just inside or just outside ``tol``.
    """
    p, dim = base.p, base.dim

    def serve(C, r):
        out = served_dict(base, C, r)
        rng = _keyed_rng("set", C)
        lin = SignedPermutation(rng.permutation(dim), rng.choice([-1, 1], size=dim))
        gauge = AffineIsometry(p, lin, rng.normal(size=dim))
        for pt in C:
            iso = gauge.compose(out[pt])
            prng = _keyed_rng("point", C, pt)
            u, c = prng.random(), int(prng.integers(dim))
            if u < rate:
                signs = np.ones(dim, dtype=np.int64)
                signs[c] = -1
                flip = AffineIsometry(p, SignedPermutation(np.arange(dim), signs), np.zeros(dim))
                iso = flip.compose(iso)
            elif u < 3 * rate:
                shift = iso.translation.copy()
                shift[c] += (0.9 if u < 2 * rate else 1.1) * tol
                iso = AffineIsometry(p, iso.linear, shift)
            out[pt] = iso
        return out

    return bl.FibredEmbedding(
        space=base.space,
        p=p,
        dim=dim,
        section=base.section,
        exclusion=base.exclusion,
        trivialization=stacked(base.space, serve, dim),
    )


def _brute_force_report(fib, r, rho_minus, rho_plus, mode, tol=1e-9):
    """Both conditions by definition: scalar distances and per-point isometry algebra."""
    space = fib.space
    allowed = [pt for pt, out in zip(space.points(), fib.excluded(r)) if not out]
    d = space.distance
    sets, seen = [], set()

    def push(C):
        if len(C) >= 2 and C not in seen:
            seen.add(C)
            sets.append(C)

    if mode in ("balls", "balls+pairs"):
        for x in allowed:
            push(tuple(y for y in allowed if d(x, y) <= (r - 1) // 2))
    if mode in ("pairs", "balls+pairs"):
        for x, y in itertools.combinations(allowed, 2):
            if d(x, y) < r:
                push((x, y))
    if mode == "all":
        for size in range(2, len(allowed) + 1):
            for C in itertools.combinations(allowed, size):
                if all(d(x, y) < r for x, y in itertools.combinations(C, 2)):
                    push(C)
    trivs = [served_dict(fib, C, r) for C in sets]

    sandwich, sandwich_pairs = [], 0
    for C, triv in zip(sets, trivs):
        moved = {pt: triv[pt].apply(fib.section[space.point_index(pt)]) for pt in C}
        for x, y in itertools.combinations(C, 2):
            t = d(x, y)
            nrm = float(bl.lp_norm(moved[x] - moved[y], fib.p))
            lo, hi = float(rho_minus[t]), float(rho_plus[t])
            sandwich_pairs += 1
            if not lo - tol <= nrm <= hi + tol:
                sandwich.append((C, x, y, t, nrm, lo, hi))

    overlap, overlap_pairs, vacuous = [], 0, 0
    for a, b in itertools.combinations(range(len(sets)), 2):
        common = sorted(set(sets[a]) & set(sets[b]))
        if len(common) == 1:
            vacuous += 1
        if len(common) < 2:
            continue
        overlap_pairs += 1
        x0 = common[0]
        base = trivs[a][x0].compose(trivs[b][x0].inverse())
        for x in common[1:]:
            if not trivs[a][x].compose(trivs[b][x].inverse()).close_to(base, tol):
                overlap.append((sets[a], sets[b], x0, x))
                break
    return len(sets), sandwich_pairs, overlap_pairs, vacuous, sandwich, overlap


def _line_translation(space, p):
    return bl.from_proper_action(space, bl.translation_action(1, p), r_max=3)


def _torus_translation(space, p):
    return bl.from_proper_action(space, bl.translation_action(2, p), r_max=3)


def _trivial_linf(space, p):
    return bl.trivial_fibration(bl.linf_embedding(space))


def _trivial_plane(space, p):
    return bl.trivial_fibration(bl.cycle_plane_embedding(space, p))


def _trivial_torus(space, p):
    return bl.trivial_fibration(bl.torus_coordinate_embedding(space, p))


def _assert_report_matches_brute_force(fib, space, r, mode):
    """The whole report of ``fib`` at tight controls equals the brute force's;
    returns the brute force's count of compared set pairs and its overlap witnesses."""
    top = space.diameter() + 1
    # tight controls around t make the sandwich bite at some distances
    lo = {t: 0.5 * t for t in range(top)}
    hi = {t: 1.0 * t for t in range(top)}
    report = bl.verify_fce(fib, r, lo, hi, mode=mode)
    sets, pairs, compared, vacuous, sandwich, overlap = _brute_force_report(fib, r, lo, hi, mode)
    assert (report.set_count, report.sandwich_pairs) == (sets, pairs)
    assert (report.overlap_pairs, report.vacuous_overlaps) == (compared, vacuous)
    assert report.overlap_witnesses == overlap
    if fib.p in (1.0, 2.0, math.inf):
        assert report.sandwich_witnesses == sandwich
    else:
        # other exponents take the root in numpy's array power, which may
        # differ from the scalar power in the last bit
        assert [w[:4] + w[5:] for w in report.sandwich_witnesses] == [
            w[:4] + w[5:] for w in sandwich
        ]
        for got, want in zip(report.sandwich_witnesses, sandwich):
            assert got[4] == pytest.approx(want[4], rel=1e-15, abs=0.0)
    assert report.passed == (not sandwich and not overlap)
    return compared, overlap


_ORACLE_CASES = pytest.mark.parametrize(
    "moduli, rank, build, p, r, mode",
    [
        ((2, 4), 1, _trivial_linf, None, 4, "all"),
        ((12,), 1, _trivial_linf, None, 4, "all"),
        ((2, 4, 12), 1, _line_translation, 1.0, 3, "all"),
        ((4, 8, 16), 1, _line_translation, 2.0, 3, "balls+pairs"),
        ((4, 8), 2, _torus_translation, 2.0, 2, "balls+pairs"),
        ((4, 12), 2, _torus_translation, 1.0, 3, "balls"),
        ((4, 8), 1, _trivial_linf, None, 5, "balls+pairs"),
        ((8, 16), 1, _trivial_plane, 3.0, 4, "balls+pairs"),
    ],
)


class TestReportOracle:
    """The whole FceReport against the brute force, on clean and corrupted oracles."""

    @_ORACLE_CASES
    @pytest.mark.parametrize("rate", [0.0, 0.04, 0.15])
    def test_report_matches_brute_force(self, make_chain, moduli, rank, build, p, r, mode, rate):
        """Real gauges, with offsets within and beyond the tolerance, take the sweep."""
        space = bl.assemble_box_space(make_chain(*moduli, rank=rank))
        fib = _gauged(build(space, p), rate)
        compared, overlap = _assert_report_matches_brute_force(fib, space, r, mode)
        if rate > 0:
            assert overlap or not compared

    @_ORACLE_CASES
    @pytest.mark.parametrize("rate", [0.0, 0.04, 0.15])
    def test_integer_gauges_match_brute_force(
        self, make_chain, moduli, rank, build, p, r, mode, rate
    ):
        """Integer gauges take the certificate, and integer shifts fail it."""
        space = bl.assemble_box_space(make_chain(*moduli, rank=rank))
        fib = _corrupted(build(space, p), "shift", 0, rate)
        _assert_report_matches_brute_force(fib, space, r, mode)

    @pytest.mark.parametrize("entries", [1, 64])
    def test_batch_size_does_not_change_the_report(self, make_chain, monkeypatch, entries):
        space = bl.assemble_box_space(make_chain(4, 12, rank=2))
        fib = _gauged(_torus_translation(space, 1.0), 0.1)
        ctrl = bl.identity_controls(range(space.diameter() + 1))
        args = (fib, 3, ctrl.rho_minus, ctrl.rho_plus, "balls+pairs")
        whole = bl.verify_fce(*args)
        monkeypatch.setattr(fibration, "_BATCH_ENTRIES", entries)
        assert bl.verify_fce(*args) == whole
        assert whole.overlap_witnesses and whole.vacuous_overlaps

    @pytest.mark.parametrize("entries", [1, 64, fibration._BATCH_ENTRIES])
    def test_nan_translation_at_a_first_shared_point(self, make_chain, monkeypatch, entries):
        """A NaN transition at a pair's first shared point differs from itself under
        ``isclose``; the pair is reported at its second shared point, at every batch size."""
        space = bl.assemble_box_space(make_chain(12, rank=1))
        gauged = _gauged(_trivial_linf(space, None), 0.0)
        first = space.points()[0]  # the first shared point of every pair holding it

        def serve(C, r):
            out = served_dict(gauged, C, r)
            if first in out:
                shift = out[first].translation.copy()
                shift[0] = np.nan
                out[first] = AffineIsometry(gauged.p, out[first].linear, shift)
            return out

        fib = bl.FibredEmbedding(
            space=space,
            p=gauged.p,
            dim=gauged.dim,
            section=gauged.section,
            exclusion=gauged.exclusion,
            trivialization=stacked(space, serve, gauged.dim),
        )
        lo, hi = identity_pair(space.diameter())
        whole = bl.verify_fce(fib, 4, lo, hi, mode="all")
        monkeypatch.setattr(fibration, "_BATCH_ENTRIES", entries)
        # the sandwich witnesses hold NaN norms, which equal nothing, not even
        # themselves; the repr shows every field, each float exactly
        assert repr(bl.verify_fce(fib, 4, lo, hi, mode="all")) == repr(whole)
        _, pairs, compared, vacuous, sandwich, overlap = _brute_force_report(fib, 4, lo, hi, "all")
        assert (whole.overlap_pairs, whole.vacuous_overlaps) == (compared, vacuous)
        assert whole.overlap_witnesses == overlap
        assert overlap and {x0 for _, _, x0, _ in overlap} == {first}
        # the sandwich fails closed on the NaN norms, as the definition does
        assert not whole.passed and whole.sandwich_pairs == pairs
        assert sandwich and repr(whole.sandwich_witnesses) == repr(sandwich)
        assert all(first in (x, y) and math.isnan(n) for _, x, y, _, n, _, _ in sandwich)

    @pytest.mark.parametrize("entries", [1, 64, 1024])
    @pytest.mark.parametrize("mode", ["all", "balls+pairs"])
    def test_kernel_gathers_stay_within_a_batch(self, make_chain, monkeypatch, entries, mode):
        """No composition in ``verify_fce`` gathers more than one batch of entries,
        or one row where a row alone is larger, even when one set outweighs a batch."""
        space = bl.assemble_box_space(make_chain(4, 12, rank=1))
        fib = _gauged(_trivial_linf(space, None), 0.04)
        lo, hi = identity_pair(space.diameter())
        whole = bl.verify_fce(fib, 4, lo, hi, mode=mode)
        gathered = []
        after = IsometryStack.after

        def counted(self, other, a, b):
            gathered.append(np.size(a) * self.perm.shape[-1])
            return after(self, other, a, b)

        monkeypatch.setattr(IsometryStack, "after", counted)
        monkeypatch.setattr(fibration, "_BATCH_ENTRIES", entries)
        assert bl.verify_fce(fib, 4, lo, hi, mode=mode) == whole
        assert whole.overlap_pairs and whole.overlap_witnesses
        assert gathered and max(gathered) <= max(entries, fib.dim)


class TestNonFiniteInput:
    """NaN and +-inf in served translations and control samples: ``verify_fce``
    refuses the controls at the boundary or reports what the brute force reports."""

    # inf - inf in a composite translation warns, in the stack and in the oracle
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_report_matches_brute_force(self, data):
        moduli, rank, build, p, r = data.draw(
            st.sampled_from(
                [((4, 8), 1, _line_translation, 2.0, 3), ((4, 8), 2, _torus_translation, 1.0, 2),
                 ((12,), 1, _trivial_linf, None, 4)]
            )
        )
        space = bl.assemble_box_space(cyclic_chain(*moduli, rank=rank))
        fib = non_finite_translations(data, build(space, p), space.points())
        lo, hi, monotone = non_finite_controls(data, space.diameter())
        mode = data.draw(st.sampled_from(["balls+pairs", "pairs"]))
        if not monotone:
            with pytest.raises(InvalidArgumentError, match="samples are not nondecreasing$"):
                bl.verify_fce(fib, r, lo, hi, mode=mode)
            return
        report = bl.verify_fce(fib, r, lo, hi, mode=mode)
        sets, pairs, compared, vacuous, sandwich, overlap = _brute_force_report(fib, r, lo, hi, mode)
        assert (report.set_count, report.sandwich_pairs) == (sets, pairs)
        assert (report.overlap_pairs, report.vacuous_overlaps) == (compared, vacuous)
        assert report.overlap_witnesses == overlap
        # repr shows NaN norms, which equal nothing, and every float exactly
        assert repr(report.sandwich_witnesses) == repr(sandwich)
        assert report.passed == (not sandwich and not overlap)


def _corrupted(base, kind, seed, rate):
    """``base`` behind an integer gauge per served set, with corruptions of one
    kind at random served rows, the same wherever a set is served.

    The gauge keeps transitions constant and every translation an integer, so
    a clean oracle is certified.  The corruptions: an integer translation
    shift, which the certificate refuses; a flipped sign; a transposed pair of
    coordinates; and three that fail the certificate's gate, a translation
    off by 1e-12, a NaN translation and one shifted by 2^52.
    """
    p, dim = base.p, base.dim
    offset = {"shift": 1.0, "tiny": 1e-12, "nan": math.nan, "huge": 2.0**52}

    def serve(C, r):
        out = served_dict(base, C, r)
        rng = _keyed_rng("gauge", seed, C)
        lin = SignedPermutation(rng.permutation(dim), rng.choice([-1, 1], size=dim))
        gauge = AffineIsometry(p, lin, rng.integers(-3, 4, size=dim).astype(float))
        for pt in C:
            iso = gauge.compose(out[pt])
            prng = _keyed_rng("row", seed, C, pt)
            if prng.random() < rate:
                c, d = int(prng.integers(dim)), int(prng.integers(dim))
                perm, signs = iso.linear.perm.copy(), iso.linear.signs.copy()
                shift = iso.translation.copy()
                if kind == "sign":
                    signs[c] = -signs[c]
                elif kind == "transpose":
                    perm[[c, d]] = perm[[d, c]]
                else:
                    shift[c] += offset[kind]
                iso = AffineIsometry(p, SignedPermutation(perm, signs), shift)
            out[pt] = iso
        return out

    return bl.FibredEmbedding(
        space=base.space,
        p=p,
        dim=dim,
        section=base.section,
        exclusion=base.exclusion,
        trivialization=stacked(base.space, serve, dim),
    )


class TestOverlapCertificate:
    """Transitions constant on overlaps, certified exactly per point pair where
    served translations are small integers (a negative tolerance is refused
    before any work); everywhere else, and wherever the certificate finds a mismatch, the sweep
    over every overlapping set pair gives the report."""

    # inf - inf and 2^52-sized translations squared make numpy warn, in the stack and the oracle
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_report_matches_brute_force(self, data):
        moduli, rank, build, p, r, mode = data.draw(
            st.sampled_from(
                [((8,), 1, _trivial_linf, None, 4, "all"),
                 ((4, 8, 16), 1, _line_translation, 1.0, 3, "balls+pairs"),
                 ((6,), 2, _trivial_torus, 2.0, 3, "balls")]
            )
        )
        space = bl.assemble_box_space(cyclic_chain(*moduli, rank=rank))
        kind = data.draw(
            st.sampled_from(["clean", "shift", "sign", "transpose", "tiny", "nan", "huge"])
        )
        rate = 0.0 if kind == "clean" else data.draw(st.sampled_from([0.03, 0.2]))
        fib = _corrupted(build(space, p), kind, data.draw(st.integers(0, 2**16)), rate)
        tol = data.draw(st.sampled_from([0.0, 1e-9, 2.0, -1e-9]))
        top = space.diameter() + 1
        lo = {t: 0.5 * t for t in range(top)}
        hi = {t: 1.0 * t for t in range(top)}
        if tol < 0:
            # equal values would fail the sandwich check and pass the overlap check
            with pytest.raises(InvalidArgumentError, match="^tolerance must not be negative"):
                bl.verify_fce(fib, r, lo, hi, mode=mode, tolerance=tol)
            return
        report = bl.verify_fce(fib, r, lo, hi, mode=mode, tolerance=tol)
        sets, pairs, compared, vacuous, sandwich, overlap = _brute_force_report(
            fib, r, lo, hi, mode, tol
        )
        assert compared
        assert (report.set_count, report.sandwich_pairs) == (sets, pairs)
        assert (report.overlap_pairs, report.vacuous_overlaps) == (compared, vacuous)
        assert report.overlap_witnesses == overlap
        assert repr(report.sandwich_witnesses) == repr(sandwich)
        assert report.passed == (not sandwich and not overlap)

    @pytest.mark.parametrize(
        "moduli, rank, build, p, r, mode",
        [
            ((16,), 1, _trivial_linf, None, 5, "all"),
            ((8, 16, 32), 1, _line_translation, 2.0, 5, "balls+pairs"),
            ((4, 8, 16), 2, _torus_translation, 1.0, 3, "balls+pairs"),
        ],
    )
    @pytest.mark.parametrize("tolerance", [0.0, 1e-9])
    def test_clean_oracles_skip_the_sweep(
        self, make_chain, monkeypatch, moduli, rank, build, p, r, mode, tolerance
    ):
        space = bl.assemble_box_space(make_chain(*moduli, rank=rank))
        fib = build(space, p)
        lo, hi = identity_pair(space.diameter())
        want = bl.verify_fce(fib, r, lo, hi, mode=mode, tolerance=tolerance)

        def sweep(*args):
            raise AssertionError("the overlap sweep ran")

        monkeypatch.setattr(fibration, "_overlap_sweep", sweep)
        report = bl.verify_fce(fib, r, lo, hi, mode=mode, tolerance=tolerance)
        assert report == want and report.passed and report.overlap_pairs

    @pytest.mark.parametrize("kind, tolerance", [("clean", -1e-9), ("shift", 1e-9), ("tiny", 0.0)])
    def test_refusals_take_the_sweep(self, make_chain, monkeypatch, kind, tolerance):
        space = bl.assemble_box_space(make_chain(12))
        fib = _corrupted(_trivial_linf(space, None), kind, 7, 0.0 if kind == "clean" else 0.1)
        lo, hi = identity_pair(space.diameter())
        calls = []
        sweep = fibration._overlap_sweep

        def counted(*args):
            calls.append(1)
            return sweep(*args)

        monkeypatch.setattr(fibration, "_overlap_sweep", counted)
        if tolerance < 0:
            # refused before any work: numpy 1.x's isclose failed equal
            # transitions at a negative tolerance, and numpy 2's passes them
            with pytest.raises(InvalidArgumentError, match="^tolerance must not be negative"):
                bl.verify_fce(fib, 4, lo, hi, mode="all", tolerance=tolerance)
            assert calls == []
            return
        report = bl.verify_fce(fib, 4, lo, hi, mode="all", tolerance=tolerance)
        assert calls == [1]
        overlap = _brute_force_report(fib, 4, lo, hi, "all", tolerance)[5]
        assert report.overlap_witnesses == overlap and overlap

    def test_translations_from_2_52_are_swept(self):
        """Near 2^54 float64 spacing is 4, so the quotients q_C(x, y) round to one
        value while the transitions at x and y differ by 2: an exact certificate
        would pass what the sweep fails, and the gate sends the check to the sweep."""
        space = bl.assemble_box_space(cyclic_chain(3))
        x, y, z = space.points()
        shifts = {  # one 1-dim translation per (set, point); every other pair is consistent
            (x, y): [3.0, 2.0**54 + 4],
            (x, z): [0.0, -1.0],
            (y, z): [2.0**54, 0.0],
            (x, y, z): [1.0, 2.0**54, 0.0],
        }

        def serve(starts, members, r):
            rows = np.array([v for C in unpack(space, starts, members) for v in shifts[C]])[:, None]
            return IsometryStack.identity(len(rows), 1)._replace(translation=rows)

        fib = bl.FibredEmbedding(
            space, 1.0, 1, np.zeros((3, 1)), lambda r: np.zeros(3, dtype=bool), serve
        )
        lo, hi = identity_pair(space.diameter())
        report = bl.verify_fce(fib, 2, lo, hi, mode="all")
        assert (report.overlap_pairs, report.vacuous_overlaps) == (3, 3)
        assert report.overlap_witnesses == [((x, y), (x, y, z), x, y)]
        assert report.overlap_witnesses == _brute_force_report(fib, 2, lo, hi, "all")[5]

    @pytest.mark.parametrize("entries", [1, 64, 1024])
    def test_certificate_gathers_stay_within_a_batch(self, make_chain, monkeypatch, entries):
        space = bl.assemble_box_space(make_chain(4, 12, rank=1))
        fib = _corrupted(_trivial_linf(space, None), "clean", 3, 0.0)
        lo, hi = identity_pair(space.diameter())
        whole = bl.verify_fce(fib, 4, lo, hi, mode="all")
        gathered = []
        after = IsometryStack.after

        def counted(self, other, a, b):
            gathered.append(np.size(a) * self.perm.shape[-1])
            return after(self, other, a, b)

        monkeypatch.setattr(IsometryStack, "after", counted)
        monkeypatch.setattr(fibration, "_BATCH_ENTRIES", entries)
        assert bl.verify_fce(fib, 4, lo, hi, mode="all") == whole
        assert whole.passed and whole.overlap_pairs
        assert gathered and max(gathered) <= max(entries, fib.dim)

    def test_peak_memory_no_higher_than_the_sweep(self, monkeypatch):
        """Balls of radius 2 on the 1344-point torus at r = 6: the certified check
        peaks no higher than the same check through the sweep, the only path
        before the certificate.  Both peak before the overlap pass, so they agree
        to within Python's bookkeeping, well under a kilobyte."""
        space = bl.assemble_box_space(cyclic_chain(8, 16, 32, rank=2))
        fib = _torus_translation(space, 1.0)
        lo, hi = identity_pair(space.diameter())

        def peak_of():
            tracemalloc.start()
            try:
                report = bl.verify_fce(fib, 6, lo, hi, mode="balls")
                return report, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bl.verify_fce(fib, 6, lo, hi, mode="balls")  # first calls allocate once, untraced
        report, peak = peak_of()
        monkeypatch.setattr(fibration, "_certified", lambda *args: False)
        swept, sweep_peak = peak_of()
        assert report == swept and report.passed
        assert (report.sandwich_pairs, report.overlap_pairs, report.vacuous_overlaps) == (
            79872, 18432, 2048
        )
        assert peak <= sweep_peak + 1024


def reference_serve(space, action):
    """The per-set proper-action oracle the stacked one replaced: one dict per set.

    Each point is served the inverse action of its canonical word from the
    set's first point, built point by point.
    """
    chain = space.chain

    def serve(C, r):
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
        reach = max(q.cayley_distance(elems[0], x) for x in elems)
        if reach >= r:
            raise MissingTrivializationError(
                f"set reaches {reach} from its first point, not below scale {r}"
            )
        out = {}
        for pt, x in zip(C, q.mult_many(q.inv(elems[0]), elems).tolist()):
            word = canonical_word(q, x)
            out[pt] = action_isometry(action, ambient_from_letters(chain, word)).inverse()
        return out

    return serve


def _outcome(serve, space, sets, r):
    try:
        return serve(*pack(space, sets), r)
    except MissingTrivializationError as exc:
        return str(exc)


_SPACES: dict = {}


class TestStackedServing:
    """The stacked proper-action oracle against the per-set one it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from([((2, 4, 8, 16), 1), ((4, 8, 16), 2), ((2, 4, 8), 3)]),
        twisted=st.booleans(),
        r=st.integers(1, 4),
        data=st.data(),
    )
    def test_rows_and_messages_match_per_set_serving(self, make_chain, case, twisted, r, data):
        moduli, rank = case
        if case not in _SPACES:
            _SPACES[case] = bl.assemble_box_space(make_chain(*moduli, rank=rank))
        space = _SPACES[case]
        action = (twisted_action if twisted else bl.translation_action)(rank, 2.0)
        fib = bl.from_proper_action(space, action, r_max=2)
        sets = []
        deepest = len(moduli) - 1
        for _ in range(data.draw(st.integers(1, 4))):
            # mostly the deepest level, which every scale here leaves unexcluded
            i = data.draw(st.sampled_from([deepest] * 8 + list(range(deepest))))
            q = space.chain.levels[i]
            centre = data.draw(st.integers(0, q.order - 1))
            # mostly points near a centre; sometimes a far point or one of another level
            reach = data.draw(st.sampled_from([r - 1] * 6 + [r, q.diameter()]))
            near = np.flatnonzero(q.cayley_matrix([centre])[0] <= max(reach, 0)).tolist()
            chosen = data.draw(st.lists(st.sampled_from(near), min_size=1, max_size=6, unique=True))
            C = [BoxPoint(i, x) for x in sorted(chosen)]
            if data.draw(st.integers(0, 29)) == 0:
                C.append(BoxPoint((i + 1) % len(moduli), 0))
            sets.append(tuple(C))
        want = _outcome(stacked(space, reference_serve(space, action), action.dim), space, sets, r)
        got = _outcome(fib.trivialization, space, sets, r)
        if isinstance(want, str):
            assert got == want
        else:
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def all_pairs_action_check(chain, action, r_max, tol=1e-9) -> bool:
    """T(e) = id and T(a)T(b) = T(ab) over every pair of the ball of radius r_max."""
    iso = functools.partial(action_isometry, action)
    e = ambient_identity(chain)
    if not iso(e).close_to(identity_isometry(action.p, action.dim), tol):
        return False
    ball = [g for n in range(r_max + 1) for g in ambient_sphere(chain, n)]
    return all(
        iso(a).compose(iso(b)).close_to(iso(ambient_mult(chain, a, b)), tol)
        for a, b in itertools.product(ball, repeat=2)
    )


class TestActionCheck:
    """The check on generators against all pairs of the ball."""

    @settings(max_examples=80, deadline=None)
    @given(
        rank=st.integers(1, 2),
        twisted=st.booleans(),
        r_max=st.integers(1, 3),
        corrupt=st.sampled_from(["none", "shift", "sign"]),
        data=st.data(),
    )
    def test_matches_all_pairs(self, make_chain, rank, twisted, r_max, corrupt, data):
        chain = make_chain(4, rank=rank)
        base = (twisted_action if twisted else bl.translation_action)(rank, 1.0)
        # one element of the ball of radius 2 r_max + 1 acts wrongly; past
        # 2 r_max neither check can see it
        radius = data.draw(st.integers(0, 2 * r_max + 1))
        target = data.draw(st.sampled_from(ambient_sphere(chain, radius)))

        def rule(g):
            iso = action_isometry(base, g)
            if g != target or corrupt == "none":
                return iso
            if corrupt == "shift":
                return AffineIsometry(iso.p, iso.linear, iso.translation + 0.5)
            signs = iso.linear.signs.copy()
            signs[-1] *= -1
            return AffineIsometry(iso.p, SignedPermutation(iso.linear.perm, signs), iso.translation)

        action = bl.ProperAction(p=1.0, dim=base.dim, rule=rows_rule(rule, base.dim))
        fine = all_pairs_action_check(chain, action, r_max)
        if fine:
            _check_action(chain, action, r_max)
        else:
            with pytest.raises(ActionCheckError):
                _check_action(chain, action, r_max)
        assert fine == (corrupt == "none" or radius > 2 * r_max)

    def test_first_witness(self, deep_space):
        def broken(g):
            shift = float(g[0]) if g[0] != 2 else 5.0
            return AffineIsometry(1.0, SignedPermutation.identity(1), np.array([shift]))

        with pytest.raises(ActionCheckError, match=r"not multiplicative at \(1,\), \(1,\)$"):
            bl.from_proper_action(deep_space, bl.ProperAction(1.0, 1, rows_rule(broken, 1)), r_max=3)


def test_no_random_draws(monkeypatch):
    """Loading the test chains, serving and verifying the proper-action path draws nothing."""

    def refuse(*args, **kwargs):
        raise AssertionError("drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for moduli, rank in (((4, 8, 16), 1), ((2, 4, 8, 16, 32, 64), 1), ((4, 8, 16), 2)):
        space = bl.assemble_box_space(cyclic_chain(*moduli, rank=rank))
        fib = bl.from_proper_action(space, bl.translation_action(rank, 2.0), r_max=5)
        ctrl = bl.norm_equivalence_controls(range(space.diameter() + 1), rank, 2.0)
        for r in (1, 2, 3):
            assert bl.verify_fce(fib, r, ctrl.rho_minus, ctrl.rho_plus).passed
        bl.local_cocycle_from_fce(fib, 2)


def per_point_candidate_sets(space, allowed, dist, r, mode):
    """The witness sets as the per-point loops built them: one ``flatnonzero`` per point."""
    ix = space.point_indices(allowed)
    sets, seen = [], set()

    def push(C):
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
    return sets


def tuple_candidate_sets(space, allowed, dist, r, mode):
    """The witness sets as tuples of ``BoxPoint``s, enumerated as before they were
    packed: each ball, pair and clique is named point by point, balls are
    deduplicated as tuples and pairs that are balls too are dropped by tuple."""
    ix = space.point_indices(allowed)
    sets = []
    if mode in ("balls", "balls+pairs") and r >= 3:
        centre, member = fibration._near_pairs(dist, ix, (r - 1) // 2 + 1, upper=False)
        ends = np.cumsum(np.bincount(centre, minlength=len(ix))).tolist()
        members = list(map(allowed.__getitem__, member.tolist()))
        sets = list(dict.fromkeys(
            tuple(members[a:b]) for a, b in zip([0, *ends[:-1]], ends) if b - a >= 2
        ))
    if mode in ("pairs", "balls+pairs"):
        k, m = fibration._near_pairs(dist, ix, r, upper=True)
        pairs = zip(map(allowed.__getitem__, k.tolist()), map(allowed.__getitem__, m.tolist()))
        seen = {C for C in sets if len(C) == 2}
        sets += [C for C in pairs if C not in seen]
    if mode == "all":
        if len(allowed) > fibration.MAX_ALL_POINTS:
            raise InvalidArgumentError(
                f"mode 'all' over {len(allowed)} points exceeds the cap of"
                f" {fibration.MAX_ALL_POINTS}; use balls+pairs"
            )
        near = np.triu(dist[np.ix_(ix, ix)] < r, 1)
        cliques = np.arange(len(allowed))[:, None]
        common = near
        while len(cliques):
            parent, last = np.nonzero(common)
            cliques = np.column_stack([cliques[parent], last])
            common = common[parent] & near[last]
            sets += [tuple(map(allowed.__getitem__, combo)) for combo in cliques.tolist()]
    return sets


def listed_sets(space, allowed, dist, r, mode):
    """``_candidate_sets`` over the points ``allowed``, unpacked into tuples."""
    return unpack(space, *_candidate_sets(space.point_indices(allowed), dist, r, mode))


def _sl2_space():
    """The relabelled SL2(Z/3), SL2(Z/9) chain of the benchmark corpus at seed 1."""
    return bl.assemble_box_space(bl.parse_chain(sl2_chain_spec(1)))


@pytest.fixture(scope="module")
def witness_spaces():
    return {
        "torus": bl.assemble_box_space(cyclic_chain(4, 8, 16, rank=2)),
        "line": bl.assemble_box_space(cyclic_chain(2, 4, 8, 16, 32)),
        "sl2": _sl2_space(),
    }


class TestArrayWitnessSets:
    """The packed ``_candidate_sets`` against the per-point loops and the tuple
    enumeration it replaced."""

    @pytest.mark.parametrize("name", ["torus", "line", "sl2"])
    @pytest.mark.parametrize("exclusion", ["none", "shallow", "random"])
    def test_matches_per_point_loops(self, witness_spaces, monkeypatch, name, exclusion):
        space = witness_spaces[name]
        dist = space.distance_matrix()
        points = space.points()
        rng = _keyed_rng("exclusion", name)
        if exclusion == "shallow":  # a whole level, as a proper action excludes them
            allowed = [pt for pt in points if pt.level > 0]
        elif exclusion == "random":
            allowed = [pt for pt in points if rng.random() < 0.7]
        else:
            allowed = points
        for r in range(1, 7):
            for mode in ("balls", "pairs", "balls+pairs"):
                want = per_point_candidate_sets(space, allowed, dist, r, mode)
                # blocks of one row, of a few rows, and of the default size
                for entries in (1, 4 * len(allowed), fibration._BLOCK_ENTRIES):
                    monkeypatch.setattr(fibration, "_BLOCK_ENTRIES", entries)
                    assert listed_sets(space, allowed, dist, r, mode) == want, (r, mode)
                monkeypatch.undo()

    @pytest.mark.parametrize("space", ["dyadic_space", "torus_space", "z16_space"])
    @pytest.mark.parametrize("mode", fibration.MODES)
    def test_matches_the_tuple_enumeration(self, request, space, mode):
        space = request.getfixturevalue(space)
        dist = space.distance_matrix()
        allowed = space.points()
        for r in range(1, 7):
            if mode == "all" and len(allowed) > fibration.MAX_ALL_POINTS:
                message = f"^mode 'all' over {len(allowed)} points exceeds the cap"
                for enumerate_sets in (tuple_candidate_sets, listed_sets):
                    with pytest.raises(InvalidArgumentError, match=message):
                        enumerate_sets(space, allowed, dist, r, mode)
                continue
            want = tuple_candidate_sets(space, allowed, dist, r, mode)
            starts, members = _candidate_sets(np.arange(len(allowed)), dist, r, mode)
            assert starts.dtype == members.dtype == np.int64
            assert starts[0] == 0 and starts[-1] == len(members)
            assert unpack(space, starts, members) == want, r

    def test_size_two_balls_are_not_repeated_as_pairs(self, make_chain):
        # Z/2: the ball of radius 1 is the pair {0, 1}; Z/8 adds pairs of its own
        space = bl.assemble_box_space(make_chain(2, 8))
        dist = space.distance_matrix()
        sets = listed_sets(space, space.points(), dist, 3, "balls+pairs")
        assert len(sets) == len(set(sets))
        assert sets == per_point_candidate_sets(space, space.points(), dist, 3, "balls+pairs")
        assert (BoxPoint(0, 0), BoxPoint(0, 1)) in sets

    def test_no_allowed_points(self, witness_spaces):
        space = witness_spaces["line"]
        for mode in fibration.MODES:
            starts, members = _candidate_sets(np.zeros(0, dtype=np.int64), space.distance_matrix(), 3, mode)
            assert starts.tolist() == [0] and members.tolist() == []


class TestPackedBatches:
    """A packed batch is checked once, before the oracle runs, and a passing check
    names no point."""

    @pytest.mark.parametrize(
        "starts, members, message",
        [
            ([1, 3], [0, 1, 2], r"^set starts do not run up from 0 to 3 members$"),
            ([0, 2], [0, 1, 2], r"^set starts do not run up from 0 to 3 members$"),
            ([0, 3, 2, 3], [0, 1, 2], r"^set starts do not run up from 0 to 3 members$"),
            ([], [], r"^set starts do not run up from 0 to 0 members$"),
            ([0, 2, 2, 3], [0, 1, 2], r"^cannot trivialize an empty set$"),
            ([0, 2], [3, 28], r"^members must be point indices below 28$"),
            ([0, 2], [-1, 3], r"^members must be point indices below 28$"),
        ],
        ids=["not-from-0", "short-of-the-end", "decreasing", "no-starts", "empty-set",
             "past-the-end", "negative"],
    )
    def test_malformed_batches_never_reach_the_oracle(self, dyadic_space, starts, members, message):
        def spy(*args):
            raise AssertionError("the oracle ran")

        n = dyadic_space.point_count()
        fib = bl.FibredEmbedding(
            dyadic_space, 1.0, 1, np.zeros((n, 1)), lambda r: np.zeros(n, dtype=bool), spy
        )
        with pytest.raises(ValueError, match=message):
            fib.trivialize(np.array(starts, dtype=np.int64), np.array(members, dtype=np.int64), 2)

    def test_exclusion_must_be_a_mask(self, dyadic_space):
        base = bl.trivial_fibration(bl.linf_embedding(dyadic_space))
        for exclusion in (lambda r: frozenset(), lambda r: np.zeros(27, dtype=bool),
                          lambda r: np.zeros(28, dtype=np.int8)):
            fib = bl.FibredEmbedding(
                dyadic_space, base.p, base.dim, base.section, exclusion, base.trivialization
            )
            with pytest.raises(ValueError, match="^exclusion returned .*, not a mask of 28$"):
                fib.excluded(2)

    def test_passing_checks_name_no_point(self, deep_space, monkeypatch):
        """The torus and the line, verified and localized with ``points()`` already
        built: no ``BoxPoint`` is made, where localizing the line at r = 100 once
        made one per ball member."""
        made = []
        new = BoxPoint.__new__

        def counted(cls, *args):
            made.append(args)
            return new(cls, *args)

        torus = bl.assemble_box_space(cyclic_chain(4, 8, 16, rank=2))
        for space, fib, r in ((deep_space, _line_translation(deep_space, 1.0), 3),
                              (torus, _torus_translation(torus, 2.0), 2)):
            space.points()
            ctrl = bl.norm_equivalence_controls(range(space.diameter() + 1), fib.dim, fib.p)
            monkeypatch.setattr(BoxPoint, "__new__", counted)
            report = bl.verify_fce(fib, r, ctrl.rho_minus, ctrl.rho_plus)
            coc = bl.local_cocycle_from_fce(fib, r)
            monkeypatch.undo()
            assert report.passed and report.set_count and coc.carrier.size
        assert made == []

    def test_refusals_come_before_the_distance_matrix(self):
        """On the 1984-point line the distance matrix is 15.7 MB; a bad scale or mode
        is refused first, and the scale before a decreasing control."""
        space = bl.assemble_box_space(cyclic_chain(*(2**k for k in range(6, 11))))
        fib = _line_translation(space, 1.0)
        lo, hi = identity_pair(space.diameter())
        for r, mode, message in ((0, "balls", r"^scale must be >= 1, got 0$"),
                                 (2, "nope", r"^unknown mode 'nope'$")):
            tracemalloc.start()
            try:
                with pytest.raises(InvalidArgumentError, match=message):
                    bl.verify_fce(fib, r, lo, hi, mode=mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (r, mode, peak)
        with pytest.raises(InvalidArgumentError, match=r"^scale must be >= 1, got 0$"):
            bl.verify_fce(fib, 0, lo, {**hi, 1: 5.0})


class TestFirstPointServing:
    """A proper-action set is served from its first point, within r - 1 of it."""

    @pytest.mark.parametrize("twisted", [False, True])
    def test_first_point_is_served_the_identity(self, torus_chain, twisted):
        space = bl.assemble_box_space(torus_chain)
        action = (twisted_action if twisted else bl.translation_action)(2, 2.0)
        fib = bl.from_proper_action(space, action, r_max=3)
        q = torus_chain.levels[2]
        # on (Z/16)^2 at r = 3: a pair at distance 2, whose midpoint covers it
        # within 1, in both orders, and the ball of radius 1 around 17 from its
        # smallest member and from its centre
        ball = np.flatnonzero(q.cayley_matrix([17])[0] <= 1).tolist()
        sets = [(0, 2), (2, 0), tuple(ball), (17, *[x for x in ball if x != 17])]
        sets = [tuple(BoxPoint(2, x) for x in C) for C in sets]
        assert q.cayley_distance(0, 2) == 2
        stack, _ = fib.trivialize(*pack(space, sets), 3)
        firsts = np.cumsum([0, *map(len, sets[:-1])])
        got = stack.take(firsts)
        for a, b in zip(got, IsometryStack.identity(len(sets), action.dim)):
            assert np.array_equal(a, b)

    def test_reach_of_the_scale_is_refused(self, torus_chain):
        space = bl.assemble_box_space(torus_chain)
        fib = bl.from_proper_action(space, bl.translation_action(2, 2.0), r_max=2)
        # the pair {0, 2} of (Z/16)^2 at r = 2: reach 2 from either end, 1 from its midpoint
        pair = (BoxPoint(2, 0), BoxPoint(2, 2))
        with pytest.raises(
            MissingTrivializationError,
            match=r"^set reaches 2 from its first point, not below scale 2$",
        ):
            fib.trivialize(*pack(space, [(BoxPoint(2, 5),), pair]), 2)
        stack, moved = fib.trivialize(*pack(space, [(BoxPoint(2, 1), *pair)]), 2)
        assert np.array_equal(moved[:, 1], [0.0, 1.0, -1.0])


class TestArrayRule:
    """The array rules against the scalar ``AffineIsometry`` algebra, element by element."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_rows_match_the_scalar_rule(self, make_chain, rank, p):
        chain = make_chain(4, rank=rank)
        ball = [g for n in range(4) for g in ambient_sphere(chain, n)]
        rows = np.array(ball, dtype=np.int64)
        scalar_rules = {
            "translation": lambda g: AffineIsometry(
                p, SignedPermutation.identity(rank), np.array(g, float)
            ),
            "twisted": twisted_rule(rank, p),
        }
        for name, action in (("translation", bl.translation_action(rank, p)),
                             ("twisted", twisted_action(rank, p))):
            stack = action.act(rows)
            isos = [scalar_rules[name](g) for g in ball]
            want = stack_of(isos, action.dim)
            for got, expected in zip(stack, want):
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
            # the stacked algebra composes and inverts as the scalar one does
            a, b = np.divmod(np.arange(len(ball) ** 2), len(ball))
            both = stack.after(stack.inverse(), a, b)
            for k in range(0, len(a), 7):
                expected = isos[a[k]].compose(isos[b[k]].inverse())
                assert row_isometry(p, both, k).close_to(expected, 0.0)
            # and the action is multiplicative on the ball, as the scalar rule is
            sums = [tuple(x + y for x, y in zip(ball[i], ball[j])) for i, j in zip(a, b)]
            product = stack.after(stack, a, b)
            assert not product.differs(action.act(np.array(sums)), 0.0).any()

    def test_rule_rows_are_checked(self, deep_space):
        base = bl.translation_action(1, 2.0)
        for corrupt, message in [
            (lambda s: s.perm, r"returned ndarray, not an IsometryStack"),
            (lambda s: s.take(slice(0, -1)), r"rows of shape \(\d+, 1\) for \d+ elements"),
            (lambda s: s._replace(signs=0 * s.signs), r"not a signed permutation at \(0,\)$"),
        ]:
            action = bl.ProperAction(2.0, 1, lambda rows, c=corrupt: c(base.rule(rows)))
            with pytest.raises(ActionCheckError, match=message):
                bl.from_proper_action(deep_space, action, r_max=2)
        with pytest.raises(ActionCheckError, match="expected 2 coordinates"):
            bl.translation_action(2, 2.0).act(np.zeros((3, 1), dtype=np.int64))
