"""Fibred embeddings: construction, verification, failure modes."""

import itertools
import math
import zlib

import numpy as np
import pytest

import boxlab as bl
from boxlab.boxspace import BoxPoint
from boxlab.errors import ActionCheckError, MissingTrivializationError
from boxlab import fibration
from boxlab.fibration import _candidate_sets
from boxlab.lpspace import AffineIsometry, SignedPermutation, identity_isometry


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
        triv = fib.trivialize(space.points(), 9)
        ident = identity_isometry(fib.p, fib.dim)
        for iso in triv.values():
            assert iso.close_to(ident, 0.0)


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
        for r in (1, 2, 3, 5):
            K = fib.excluded(r)
            shallow = {
                i for i in range(deep_chain.level_count()) if deep_chain.radius(i) < 2 * r
            }
            assert {pt.level for pt in K} == shallow

    def test_serving_contract(self, deep_space):
        fib = bl.from_proper_action(deep_space, bl.translation_action(1, 2.0))
        # a set with covering radius beyond the scale is refused
        far = (BoxPoint(5, 0), BoxPoint(5, 20))
        with pytest.raises(MissingTrivializationError):
            fib.trivialize(far, 3)
        # cross-level sets are refused
        with pytest.raises(MissingTrivializationError):
            fib.trivialize((BoxPoint(4, 0), BoxPoint(5, 0)), 3)
        # shallow levels are refused at large scales
        with pytest.raises(MissingTrivializationError):
            fib.trivialize((BoxPoint(0, 0), BoxPoint(0, 1)), 3)

    @pytest.mark.parametrize("p, dim", [(2.0, 2), (1.0, 1)])
    def test_isometry_of_another_space_rejected(self, deep_space, p, dim):
        # the line fibration lives in l^2 of dimension 1
        base = bl.from_proper_action(deep_space, bl.translation_action(1, 2.0))

        def serve(C, r):
            out = base.trivialization(C, r)
            out[C[-1]] = identity_isometry(p, dim)
            return out

        fib = bl.FibredEmbedding(
            space=deep_space,
            p=2.0,
            dim=1,
            section=base.section,
            exclusion=base.exclusion,
            trivialization=serve,
        )
        ball = (BoxPoint(4, 6), BoxPoint(4, 7), BoxPoint(4, 8))
        with pytest.raises(ValueError, match=r"at L4:8;"):
            fib.trivialize(ball, 3)
        lo, hi = identity_pair(12)
        with pytest.raises(ValueError, match="oracle returned an isometry"):
            bl.verify_fce(fib, 3, lo, hi)
        with pytest.raises(ValueError, match="oracle returned an isometry"):
            bl.local_cocycle_from_fce(fib, 3)

    def test_lift_distances_preserved(self, deep_space):
        # trivialized differences realize the quotient metric on served balls
        fib = bl.from_proper_action(deep_space, bl.translation_action(1, 1.0))
        q = deep_space.chain.levels[4]
        ball = tuple(BoxPoint(4, x) for x in q.elements() if q.cayley_distance(7, x) <= 3)
        triv = fib.trivialize(ball, 4)
        for x in ball:
            for y in ball:
                moved = triv[x].apply(np.zeros(1)) - triv[y].apply(np.zeros(1))
                assert abs(moved[0]) == q.cayley_distance(x.element, y.element)

    def test_identity_action_fails_sandwich(self, deep_space):
        ident_rule = lambda g: identity_isometry(2.0, 1)
        action = bl.ProperAction(p=2.0, dim=1, rule=ident_rule)
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
            bl.from_proper_action(deep_space, bl.ProperAction(1.0, 1, broken), r_max=3)

    def test_needs_abelian_ambient(self):
        chain = bl.build_chain(bl.AmbientGroup("free", 1), [bl.CyclicQuotient([8])])
        space = bl.assemble_box_space(chain)
        with pytest.raises(ValueError):
            bl.from_proper_action(space, bl.translation_action(1, 2.0))


class TestVerifierMechanics:
    def test_candidate_balls_and_pairs(self, make_chain):
        space = bl.assemble_box_space(make_chain(8))
        allowed = space.points()
        dist = space.distance_matrix()
        balls = _candidate_sets(space, allowed, dist, 5, "balls", 16)
        assert all(len(C) == 5 for C in balls)  # radius-2 balls in Z/8
        pairs = _candidate_sets(space, allowed, dist, 3, "pairs", 16)
        assert all(len(C) == 2 for C in pairs)
        assert {tuple(sorted((x.element, y.element))) for x, y in pairs} == {
            (a, b) for a in range(8) for b in range(8) if a < b
            and min(b - a, 8 - (b - a)) in (1, 2)
        }

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
            out = base.trivialization(C, r)
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
            trivialization=corrupted,
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
            balls.append(
                tuple(BoxPoint(4, x) for x in q.elements() if q.cayley_distance(z, x) <= 2)
            )
        trivs = [fib.trivialize(C, r) for C in balls]
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
        out = dict(base.trivialization(C, r))
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
        trivialization=serve,
    )


def _brute_force_report(fib, r, rho_minus, rho_plus, mode, tol=1e-9):
    """Both conditions by definition: scalar distances and per-point isometry algebra."""
    space = fib.space
    excluded = fib.excluded(r)
    allowed = [pt for pt in space.points() if pt not in excluded]
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
    trivs = [fib.trivialize(C, r) for C in sets]

    sandwich, sandwich_pairs = [], 0
    for C, triv in zip(sets, trivs):
        moved = {pt: triv[pt].apply(fib.section[pt]) for pt in C}
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


class TestReportOracle:
    """The whole FceReport against the brute force, on clean and corrupted oracles."""

    @pytest.mark.parametrize(
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
    @pytest.mark.parametrize("rate", [0.0, 0.04, 0.15])
    def test_report_matches_brute_force(self, make_chain, moduli, rank, build, p, r, mode, rate):
        space = bl.assemble_box_space(make_chain(*moduli, rank=rank))
        fib = _gauged(build(space, p), rate)
        top = space.diameter() + 1
        # tight controls around t make the sandwich bite at some distances
        lo = {t: 0.5 * t for t in range(top)}
        hi = {t: 1.0 * t for t in range(top)}
        report = bl.verify_fce(fib, r, lo, hi, mode=mode)
        sets, pairs, compared, vacuous, sandwich, overlap = _brute_force_report(
            fib, r, lo, hi, mode
        )
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
        if rate > 0:
            assert overlap or not compared

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
