"""Fibred embeddings: construction, verification, failure modes."""

import itertools
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxlab as bl
from boxlab.boxspace import BoxPoint
from boxlab.errors import ActionCheckError, InvalidArgumentError, MissingTrivializationError
from boxlab import fibration
from boxlab.fibration import _candidate_sets, _check_action
from boxlab.groups import ambient_from_letters, ambient_identity, ambient_mult, ambient_sphere
from boxlab.lpspace import AffineIsometry, IsometryStack, SignedPermutation, identity_isometry
from conftest import canonical_word, cyclic_chain, served_dict, stacked, twisted_action


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
        with pytest.raises(MissingTrivializationError, match="covering radius 10"):
            fib.trivialize([far], 3)
        # cross-level sets are refused
        with pytest.raises(MissingTrivializationError, match=r"spans levels \[4, 5\]"):
            fib.trivialize([(BoxPoint(4, 0), BoxPoint(5, 0))], 3)
        # shallow levels are refused at large scales
        with pytest.raises(MissingTrivializationError, match="level 0 is excluded at scale 3"):
            fib.trivialize([(BoxPoint(0, 0), BoxPoint(0, 1))], 3)
        # points outside the space and empty sets never reach the oracle
        with pytest.raises(ValueError, match="L6:0 is not a point of the space"):
            fib.trivialize([(BoxPoint(6, 0),)], 3)
        with pytest.raises(ValueError, match="empty set"):
            fib.trivialize([()], 3)

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
            trivialization=lambda sets, r: corrupt(base.trivialization(sets, r)),
        )
        ball = (BoxPoint(4, 6), BoxPoint(4, 7), BoxPoint(4, 8))
        with pytest.raises(ValueError, match=message):
            fib.trivialize([ball], 3)
        lo, hi = identity_pair(12)
        with pytest.raises(ValueError, match="oracle returned"):
            bl.verify_fce(fib, 3, lo, hi)
        with pytest.raises(ValueError, match="oracle returned"):
            bl.local_cocycle_from_fce(fib, 3)

    def test_lift_distances_preserved(self, deep_space):
        # trivialized differences realize the quotient metric on served balls
        fib = bl.from_proper_action(deep_space, bl.translation_action(1, 1.0))
        q = deep_space.chain.levels[4]
        ball = tuple(BoxPoint(4, x) for x in q.elements() if q.cayley_distance(7, x) <= 3)
        triv = served_dict(fib, ball, 4)
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
        balls = _candidate_sets(space, allowed, dist, 5, "balls")
        assert all(len(C) == 5 for C in balls)  # radius-2 balls in Z/8
        pairs = _candidate_sets(space, allowed, dist, 3, "pairs")
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
            trivialization=stacked(corrupted, 1),
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
        trivialization=stacked(serve, dim),
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
    trivs = [served_dict(fib, C, r) for C in sets]

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
            trivialization=stacked(serve, gauged.dim),
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


def reference_serve(space, action):
    """The per-set proper-action oracle the stacked one replaced: one dict per set.

    Each point is served the inverse action of its canonical word from the
    set's one-centre, built point by point.
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
        cover = q.cayley_matrix(ys=elems).max(axis=1)
        best_z = int(cover.argmin())
        if cover[best_z] >= r:
            raise MissingTrivializationError(
                f"covering radius {cover[best_z]} of the set is not below scale {r}"
            )
        out = {}
        for pt, x in zip(C, q.mult_many(q.inv(best_z), elems).tolist()):
            word = canonical_word(q, x)
            out[pt] = action.isometry(ambient_from_letters(chain, word)).inverse()
        return out

    return serve


def _outcome(serve, sets, r):
    try:
        return serve(sets, r)
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
        want = _outcome(stacked(reference_serve(space, action), action.dim), sets, r)
        got = _outcome(fib.trivialization, sets, r)
        if isinstance(want, str):
            assert got == want
        else:
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def all_pairs_action_check(chain, action, r_max, tol=1e-9) -> bool:
    """T(e) = id and T(a)T(b) = T(ab) over every pair of the ball of radius r_max."""
    e = ambient_identity(chain)
    if not action.isometry(e).close_to(identity_isometry(action.p, action.dim), tol):
        return False
    ball = [g for n in range(r_max + 1) for g in ambient_sphere(chain, n)]
    return all(
        action.isometry(a).compose(action.isometry(b)).close_to(
            action.isometry(ambient_mult(chain, a, b)), tol
        )
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
            iso = base.rule(g)
            if g != target or corrupt == "none":
                return iso
            if corrupt == "shift":
                return AffineIsometry(iso.p, iso.linear, iso.translation + 0.5)
            signs = iso.linear.signs.copy()
            signs[-1] *= -1
            return AffineIsometry(iso.p, SignedPermutation(iso.linear.perm, signs), iso.translation)

        action = bl.ProperAction(p=1.0, dim=base.dim, rule=rule)
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
            bl.from_proper_action(deep_space, bl.ProperAction(1.0, 1, broken), r_max=3)


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
