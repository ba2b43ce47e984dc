"""Averaged cocycles, scale-local cocycles, lifts, families."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxlab as bl
from boxlab.boxspace import BoxPoint
from boxlab.cocycles import LocalRepresentation, QuotientCarrier
from boxlab.errors import ActionCheckError, ControlSampleError, InvalidArgumentError
from boxlab.lpspace import IsometryStack
from conftest import (
    localized_ball,
    non_finite_controls,
    non_finite_translations,
    served_dict,
    stacked,
    twisted_action,
)
from scalar_isometry import AffineIsometry, SignedPermutation


@pytest.fixture(scope="module")
def line_fibrations(deep_space):
    return {
        p: bl.from_proper_action(deep_space, bl.translation_action(1, p), r_max=5)
        for p in (1.0, 2.0)
    }


def _zero_cocycle(q, r):
    """The zero cocycle at scale ``r`` on ``q``, with the identity as companion."""
    carrier = QuotientCarrier(q)
    live = int(np.count_nonzero(q.distance_from_identity() < r))
    tau = np.tile(np.arange(q.order), (live, 1))
    rep = LocalRepresentation(carrier=carrier, p=1.0, dim=1, r=r, tau=tau)
    return bl.LocalCocycle(
        carrier=carrier, p=1.0, dim=1, r=r, values=np.zeros((live, q.order, 1)), companion=rep
    )


def _loop_check(rep, coc, mode="atol", tolerance=1e-9):
    """The per-pair check: one apply, after and differs on image rows per live pair, x-major.

    Returns the pair count and the identity and representation witnesses.
    """
    q = coc.carrier.quotient
    live = [x for x in q.elements() if coc.live(x)]
    pairs = [(x, y) for x in live for y in live if coc.live(q.mult(x, y))]
    identity, representation = [], []
    for x, y in pairs:
        xy = q.mult(x, y)
        lhs = coc.value(xy)
        moved = rep.image(x).apply(coc.value(y).reshape(1, -1)).reshape(lhs.shape)
        rhs = moved + coc.value(x)
        if mode == "exact":
            ok = np.array_equal(lhs, rhs)
        else:
            ok = np.allclose(lhs, rhs, rtol=0.0, atol=tolerance)
        if not ok:
            identity.append((x, y, float(np.max(np.abs(lhs - rhs)))))
        if rep.image(x).after(rep.image(y), [0], [0]).differs(rep.image(xy), 0.0)[0]:
            representation.append((x, y))
    return len(pairs), identity, representation


def _assert_matches_loop(rep, coc, mode="atol", tolerance=1e-9):
    report = bl.verify_local_action(rep, coc, mode=mode, tolerance=tolerance)
    checked, identity, representation = _loop_check(rep, coc, mode, tolerance)
    assert report.identity_checked == report.representation_checked == checked
    # repr tells floats apart bit for bit, and a NaN deviation from any other value
    assert repr(report.identity_witnesses) == repr(identity)
    assert report.representation_witnesses == representation
    assert report.passed == (not identity and not representation)
    return report


def _representation(tau, perm=None, signs=None, dim=1):
    """A global representation of Z/len(tau) with the given block maps."""
    carrier = QuotientCarrier(bl.CyclicQuotient([len(tau)]))
    return LocalRepresentation(carrier, 1.0, dim, None, tau, perm=perm, signs=signs)


class TestBlockMap:
    """sigma(x) is a block map: it moves block tau[z] to block z and twists it by
    a signed permutation, held as one ``IsometryStack`` row of dimension blocks * dim."""

    def test_permutation_action(self):
        rep = _representation([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        blocks = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(rep.image(1).apply(blocks), np.array([[2.0, 3.0, 1.0]]))

    def test_twisted_action(self):
        # for x = 1, block 0 flips the sign, block 1 is the identity
        rep = _representation([[0, 1], [1, 0]], np.zeros((2, 2, 1)), [[[1], [1]], [[-1], [1]]])
        out = rep.image(1).apply(np.array([[2.0, 5.0]]))
        assert np.array_equal(out, np.array([[-5.0, 2.0]]))

    def test_compose_matches_sequential(self):
        rng = np.random.default_rng(0)
        size, dim = 6, 2
        for _ in range(20):
            rep = _representation([rng.permutation(size) for _ in range(size)], dim=dim)
            x, y = rng.integers(size, size=2)
            blocks = rng.normal(size=(1, size * dim))
            a, b = rep.image(x), rep.image(y)
            assert np.array_equal(a.after(b, [0], [0]).apply(blocks), a.apply(b.apply(blocks)))

    @pytest.mark.parametrize("seed", range(6))
    def test_twisted_matches_per_block_signed_permutations(self, seed):
        """Block z of sigma(x) is x's twist at z applied to block tau_x[z], and
        sigma(x) after sigma(y) is, block by block, x's map at z after y's at
        tau_x[z], as ``SignedPermutation`` says."""
        rng = np.random.default_rng(seed)
        size, dim = 7, 3
        tau = np.array([rng.permutation(size) for _ in range(size)])
        perm = np.array([[rng.permutation(dim) for _ in range(size)] for _ in range(size)])
        signs = np.where(rng.random((size, size, dim)) < 0.5, -1, 1)
        twisted = _representation(tau, perm, signs, dim)
        twists = [[SignedPermutation(*row) for row in zip(*x)] for x in zip(perm, signs)]
        plain = _representation(tau, dim=dim)
        identities = [[SignedPermutation.identity(dim)] * size] * size
        blocks = rng.normal(size=(size, dim))
        for rep, maps in ((twisted, twists), (plain, identities)):
            for x in range(size):
                row = rep.image(x)
                assert [a.shape for a in row] == [(1, size * dim)] * 3
                assert not row.translation.any()
                want = np.stack([m.apply(blocks[t]) for m, t in zip(maps[x], tau[x])])
                assert row.apply(blocks.reshape(1, -1)).tobytes() == want.tobytes()
                for y in range(size):
                    both = row.after(rep.image(y), [0], [0])
                    composed = [maps[x][z].compose(maps[y][tau[x, z]]) for z in range(size)]
                    want_perm = [tau[y, tau[x, z]] * dim + m.perm for z, m in enumerate(composed)]
                    want_signs = [m.signs for m in composed]
                    assert both.perm.tolist() == [np.concatenate(want_perm).tolist()]
                    assert both.signs.tolist() == [np.concatenate(want_signs).tolist()]

    def test_identity_twist_equals_untwisted(self):
        tau = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        twist = _representation(tau, np.tile(np.arange(2), (3, 3, 1)), np.ones((3, 3, 2)), dim=2)
        plain = _representation(tau, dim=2)
        for x in range(3):
            assert not twist.image(x).differs(plain.image(x), 0.0)[0]
            assert twist.image(x).differs(plain.image((x + 1) % 3), 0.0)[0]


class TestLocalRepresentation:
    @pytest.mark.parametrize(
        "tau, perm, signs, message",
        [
            (np.zeros((3, 2)), None, None, "tau of shape (3, 2), expected (2, 2)"),
            ([[0, 1], [1, 0]], np.zeros((2, 2, 2)), None, "twist of shape (), expected (2, 2, 2)"),
            (
                [[0, 1], [1, 0]], np.zeros((2, 2, 1)), np.ones((2, 2, 1)),
                "twist of shape (2, 2, 1), expected (2, 2, 2)",
            ),
            (
                [[0, 1], [1, 0]], [[[0, 1]] * 2, [[0, 1], [1, 1]]], np.ones((2, 2, 2)),
                "twist of row 1 at block 1 is not a signed permutation",
            ),
            (
                [[0, 1], [1, 0]], [[[0, 1]] * 2] * 2, [[[1, 1], [1, 2]], [[1, 1]] * 2],
                "twist of row 0 at block 1 is not a signed permutation",
            ),
            ([[0, 1], [1, 0]], None, np.ones((2, 2, 2)), "twist of shape (), expected (2, 2, 2)"),
            (
                [[0, 1], [1, 0]], [[[0, 1]] * 2] * 2, [[[1, 1], [1, 1]], [[1, 1], [1, 1.5]]],
                "twist of row 1 at block 1 is not a signed permutation",
            ),
        ],
    )
    def test_representation_rejects_bad_rows(self, tau, perm, signs, message):
        carrier = QuotientCarrier(bl.CyclicQuotient([2]))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LocalRepresentation(carrier=carrier, p=1.0, dim=2, r=None, tau=tau, perm=perm, signs=signs)

    @pytest.mark.parametrize(
        "tau",
        [[[0, 1], [1, 7]], [[0, 1], [0, 0]], [[0, 1], [1, -1]], [[0, 1], [1, 0.6]]],
        ids=["beyond", "repeated", "negative", "fraction"],
    )
    def test_tau_rows_must_permute_the_blocks(self, tau):
        """Each of these passed the constructor; the first then met an IndexError in
        ``verify_local_action``, and the others read a wrapped or truncated index."""
        with pytest.raises(ValueError, match="^tau row 1 is not a permutation of 2 blocks$"):
            _representation(tau)


class TestAveraged:
    def test_two_element_group_by_hand(self):
        q = bl.CyclicQuotient([2])
        rep, coc = bl.averaged_cocycle(np.array([[0.0], [1.0]]), q, 1.0)
        assert np.array_equal(coc.value(0), np.zeros((2, 1)))
        assert np.array_equal(coc.value(1), np.array([[1.0], [-1.0]]))
        assert coc.norm(1) == 1.0
        assert coc.norm(0) == 0.0

    def test_law_holds_exactly_for_integer_data(self):
        q = bl.CyclicQuotient([4])
        table = np.array([[0.0], [1.0], [2.0], [1.0]])
        rep, coc = bl.averaged_cocycle(table, q, 1.0)
        report = bl.verify_local_action(rep, coc, mode="exact")
        assert report.passed
        assert report.identity_checked == 16

    @pytest.mark.parametrize("p", [0.0, 0.5, math.nan])
    def test_p_below_one_refused(self, p):
        q = bl.CyclicQuotient([4])
        table = np.array([[0.0], [1.0], [2.0], [1.0]])
        with pytest.raises(ValueError, match=f"^p must be at least 1, got {p}$"):
            bl.averaged_cocycle(table, q, p)
        rep, _ = bl.averaged_cocycle(table, q, 1.0)
        with pytest.raises(ValueError, match=f"^p must be at least 1, got {p}$"):
            bl.LocalCocycle(
                carrier=rep.carrier, p=p, dim=1, r=None, values=np.zeros((4, 4, 1)), companion=rep
            )

    @pytest.mark.parametrize("p", [0.0, math.nan])
    def test_p_refused_before_the_tables(self, p):
        # on Z/2048 tau and the values would take 33.5 MB each
        q = bl.CyclicQuotient([2048])
        table = np.arange(2048.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^p must be at least 1, got {p}$"):
                bl.averaged_cocycle(table, q, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_law_on_planar_embedding(self, make_chain):
        space = bl.assemble_box_space(make_chain(8))
        f = bl.cycle_plane_embedding(space, 2.0)
        q = space.chain.levels[0]
        table = np.stack([f(BoxPoint(0, x)) for x in q.elements()])
        rep, coc = bl.averaged_cocycle(table, q, 2.0)
        report = bl.verify_local_action(rep, coc, tolerance=1e-12)
        assert report.passed

    def test_norm_invariant_under_argument_length(self, make_chain):
        # norms depend only on word length: averaging washes out the base point
        space = bl.assemble_box_space(make_chain(12))
        f = bl.cycle_plane_embedding(space, 2.0)
        q = space.chain.levels[0]
        table = np.stack([f(BoxPoint(0, x)) for x in q.elements()])
        _, coc = bl.averaged_cocycle(table, q, 2.0)
        dist = q.distance_from_identity()
        by_length = {}
        for x in q.elements():
            by_length.setdefault(int(dist[x]), set()).add(round(coc.norm(x), 12))
        for vals in by_length.values():
            assert len(vals) == 1

    def test_dict_input(self):
        q = bl.CyclicQuotient([3])
        rep, coc = bl.averaged_cocycle({0: [0.0], 1: [1.0], 2: [1.0]}, q, 2.0)
        assert coc.dim == 1
        assert bl.verify_local_action(rep, coc).passed

    def test_sigma_is_right_translation(self):
        q = bl.CyclicQuotient([5])
        rep, _ = bl.averaged_cocycle(np.zeros((5, 1)), q, 1.0)
        for x in q.elements():
            # dim 1: the flat perm is tau itself
            tau = rep.image(x).perm[0]
            for z in q.elements():
                assert tau[z] == q.mult(z, x)


class TestLocalFromFibration:
    def test_translation_norms_equal_length(self, line_fibrations, deep_chain):
        for p, fib in line_fibrations.items():
            coc = bl.local_cocycle_from_fce(fib, 4)
            q = coc.carrier.quotient
            assert q.order == 16
            dist = q.distance_from_identity()
            for x in q.elements():
                expected = float(dist[x]) if dist[x] < 4 else 0.0
                assert coc.norm(x) == expected, (p, x)

    def test_law_all_admissible_pairs(self, line_fibrations):
        for fib in line_fibrations.values():
            coc = bl.local_cocycle_from_fce(fib, 4)
            report = bl.verify_local_action(coc.companion, coc)
            assert report.passed, report.to_text()

    def test_zero_and_identity_outside_scale(self, line_fibrations):
        coc = bl.local_cocycle_from_fce(line_fibrations[1.0], 3)
        q = coc.carrier.quotient
        dist = q.distance_from_identity()
        for x in q.elements():
            if dist[x] >= 3:
                assert not coc.live(x)
                assert np.array_equal(coc.value(x), np.zeros((q.order, 1)))
                identity = IsometryStack.identity(1, q.order)
                assert not coc.companion.image(x).differs(identity, 0.0)[0]

    def test_matches_negated_averaged_exactly(self, dyadic_space):
        # two independent constructions of the same object, up to sign
        f = bl.linf_embedding(dyadic_space)
        fib = bl.trivial_fibration(f)
        r = 2
        coc = bl.local_cocycle_from_fce(fib, r)
        level = bl.select_level_for_r(dyadic_space.chain, 2 * r)
        q = dyadic_space.chain.levels[level]
        table = np.stack([f(BoxPoint(level, x)) for x in q.elements()])
        _, avg = bl.averaged_cocycle(table, q, f.p)
        dist = q.distance_from_identity()
        for x in q.elements():
            if dist[x] < r:
                assert np.array_equal(coc.value(x), -avg.value(x))

    def test_explicit_level_must_be_deep_enough(self, line_fibrations):
        with pytest.raises(ValueError):
            bl.local_cocycle_from_fce(line_fibrations[1.0], 4, level=2)

    @pytest.mark.parametrize("level", [-1, 6, 7])
    def test_level_out_of_range_refused(self, line_fibrations, level):
        with pytest.raises(ValueError, match=f"^level {level} out of range$"):
            bl.local_cocycle_from_fce(line_fibrations[1.0], 2, level=level)

    def test_no_square_table_of_the_carrier(self, make_chain):
        # Z/2048 at r = 2: each ball is a translate of the identity's three
        # points, so localization stays far below one n x n table of bytes
        space = bl.assemble_box_space(make_chain(2048))
        fib = bl.from_proper_action(space, bl.translation_action(1, 1.0))
        tracemalloc.start()
        try:
            coc = bl.local_cocycle_from_fce(fib, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coc.carrier.size == 2048
        assert peak < 2048**2

    def test_inconsistent_oracle_detected(self, deep_space):
        base = bl.from_proper_action(deep_space, bl.translation_action(1, 2.0))
        flip = AffineIsometry(
            2.0, SignedPermutation(np.array([0]), np.array([-1])), np.zeros(1)
        )
        level, center, r = 3, 9, 3
        target = localized_ball(deep_space.chain.levels[level], level, center, r)

        def corrupted(C, scale):
            out = served_dict(base, C, scale)
            if tuple(C) == target:
                out[C[0]] = flip.compose(out[C[0]])
            return out

        fib = bl.FibredEmbedding(
            space=deep_space,
            p=2.0,
            dim=1,
            section=base.section,
            exclusion=base.exclusion,
            trivialization=stacked(deep_space, corrupted, 1),
        )
        with pytest.raises(ActionCheckError):
            bl.local_cocycle_from_fce(fib, r)

    def test_corrupted_value_caught(self, line_fibrations):
        coc = bl.local_cocycle_from_fce(line_fibrations[2.0], 4)
        assert coc.elements[0] == 0  # row 1 is the first live element after the identity
        coc.values[1, 5, 0] += 1.0
        report = bl.verify_local_action(coc.companion, coc)
        assert not report.passed
        assert report.identity_witnesses

    def test_rep_coc_compatibility_enforced(self, line_fibrations):
        coc3 = bl.local_cocycle_from_fce(line_fibrations[1.0], 3)
        coc4 = bl.local_cocycle_from_fce(line_fibrations[1.0], 4)
        with pytest.raises(ValueError):
            bl.verify_local_action(coc3.companion, coc4)


class TestBatchedCheck:
    """verify_local_action against the per-pair loop, witness for witness."""

    @pytest.fixture(scope="class")
    def cocycles(self, line_fibrations, torus_chain):
        twisted = bl.from_proper_action(
            bl.assemble_box_space(torus_chain), twisted_action(2, 2.0), r_max=2
        )
        return {
            "twisted torus r=2": lambda: bl.local_cocycle_from_fce(twisted, 2),
            "line p=1 r=4": lambda: bl.local_cocycle_from_fce(line_fibrations[1.0], 4),
            "line p=2 r=4": lambda: bl.local_cocycle_from_fce(line_fibrations[2.0], 4),
        }

    @pytest.mark.parametrize("case", ["twisted torus r=2", "line p=1 r=4", "line p=2 r=4"])
    @pytest.mark.parametrize("corrupt", ["none", "value", "sign", "tau"])
    def test_witnesses_match_loop(self, cocycles, case, corrupt):
        coc = cocycles[case]()
        rep = coc.companion
        assert rep.perm is not None
        rng = np.random.default_rng(0)
        i = int(rng.integers(1, len(coc.elements)))
        z, c = int(rng.integers(coc.carrier.size)), int(rng.integers(coc.dim))
        if corrupt == "value":
            coc.values[i, z, c] += 0.5
        elif corrupt == "sign":
            rep.signs[i, z, c] *= -1
        elif corrupt == "tau":
            w = (z + 1) % coc.carrier.size
            rep.tau[i, [z, w]] = rep.tau[i, [w, z]]
        report = _assert_matches_loop(rep, coc)
        assert report.passed == (corrupt == "none"), report.to_text()
        if corrupt in ("sign", "tau"):
            assert report.representation_witnesses
        if case.startswith("twisted"):
            assert (rep.signs == -1).any()

    def test_every_pair_past_the_old_cap(self):
        q = bl.CyclicQuotient([150])
        table = np.random.default_rng(150).integers(-9, 10, size=(150, 2)).astype(float)
        rep, coc = bl.averaged_cocycle(table, q, 1.0)
        report = bl.verify_local_action(rep, coc, mode="exact")
        assert report.passed
        assert report.identity_checked == report.representation_checked == 22500
        assert len(report.to_text().splitlines()) == 3
        coc.values[37, 101, 1] += 1.0
        report = _assert_matches_loop(rep, coc, mode="exact")
        assert not report.passed and len(report.identity_witnesses) > 1

    def test_exact_mode_sees_what_atol_forgives(self):
        q = bl.CyclicQuotient([5])
        rep, coc = bl.averaged_cocycle(np.array([[0.0], [1.0], [2.0], [2.0], [1.0]]), q, 1.0)
        coc.values[2, 1, 0] += 1e-12
        assert not _assert_matches_loop(rep, coc, mode="exact").passed
        assert _assert_matches_loop(rep, coc, mode="atol").passed

    # inf - inf in a failing pair's deviation warns in the loop and in the exact check
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    @pytest.mark.parametrize("mode", ["exact", "atol"])
    def test_non_finite_entries_compare_as_numpy_does(self, mode):
        q = bl.CyclicQuotient([3])
        rep, coc = bl.averaged_cocycle(np.array([[0.0], [1.0], [2.0]]), q, 1.0)
        coc.values[1, 0, 0] = np.inf
        coc.values[2, 1, 0] = np.nan
        coc.values[0, 2, 0] = -np.inf
        report = _assert_matches_loop(rep, coc, mode=mode)
        assert not report.passed

    # the atol check compares each pair's largest deviation with the tolerance
    # and leaves pairs with a non-finite deviation to np.isclose
    @pytest.mark.filterwarnings("ignore:overflow encountered in subtract:RuntimeWarning")
    @pytest.mark.parametrize("tolerance", [0.5, 0.0, -1.0])
    def test_atol_reads_the_tolerance_as_numpy_does(self, tolerance):
        q = bl.CyclicQuotient([4])
        rep, coc = bl.averaged_cocycle(np.array([[0.0], [1.0], [2.0], [1.0]]), q, 1.0)
        coc.values[1, 2, 0] += 0.25
        # finite entries whose differences overflow to inf
        coc.values[2, 3, 0] = 1.5e308
        coc.values[3, 1, 0] = -1.5e308
        if tolerance < 0:
            # refused before any work, as every verifier refuses it
            with pytest.raises(InvalidArgumentError, match=f"^tolerance must not be negative, got {tolerance}$"):
                bl.verify_local_action(rep, coc, tolerance=tolerance)
            return
        report = _assert_matches_loop(rep, coc, tolerance=tolerance)
        assert len(report.identity_witnesses) < report.identity_checked

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, -np.inf])
    def test_non_finite_tolerance_rejected(self, tolerance):
        rep, coc = bl.averaged_cocycle(np.array([[0.0], [1.0], [1.0]]), bl.CyclicQuotient([3]), 1.0)
        with pytest.raises(InvalidArgumentError, match=f"^tolerance must be finite, got {tolerance}$"):
            bl.verify_local_action(rep, coc, tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [-1e-9, -1.0])
    def test_negative_tolerance_rejected(self, tolerance):
        rep, coc = bl.averaged_cocycle(np.array([[0.0], [1.0], [1.0]]), bl.CyclicQuotient([3]), 1.0)
        with pytest.raises(InvalidArgumentError, match=f"^tolerance must not be negative, got {tolerance}$"):
            bl.verify_local_action(rep, coc, tolerance=tolerance)


class TestLift:
    def test_lift_values_and_support(self, line_fibrations, deep_chain):
        coc = bl.local_cocycle_from_fce(line_fibrations[1.0], 5)
        lifted = bl.lift_to_group(coc, deep_chain)
        for g in range(-6, 7):
            expected = float(abs(g)) if abs(g) < 5 else 0.0
            assert lifted.norm((g,)) == expected

    def test_lift_agrees_with_projection(self, line_fibrations, deep_chain):
        coc = bl.local_cocycle_from_fce(line_fibrations[2.0], 4)
        lifted = bl.lift_to_group(coc, deep_chain)
        q = coc.carrier.quotient
        for g in range(-3, 4):
            x = g % q.order
            assert np.array_equal(lifted.value((g,)), coc.value(x))

    def test_lift_scale_bounded_by_radius(self, deep_chain):
        coc = _zero_cocycle(deep_chain.levels[1], 5)  # Z/4, radius 3
        with pytest.raises(ValueError):
            bl.lift_to_group(coc, deep_chain)

    def test_lift_needs_matching_carrier(self, line_fibrations, dyadic_chain):
        coc = bl.local_cocycle_from_fce(line_fibrations[1.0], 3)
        with pytest.raises(ValueError):
            bl.lift_to_group(coc, dyadic_chain)

    def test_cocycle_identity_upstairs(self, line_fibrations, deep_chain):
        coc = bl.local_cocycle_from_fce(line_fibrations[1.0], 4)
        lifted = bl.lift_to_group(coc, deep_chain)
        for g in range(-3, 4):
            for h in range(-3, 4):
                if abs(g) < 4 and abs(h) < 4 and abs(g + h) < 4:
                    lhs = lifted.value((g + h,))
                    moved = lifted.sigma((g,)).apply(lifted.value((h,)).reshape(1, -1))
                    rhs = moved.reshape(lhs.shape) + lifted.value((g,))
                    assert np.array_equal(lhs, rhs)


class TestFamily:
    def test_norm_table(self, line_fibrations, deep_chain):
        fam = bl.family_from_fce(line_fibrations[1.0], range(2, 7))
        assert fam.scales() == [2, 3, 4, 5, 6]
        norms = fam.norms((2,))
        assert norms[2] == 0.0
        assert all(norms[r] == 2.0 for r in (3, 4, 5, 6))

    def test_hypothesis_check_passes(self, line_fibrations):
        fam = bl.family_from_fce(line_fibrations[1.0], range(2, 7))
        elements = [(g,) for g in range(-3, 4)]
        ident = {n: float(n) for n in range(4)}
        report = bl.ultraproduct_hypothesis_check(fam, elements, ident, ident)
        assert report.passed
        for _, n, seq, upper_ok, lower_ok, const in report.rows:
            assert upper_ok and lower_ok and const
            live = [v for r, v in seq.items() if r > n]
            assert all(v == n for v in live)

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, -np.inf])
    def test_non_finite_tolerance_rejected(self, line_fibrations, tolerance):
        fam = bl.family_from_fce(line_fibrations[1.0], range(2, 4))
        ident = {n: float(n) for n in range(2)}
        with pytest.raises(InvalidArgumentError, match=f"^tolerance must be finite, got {tolerance}$"):
            bl.ultraproduct_hypothesis_check(fam, [(1,)], ident, ident, tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [-1e-9, -1.0])
    def test_negative_tolerance_rejected(self, line_fibrations, tolerance):
        fam = bl.family_from_fce(line_fibrations[1.0], range(2, 4))
        ident = {n: float(n) for n in range(2)}
        with pytest.raises(InvalidArgumentError, match=f"^tolerance must not be negative, got {tolerance}$"):
            bl.ultraproduct_hypothesis_check(fam, [(1,)], ident, ident, tolerance=tolerance)

    @pytest.mark.parametrize("bad", [{1: 5.0}, {3: np.nan}])
    def test_non_monotone_controls_rejected(self, line_fibrations, bad):
        """The line Z/2..Z/64 used to pass with rho_plus 0, 5, 2, 3, as with a NaN sample."""
        fam = bl.family_from_fce(line_fibrations[1.0], range(2, 5))
        elements = [(g,) for g in range(-3, 4)]
        ident = {n: float(n) for n in range(4)}
        with pytest.raises(InvalidArgumentError, match="^rho_plus samples are not nondecreasing$"):
            bl.ultraproduct_hypothesis_check(fam, elements, ident, {**ident, **bad})
        with pytest.raises(InvalidArgumentError, match="^rho_minus samples are not nondecreasing$"):
            bl.ultraproduct_hypothesis_check(fam, elements, {**ident, **bad}, ident)

    @pytest.mark.parametrize("side", ["rho_minus", "rho_plus"])
    @pytest.mark.parametrize("verifier", ["verify_coarse", "verify_fce", "ultraproduct"])
    def test_missing_control_sample_is_named(self, deep_space, line_fibrations, verifier, side):
        """The three sandwich verifiers read controls through one lookup, so each names
        the side and the distance of a missing sample; ultraproduct used to raise KeyError."""
        ident = {n: float(n) for n in range(deep_space.diameter() + 1)}
        gap = {n: v for n, v in ident.items() if n != 2}
        lo, hi = (gap, ident) if side == "rho_minus" else (ident, gap)
        check = {
            "verify_coarse": lambda: bl.verify_coarse(bl.linf_embedding(deep_space), lo, hi),
            "verify_fce": lambda: bl.verify_fce(
                bl.trivial_fibration(bl.linf_embedding(deep_space)), 3, lo, hi, mode="pairs"
            ),
            "ultraproduct": lambda: bl.ultraproduct_hypothesis_check(
                bl.family_from_fce(line_fibrations[1.0], range(2, 5)),
                [(g,) for g in range(-3, 4)], lo, hi,
            ),
        }[verifier]
        with pytest.raises(ControlSampleError, match=f"^{side} sample missing realized distance 2$"):
            check()

    def test_zero_family_fails_lower_bound(self, deep_chain):
        members = {}
        for r in (2, 3):
            level = bl.select_level_for_r(deep_chain, 2 * r)
            members[r] = bl.lift_to_group(_zero_cocycle(deep_chain.levels[level], r), deep_chain)
        fam = bl.CocycleFamily(chain=deep_chain, members=members)
        ident = {n: float(n) for n in range(3)}
        report = bl.ultraproduct_hypothesis_check(fam, [(1,), (0,)], ident, ident)
        assert not report.passed
        by_g = {g: row for g, *row in report.rows}
        _, _, upper_ok, lower_ok, _ = by_g[(1,)]
        assert upper_ok and not lower_ok

    def test_corrupted_member_fails(self, line_fibrations):
        fam = bl.family_from_fce(line_fibrations[1.0], range(2, 6))
        victim = fam.members[4].base
        x0 = int(victim.elements[1])  # the first live element after the identity
        victim.values[1] += 7.0
        ident = {n: float(n) for n in range(4)}
        report = bl.ultraproduct_hypothesis_check(fam, [(x0 if x0 < 8 else x0 - 16,)], ident, ident)
        assert not report.passed


def _first_inconsistent_blocks(fib, r, level):
    """First (z, zx) in (x, z) loop order whose balls disagree on the transition."""
    q = fib.space.chain.levels[level]
    length = q.distance_from_identity()
    balls = [localized_ball(q, level, z, r) for z in q.elements()]
    trivs = [served_dict(fib, ball, r) for ball in balls]
    for x in q.elements():
        if length[x] >= r:
            continue
        for z in q.elements():
            zx = q.mult(z, x)
            at = BoxPoint(level, zx)
            base = trivs[z][at].compose(trivs[zx][at].inverse())
            for w in sorted(set(balls[z]) & set(balls[zx])):
                if not trivs[z][w].compose(trivs[zx][w].inverse()).close_to(base, 1e-9):
                    return z, zx
    return None


@pytest.mark.parametrize(
    "moduli, rank, r, seed",
    [((2, 4, 8, 16), 1, 3, s) for s in range(4)] + [((4, 8), 2, 2, s) for s in range(4)],
)
def test_inconsistent_oracle_names_first_blocks(make_chain, moduli, rank, r, seed):
    space = bl.assemble_box_space(make_chain(*moduli, rank=rank))
    base = bl.from_proper_action(space, bl.translation_action(rank, 2.0), r_max=3)
    level = bl.select_level_for_r(space.chain, 2 * r)
    q = space.chain.levels[level]
    rng = np.random.default_rng(seed)
    center, coord = int(rng.integers(q.order)), int(rng.integers(rank))
    target = localized_ball(q, level, center, r)
    victim = target[int(rng.integers(len(target)))]
    signs = np.ones(rank, dtype=np.int64)
    signs[coord] = -1
    flip = AffineIsometry(2.0, SignedPermutation(np.arange(rank), signs), np.zeros(rank))
    offset = np.zeros(rank)
    offset[coord] = 1.1e-9

    def corrupted(C, scale):
        out = served_dict(base, C, scale)
        if tuple(C) == target:
            iso = out[victim]
            out[victim] = (
                flip.compose(iso)
                if seed % 2
                else AffineIsometry(2.0, iso.linear, iso.translation + offset)
            )
        return out

    fib = bl.FibredEmbedding(
        space=space,
        p=2.0,
        dim=rank,
        section=base.section,
        exclusion=base.exclusion,
        trivialization=stacked(space, corrupted, rank),
    )
    z, zx = _first_inconsistent_blocks(fib, r, level)
    with pytest.raises(ActionCheckError, match=rf"\(blocks {z}, {zx}\)$"):
        bl.local_cocycle_from_fce(fib, r)


class TestNonFiniteInput:
    """NaN and +-inf in served translations and control samples: each verifier
    raises at the boundary or reports what the per-pair oracles report."""

    # inf - inf in a transition warns, in the stack and in the scalar oracle
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_served_translations(self, line_fibrations, data):
        base = line_fibrations[data.draw(st.sampled_from([1.0, 2.0]))]
        r, level = 3, 3  # Z/16, the first level whose radius reaches 2r
        q = base.space.chain.levels[level]
        fib = non_finite_translations(data, base, [BoxPoint(level, x) for x in q.elements()])
        # in dimension 1 both rows at a corrupted point hold the same non-finite
        # entry, so the transition read there is inf - inf or NaN, a NaN that
        # differs from everything: localization refuses the oracle
        z, zx = _first_inconsistent_blocks(fib, r, level)
        with pytest.raises(ActionCheckError, match=rf"\(blocks {z}, {zx}\)$"):
            bl.local_cocycle_from_fce(fib, r)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_ultraproduct_controls(self, line_fibrations, data):
        fam = bl.family_from_fce(line_fibrations[1.0], range(2, 5))
        elements = [(g,) for g in range(-3, 4)]
        lo, hi, monotone = non_finite_controls(data, 3)
        if not monotone:
            with pytest.raises(InvalidArgumentError, match="samples are not nondecreasing$"):
                bl.ultraproduct_hypothesis_check(fam, elements, lo, hi)
            return
        report = bl.ultraproduct_hypothesis_check(fam, elements, lo, hi)
        for (g, n, seq, upper_ok, lower_ok, _), h in zip(report.rows, elements):
            norms = {r: fam.members[r].norm(h) for r in fam.scales()}
            assert (g, n, seq) == (h, abs(h[0]), norms)
            assert upper_ok == all(v <= hi[n] + 1e-9 for v in norms.values())
            assert lower_ok == all(v >= lo[n] - 1e-9 for r, v in norms.items() if r > n)
        assert report.passed == all(row[3] and row[4] for row in report.rows)
