"""Coarse embeddings, control profiles, p-norm combination."""

import itertools
import math

import numpy as np
import pytest

import boxlab as bl
from boxlab.boxspace import BoxPoint
from boxlab.embedding import _difference_dtype
from boxlab.errors import ControlSampleError, InvalidArgumentError


def single_level_space(make_chain, m):
    return bl.assemble_box_space(make_chain(m))


class TestProfile:
    def test_constant_map(self, make_chain):
        space = single_level_space(make_chain, 6)
        table = {pt: np.zeros(2) for pt in space.points()}
        f = bl.CoarseEmbeddingMap(space, 2.0, 2, table)
        ctrl = bl.profile(f)
        assert all(v == 0.0 for v in ctrl.rho_minus.values())
        assert all(v == 0.0 for v in ctrl.rho_plus.values())

    def test_linf_profile_is_identity(self, dyadic_space):
        ctrl = bl.profile(bl.linf_embedding(dyadic_space))
        for t in ctrl.realized_distances():
            assert ctrl.rho_minus[t] == t
            assert ctrl.rho_plus[t] == t

    def test_plane_embedding_chord_lengths(self, make_chain):
        space = single_level_space(make_chain, 8)
        ctrl = bl.profile(bl.cycle_plane_embedding(space, 2.0))
        assert ctrl.rho_plus[1] == pytest.approx(2 * math.sin(math.pi / 8), abs=1e-12)
        assert ctrl.rho_minus[1] == pytest.approx(2 * math.sin(math.pi / 8), abs=1e-12)
        assert ctrl.rho_plus[4] == pytest.approx(2.0, abs=1e-12)

    def test_envelopes_are_monotone_and_ordered(self, dyadic_space):
        ctrl = bl.profile(bl.torus_coordinate_embedding(dyadic_space, 3.0))
        ts = ctrl.realized_distances()
        for a, b in zip(ts, ts[1:]):
            assert ctrl.rho_minus[a] <= ctrl.rho_minus[b]
            assert ctrl.rho_plus[a] <= ctrl.rho_plus[b]
        for t in ts:
            assert ctrl.rho_minus[t] <= ctrl.rho_plus[t]

    def test_envelope_is_lower_bound_for_every_pair(self, make_chain):
        # the lower envelope may only ever move down, never above a realized norm
        space = bl.assemble_box_space(make_chain(4, 8))
        f = bl.cycle_plane_embedding(space, 2.0)
        ctrl = bl.profile(f)
        pts = space.points()
        for i, x in enumerate(pts):
            for y in pts[i + 1 :]:
                t = space.distance(x, y)
                nrm = float(bl.lp_norm(f(x) - f(y), 2.0))
                assert ctrl.rho_minus[t] <= nrm + 1e-12
                assert nrm <= ctrl.rho_plus[t] + 1e-12


class TestVerifyCoarse:
    def test_profile_controls_always_pass(self, dyadic_space):
        f = bl.cycle_plane_embedding(dyadic_space, 2.0)
        ctrl = bl.profile(f)
        lo = dict(ctrl.rho_minus)
        hi = dict(ctrl.rho_plus)
        lo[0] = hi[0] = 0.0
        report = bl.verify_coarse(f, lo, hi)
        assert report.passed

    def test_isometry_check_exact(self, dyadic_space):
        f = bl.linf_embedding(dyadic_space)
        ident = bl.identity_controls(range(dyadic_space.diameter() + 1))
        report = bl.verify_coarse(f, ident.rho_minus, ident.rho_plus, tolerance=0.0)
        assert report.passed
        assert report.pair_count == 28 * 29 // 2

    def test_one_nan_coordinate_fails_at_tolerance_zero(self, dyadic_space):
        """Every pair at the NaN point has a NaN norm, and a NaN norm is a violation."""
        f = bl.linf_embedding(dyadic_space)
        point = dyadic_space.points()[5]
        table = dict(f.table)
        table[point] = table[point].copy()
        table[point][0] = np.nan
        g = bl.CoarseEmbeddingMap(dyadic_space, f.p, f.dim, table)
        ident = bl.identity_controls(range(dyadic_space.diameter() + 1))
        report = bl.verify_coarse(g, ident.rho_minus, ident.rho_plus, tolerance=0.0)
        assert not report.passed
        assert len(report.witnesses) == dyadic_space.point_count()
        assert all(point in (x, y) and math.isnan(n) for x, y, _, n, _, _ in report.witnesses)
        want = _pair_loop_witnesses(g, ident.rho_minus, ident.rho_plus, 0.0)
        assert repr(report.witnesses) == repr(want)

    def test_violation_reported_with_witness(self, make_chain):
        space = single_level_space(make_chain, 8)
        f = bl.cycle_plane_embedding(space, 2.0)
        # demanding rho_minus(t) = t fails: chords are shorter than arcs
        lo = {t: float(t) for t in range(5)}
        hi = {t: 10.0 for t in range(5)}
        report = bl.verify_coarse(f, lo, hi)
        assert not report.passed
        assert report.witnesses
        x, y, t, nrm, lo_v, hi_v = report.witnesses[0]
        assert nrm < lo_v
        assert "FAIL" in report.to_text()

    def test_missing_sample_raises(self, make_chain):
        space = single_level_space(make_chain, 6)
        f = bl.linf_embedding(space)
        with pytest.raises(ControlSampleError):
            bl.verify_coarse(f, {0: 0.0}, {0: 0.0})

    def test_non_monotone_controls_rejected(self, make_chain):
        space = single_level_space(make_chain, 6)
        f = bl.linf_embedding(space)
        lo = {t: 0.0 for t in range(4)}
        hi = {0: 3.0, 1: 2.0, 2: 3.0, 3: 3.0}
        with pytest.raises(ValueError):
            bl.verify_coarse(f, lo, hi)

    @pytest.mark.parametrize("name", ["rho_minus", "rho_plus"])
    def test_nan_control_sample_rejected(self, make_chain, name):
        """A NaN sample breaks monotonicity, as in ControlPair, instead of failing every pair at it."""
        space = bl.assemble_box_space(make_chain(4, 8))
        ident = bl.identity_controls(range(space.diameter() + 1))
        controls = {"rho_minus": dict(ident.rho_minus), "rho_plus": dict(ident.rho_plus)}
        controls[name][3] = math.nan
        with pytest.raises(InvalidArgumentError, match=f"^{name} samples are not nondecreasing$"):
            bl.verify_coarse(bl.linf_embedding(space), **controls)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, dyadic_space, tolerance):
        ident = bl.identity_controls(range(dyadic_space.diameter() + 1))
        with pytest.raises(InvalidArgumentError, match=f"^tolerance must be finite, got {tolerance}$"):
            bl.verify_coarse(
                bl.linf_embedding(dyadic_space), ident.rho_minus, ident.rho_plus, tolerance=tolerance
            )


class TestNormEquivalenceControls:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_bounds_every_lattice_vector(self, rank, p):
        ctrl = bl.norm_equivalence_controls(range(5), rank, p)
        for t in range(5):
            # every v in Z^rank with |v|_1 = t, by brute force over the box [-t, t]^rank
            norms = [
                bl.lp_norm(np.array(v), p)
                for v in itertools.product(range(-t, t + 1), repeat=rank)
                if sum(map(abs, v)) == t
            ]
            assert ctrl.rho_minus[t] <= min(norms) + 1e-12
            assert max(norms) <= ctrl.rho_plus[t] == t
            if t % rank == 0:  # attained by the diagonal vector
                assert ctrl.rho_minus[t] == pytest.approx(min(norms), abs=1e-12)

    @pytest.mark.parametrize("rank, p", [(1, 2.0), (1, math.inf), (1, 3.0), (3, 1.0)])
    def test_identity_controls_at_rank_one_or_p_one(self, rank, p):
        ctrl = bl.norm_equivalence_controls(range(7), rank, p)
        ident = bl.identity_controls(range(7))
        assert (ctrl.rho_minus, ctrl.rho_plus) == (ident.rho_minus, ident.rho_plus)

    def test_linf_lower_bound_divides_by_rank(self):
        ctrl = bl.norm_equivalence_controls(range(7), 3, math.inf)
        assert ctrl.rho_minus == pytest.approx({t: t / 3 for t in range(7)}, abs=1e-15)


class TestEmbeddingMaps:
    def test_linf_dimension_is_point_count(self, dyadic_space):
        f = bl.linf_embedding(dyadic_space)
        assert f.dim == dyadic_space.point_count()
        assert math.isinf(f.p)

    def test_plane_embedding_needs_rank_one(self, torus_chain):
        space = bl.assemble_box_space(torus_chain)
        with pytest.raises(ValueError):
            bl.cycle_plane_embedding(space)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("space", ["dyadic_space", "deep_space"])
    def test_plane_table_is_torus_table_on_rank_one(self, space, p, request):
        space = request.getfixturevalue(space)
        plane = bl.cycle_plane_embedding(space, p)
        torus = bl.torus_coordinate_embedding(space, p)
        assert (plane.p, plane.dim) == (torus.p, torus.dim) == (p, 2)
        assert list(plane.table) == list(torus.table) == space.points()
        for pt, v in plane.table.items():
            angle = 2.0 * math.pi * pt.element / space.chain.levels[pt.level].moduli[0]
            assert v.tobytes() == torus.table[pt].tobytes()
            assert v.tolist() == [math.cos(angle), math.sin(angle)]

    def test_torus_embedding_dimension(self, torus_chain):
        space = bl.assemble_box_space(torus_chain)
        f = bl.torus_coordinate_embedding(space, 1.0)
        assert f.dim == 4

    def test_table_must_cover_domain(self, make_chain):
        space = single_level_space(make_chain, 4)
        table = {pt: np.zeros(1) for pt in space.points()[:-1]}
        with pytest.raises(ValueError):
            bl.CoarseEmbeddingMap(space, 1.0, 1, table)

    @pytest.mark.parametrize("build", ["linf", "torus", "table"])
    def test_matrix_is_read_only_and_stacks_the_table(self, dyadic_space, build):
        rng = np.random.default_rng(3)
        f = {
            "linf": lambda: bl.linf_embedding(dyadic_space),
            "torus": lambda: bl.torus_coordinate_embedding(dyadic_space, 2.0),
            "table": lambda: bl.CoarseEmbeddingMap(
                dyadic_space, 3.0, 2,
                {pt: rng.standard_normal(2) for pt in reversed(dyadic_space.points())},
            ),
        }[build]()
        mat = f.matrix()
        assert mat.dtype == np.float64 and not mat.flags.writeable
        assert mat is f.matrix()
        assert list(f.table) == dyadic_space.points()
        assert mat.tobytes() == np.vstack([f.table[pt] for pt in dyadic_space.points()]).tobytes()
        assert all(f(pt) is f.table[pt] for pt in dyadic_space.points())
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0
        with pytest.raises(ValueError):
            f.table[dyadic_space.points()[0]][0] = 1.0

    def test_table_is_copied(self, dyadic_space):
        table = {pt: np.zeros(1) for pt in dyadic_space.points()}
        f = bl.CoarseEmbeddingMap(dyadic_space, 1.0, 1, table)
        table[dyadic_space.points()[0]][0] = 5.0
        assert f.matrix().tolist() == [[0.0]] * dyadic_space.point_count()


def _old_difference_dtype(mat):
    """The narrowest exact difference dtype, as first written: through |mat| and floor(mat)."""
    top = float(np.abs(mat).max(initial=0.0))
    if not math.isfinite(top) or not (mat == np.floor(mat)).all():
        return np.dtype(np.float64)
    for dtype in (np.int8, np.int16, np.int32):
        if 2 * top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.float64)


class TestDifferenceDtype:
    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_the_first_version(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 6)))
        top = float(rng.choice([1, 63, 64, 2**14 - 1, 2**14, 2**30 - 1, 2**30, 2**40]))
        mat = rng.integers(-top, top + 1, size=shape).astype(np.float64)
        if seed % 5 == 1:
            mat += rng.choice([0.0, 0.5, 1e-9], size=shape)
        elif seed % 5 == 2:
            mat = 10.0 * rng.standard_normal(shape)
        if seed % 4 == 3:
            mat[tuple(rng.integers(0, shape))] = [np.nan, np.inf, -np.inf, -0.0][seed // 4 % 4]
        if seed % 7 == 0:
            mat.flat[0] = -top  # the negative end alone sets the width
        with np.errstate(invalid="ignore"):
            assert _difference_dtype(mat) == _old_difference_dtype(mat)

    @pytest.mark.parametrize(
        "values, dtype",
        [
            ([0.0, -63.0], np.int8),
            ([0.0, -64.0], np.int16),
            ([63.0, -64.0], np.int16),
            ([0.5, 1.0], np.float64),
            ([np.nan, 1.0], np.float64),
            ([-np.inf, 1.0], np.float64),
            ([np.inf, np.nan], np.float64),
            ([-0.0, 2.0], np.int8),
            ([], np.int8),
        ],
    )
    def test_edges(self, values, dtype):
        mat = np.array(values, dtype=np.float64).reshape(1, -1)
        assert _difference_dtype(mat) == _old_difference_dtype(mat) == dtype


class TestPnormPower:
    def test_uniform_blocks_exact(self):
        report = bl.pnorm_power_check(4, 2.0, [3.0, 3.0, 3.0, 3.0], 3.0, 3.0)
        assert report.passed
        assert report.combined_norm == pytest.approx(6.0, abs=1e-12)
        assert report.scale == pytest.approx(2.0, abs=1e-12)

    def test_single_block(self):
        assert bl.pnorm_power_check(1, 5.0, [2.5], 2.0, 3.0).passed

    def test_interval_blocks(self):
        report = bl.pnorm_power_check(2, 1.0, [1.0, 3.0], 1.0, 3.0)
        assert report.passed
        assert report.lower == pytest.approx(2.0)
        assert report.upper == pytest.approx(6.0)
        assert report.combined_norm == pytest.approx(4.0)

    def test_infinity_scale_is_one(self):
        report = bl.pnorm_power_check(3, math.inf, [1.0, 2.0, 2.0], 1.0, 2.0)
        assert report.passed
        assert report.scale == 1.0

    def test_precondition_violation_is_vacuous(self):
        report = bl.pnorm_power_check(2, 2.0, [0.5, 5.0], 1.0, 2.0)
        assert report.passed
        assert not report.precondition_ok
        assert "vacuous" in report.to_text()

    def test_block_count_mismatch(self):
        with pytest.raises(ValueError):
            bl.pnorm_power_check(3, 2.0, [1.0, 1.0], 1.0, 1.0)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, tolerance):
        with pytest.raises(InvalidArgumentError, match=f"^tolerance must be finite, got {tolerance}$"):
            bl.pnorm_power_check(2, 2.0, [1.0, 1.0], 1.0, 1.0, tolerance=tolerance)

    def test_randomized_sandwich(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            p = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
            lo = float(rng.uniform(0.1, 2.0))
            hi = lo + float(rng.uniform(0.0, 2.0))
            blocks = rng.uniform(lo, hi, size=n)
            report = bl.pnorm_power_check(n, p, blocks, lo, hi)
            assert report.passed, (n, p, lo, hi, blocks)


def _pair_loop_profile(f):
    """Per-pair minima and maxima by distance, then the monotone envelopes."""
    pts = f.domain.points()
    lo, hi = {}, {}
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            t = f.domain.distance(x, y)
            v = float(bl.lp_norm(f(y) - f(x), f.p))
            lo[t] = min(lo.get(t, v), v)
            hi[t] = max(hi.get(t, v), v)
    ts = sorted(lo)
    for a, b in zip(reversed(ts[:-1]), reversed(ts[1:])):
        lo[a] = min(lo[a], lo[b])
    for a, b in zip(ts, ts[1:]):
        hi[b] = max(hi[b], hi[a])
    return lo, hi


def _pair_loop_witnesses(f, rho_minus, rho_plus, tol):
    pts = f.domain.points()
    out = []
    for i, x in enumerate(pts):
        for y in pts[i:]:
            t = f.domain.distance(x, y)
            nrm = float(bl.lp_norm(f(y) - f(x), f.p))
            lo, hi = float(rho_minus[t]), float(rho_plus[t])
            if not lo - tol <= nrm <= hi + tol:
                out.append((x, y, t, nrm, lo, hi))
    return out


SANDWICH_MAPS = [
    ("linf", None),
    ("cycle", 2.0),
    ("torus", 1.0),
    ("torus", 3.0),
]


def _sandwich_map(space, kind, p):
    if kind == "linf":
        return bl.linf_embedding(space)
    if kind == "cycle":
        return bl.cycle_plane_embedding(space, p)
    return bl.torus_coordinate_embedding(space, p)


def _row_loop_profile(f):
    """Realized distances and envelopes from float64 differences, one row at a time."""
    dist = f.domain.distance_matrix()
    mat = f.matrix()
    low = np.full(int(dist.max()) + 1, np.inf)
    high = np.full(len(low), -np.inf)
    seen = np.zeros(len(low), dtype=bool)
    for i in range(len(mat) - 1):
        t = dist[i, i + 1 :]
        norms = bl.lp_norm(mat[i + 1 :] - mat[i], f.p, axis=1)
        np.minimum.at(low, t, norms)
        np.maximum.at(high, t, norms)
        seen[t] = True
    ts = np.flatnonzero(seen)
    return ts, np.minimum.accumulate(low[ts][::-1])[::-1], np.maximum.accumulate(high[ts])


def _row_loop_witnesses(f, rho_minus, rho_plus, tol):
    pts = f.domain.points()
    dist = f.domain.distance_matrix()
    mat = f.matrix()
    out = []
    for i in range(len(pts)):
        norms = bl.lp_norm(mat[i:] - mat[i], f.p, axis=1)
        for k, t in enumerate(dist[i, i:].tolist()):
            lo, hi = float(rho_minus[t]), float(rho_plus[t])
            if not lo - tol <= norms[k] <= hi + tol:  # a NaN norm is a violation
                out.append((pts[i], pts[i + k], t, float(norms[k]), lo, hi))
    return out


def _integer_table(top):
    """Random integers in [-top, top], both ends attained."""

    def build(space, rng):
        shape = (space.point_count(), 5)
        table = rng.integers(-top, top + 1, size=shape).astype(np.float64)
        table[0, 0], table[-1, -1] = top, -top
        return table

    return build


def _with_entries(*values):
    """A small integer table with ``values`` written into its first row."""

    def build(space, rng):
        table = rng.integers(-5, 6, size=(space.point_count(), 5)).astype(np.float64)
        table[0, : len(values)] = values
        return table

    return build


KERNEL_TABLES = [
    pytest.param(lambda space, rng: bl.linf_embedding(space).matrix(), np.int8, id="linf"),
    pytest.param(
        lambda space, rng: bl.torus_coordinate_embedding(space).matrix(), np.float64, id="torus"
    ),
    pytest.param(_integer_table(63), np.int8, id="int8-top"),
    pytest.param(_integer_table(64), np.int16, id="int16-bottom"),
    pytest.param(_integer_table(2**14 - 1), np.int16, id="int16-top"),
    pytest.param(_integer_table(2**14), np.int32, id="int32-bottom"),
    pytest.param(_integer_table(2**30 - 1), np.int32, id="int32-top"),
    pytest.param(_integer_table(2**30), np.float64, id="too-wide"),
    pytest.param(
        lambda space, rng: 10.0 * rng.standard_normal((space.point_count(), 5)),
        np.float64,
        id="fractional",
    ),
    pytest.param(_with_entries(np.nan), np.float64, id="nan"),
    pytest.param(_with_entries(np.inf, -np.inf), np.float64, id="inf"),
    pytest.param(
        lambda space, rng: np.where(rng.random((space.point_count(), 5)) < 0.5, -0.0, 3.0),
        np.int8,
        id="negative-zero",
    ),
]


class TestSandwichOracle:
    """Array sandwich checks against the per-pair and per-row loops they replace."""

    @pytest.mark.parametrize("kind, p", SANDWICH_MAPS)
    def test_profile_matches_pair_loop(self, make_chain, kind, p):
        space = bl.assemble_box_space(make_chain(4, 8, 16))
        f = _sandwich_map(space, kind, p)
        ctrl = bl.profile(f)
        lo, hi = _pair_loop_profile(f)
        assert sorted(ctrl.rho_minus) == sorted(lo) and sorted(ctrl.rho_plus) == sorted(hi)
        for got, want in ((ctrl.rho_minus, lo), (ctrl.rho_plus, hi)):
            for t in want:
                # the pair loop takes scalar roots; for p outside {1, 2, inf} they
                # may differ from numpy's array power in the last bit
                assert got[t] == pytest.approx(want[t], rel=1e-15, abs=0.0)
                if f.p in (1.0, 2.0, math.inf):
                    assert got[t] == want[t]

    @pytest.mark.parametrize("kind, p", SANDWICH_MAPS)
    def test_verify_coarse_matches_pair_loop(self, make_chain, kind, p):
        space = bl.assemble_box_space(make_chain(4, 8, 16))
        f = _sandwich_map(space, kind, p)
        ctrl = bl.profile(f)
        ts = range(space.diameter() + 1)
        # both envelopes pinched to just below the middle of the attained range
        lo = {t: 0.0 if t == 0 else 0.4995 * (ctrl.rho_minus[t] + ctrl.rho_plus[t]) for t in ts}
        hi = dict(lo)
        report = bl.verify_coarse(f, lo, hi, tolerance=1e-9)
        want = _pair_loop_witnesses(f, lo, hi, 1e-9)
        n = space.point_count()
        assert report.pair_count == n * (n + 1) // 2
        assert [w[:3] + w[4:] for w in report.witnesses] == [w[:3] + w[4:] for w in want]
        for got, exp in zip(report.witnesses, want):
            assert got[3] == pytest.approx(exp[3], rel=1e-15, abs=0.0)
            if f.p in (1.0, 2.0, math.inf):
                assert got[3] == exp[3]
        assert want and not report.passed

    @pytest.mark.parametrize("drop_minus, drop_plus", [({0}, set()), ({5}, {3}), (set(), {2, 7})])
    def test_missing_sample_names_first_in_pair_order(self, make_chain, drop_minus, drop_plus):
        space = bl.assemble_box_space(make_chain(4, 8))
        f = bl.linf_embedding(space)
        ts = range(space.diameter() + 1)
        lo = {t: float(t) for t in ts if t not in drop_minus}
        hi = {t: float(t) for t in ts if t not in drop_plus}
        pts = space.points()
        first = next(
            space.distance(x, y)
            for i, x in enumerate(pts)
            for y in pts[i:]
            if space.distance(x, y) in drop_minus | drop_plus
        )
        which = "rho_minus" if first in drop_minus else "rho_plus"
        message = rf"^{which} sample missing realized distance {first}$"
        with pytest.raises(ControlSampleError, match=message):
            bl.verify_coarse(f, lo, hi)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("build, dtype", KERNEL_TABLES)
    def test_matches_row_loop(self, make_chain, build, dtype, p):
        space = bl.assemble_box_space(make_chain(4, 8, 16))
        table = build(space, np.random.default_rng(7))
        f = bl.CoarseEmbeddingMap(space, p, table.shape[1], dict(zip(space.points(), table)))
        assert _difference_dtype(f.matrix()) == dtype
        with np.errstate(invalid="ignore"):  # inf - inf in the inf table
            ctrl = bl.profile(f)
            ts, lo, hi = _row_loop_profile(f)
            assert sorted(ctrl.rho_minus) == sorted(ctrl.rho_plus) == ts.tolist()
            assert np.array([ctrl.rho_minus[t] for t in ts]).tobytes() == lo.tobytes()
            assert np.array([ctrl.rho_plus[t] for t in ts]).tobytes() == hi.tobytes()
            # one envelope pinched below the middle of the attained range, kept finite
            mid = np.nan_to_num(0.4995 * (lo + hi), nan=0.0, posinf=0.0, neginf=0.0)
            pinched = {0: 0.0, **dict(zip(ts.tolist(), np.maximum.accumulate(mid).tolist()))}
            report = bl.verify_coarse(f, pinched, pinched)
            want = _row_loop_witnesses(f, pinched, pinched, 1e-9)
        assert want and not report.passed
        assert [w[:3] for w in report.witnesses] == [w[:3] for w in want]
        got_values = np.array([w[3:] for w in report.witnesses])
        assert got_values.tobytes() == np.array([w[3:] for w in want]).tobytes()

    def test_violation_on_integer_table_names_same_first_witness(self, make_chain):
        space = bl.assemble_box_space(make_chain(4, 8, 16))
        f = bl.linf_embedding(space)
        assert _difference_dtype(f.matrix()) == np.int8
        ts = range(space.diameter() + 1)
        lo = {t: float(t) for t in ts}
        hi = {t: float(max(t - 1, min(t, 2))) for t in ts}  # t - 1 from t = 3 on
        report = bl.verify_coarse(f, lo, hi)
        want = _pair_loop_witnesses(f, lo, hi, 1e-9)
        assert not report.passed and report.witnesses[0] == want[0]
