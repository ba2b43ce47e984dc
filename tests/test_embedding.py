"""Coarse embeddings, control profiles, p-norm combination."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxlab as bl
from boxlab.boxspace import BoxPoint, format_point
from boxlab import embedding
from boxlab.embedding import _difference_dtype, _isometric
from boxlab.errors import ControlSampleError, InvalidArgumentError
from conftest import (
    cyclic_chain, dihedral_chain, non_finite_controls, sl2_chain_spec, unchecked_map,
)


def single_level_space(make_chain, m):
    return bl.assemble_box_space(make_chain(m))


def _non_finite_table(space, data):
    """The linf table with NaN or +-inf at random entries, keyed in a random order,
    and the first point in ``points()`` order holding one."""
    mat = bl.linf_embedding(space).matrix().astype(np.float64)
    n, dim = mat.shape
    entries = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, dim - 1),
                st.sampled_from([math.nan, math.inf, -math.inf]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    for k, j, value in entries:
        mat[k, j] = value
    order = data.draw(st.permutations(range(n)))
    table = {space.points()[k]: mat[k] for k in order}
    return table, space.points()[min(k for k, _, _ in entries)]


class TestFiniteBoundary:
    """The public constructors refuse NaN and infinite entries, naming the first
    point; ``verify_coarse`` refuses controls that are not nondecreasing."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_embedding_table(self, dyadic_space, data):
        table, first = _non_finite_table(dyadic_space, data)
        message = rf"^vector at {format_point(first)} has a non-finite entry$"
        with pytest.raises(ValueError, match=message):
            bl.CoarseEmbeddingMap(dyadic_space, math.inf, len(table[first]), table)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_fibration_section(self, dyadic_space, data):
        section, first = _non_finite_table(dyadic_space, data)
        message = rf"^vector at {format_point(first)} has a non-finite entry$"
        with pytest.raises(ValueError, match=message):
            bl.FibredEmbedding(
                space=dyadic_space,
                p=math.inf,
                dim=len(section[first]),
                section=section,
                exclusion=lambda r: None,
                trivialization=lambda starts, members, r: None,
            )

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_non_finite_controls(self, dyadic_space, data):
        """``verify_coarse`` refuses non-monotone controls, or reports the loop's witnesses."""
        f = bl.linf_embedding(dyadic_space)
        lo, hi, monotone = non_finite_controls(data, dyadic_space.diameter())
        if not monotone:
            with pytest.raises(InvalidArgumentError, match="samples are not nondecreasing$"):
                bl.verify_coarse(f, lo, hi)
            return
        report = bl.verify_coarse(f, lo, hi)
        witnesses = _pair_loop_witnesses(f, lo, hi, 1e-9)
        assert repr(report.witnesses) == repr(witnesses)
        assert report.passed == (not witnesses)


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
        """Every pair at the NaN point has a NaN norm, and a NaN norm is a violation.

        The constructor refuses a NaN entry, so the table goes in unchecked.
        """
        f = bl.linf_embedding(dyadic_space)
        point = dyadic_space.points()[5]
        mat = f.matrix().astype(np.float64)
        mat[5, 0] = np.nan
        g = unchecked_map(dyadic_space, f.p, mat)
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

    @pytest.mark.parametrize("tolerance", [-1e-9, -1.0])
    def test_negative_tolerance_rejected(self, dyadic_space, tolerance):
        ident = bl.identity_controls(range(dyadic_space.diameter() + 1))
        with pytest.raises(InvalidArgumentError, match=f"^tolerance must not be negative, got {tolerance}$"):
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
        assert plane.matrix().tobytes() == torus.matrix().tobytes()
        for pt, v in zip(space.points(), plane.matrix()):
            angle = 2.0 * math.pi * pt.element / space.chain.levels[pt.level].moduli[0]
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

    @pytest.mark.parametrize(
        "build, dtype", [("linf", np.int8), ("torus", np.float64), ("table", np.float64)],
        ids=["linf", "torus", "table"],
    )
    def test_matrix_is_read_only_and_stacks_the_table(self, dyadic_space, build, dtype):
        # each map is held in its narrowest exact dtype
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
        assert mat.dtype == dtype and not mat.flags.writeable
        assert mat is f.matrix()
        # the matrix is the map's one form: no second copy keyed by point
        assert not any(isinstance(v, dict) for v in vars(f).values())
        for k, pt in enumerate(dyadic_space.points()):
            assert np.shares_memory(f(pt), mat) and f(pt).tobytes() == mat[k].tobytes()
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0
        with pytest.raises(ValueError):
            f(dyadic_space.points()[0])[0] = 1.0
        with pytest.raises(ValueError, match="^L3:0 is not a point of the space$"):
            f(bl.BoxPoint(3, 0))

    def test_table_is_copied(self, dyadic_space):
        table = {pt: np.zeros(1) for pt in dyadic_space.points()}
        f = bl.CoarseEmbeddingMap(dyadic_space, 1.0, 1, table)
        table[dyadic_space.points()[0]][0] = 5.0
        assert f.matrix().tolist() == [[0.0]] * dyadic_space.point_count()

    def test_matrix_is_held_without_a_copy(self, dyadic_space):
        mat = bl.linf_embedding(dyadic_space).matrix().copy()
        f = bl.CoarseEmbeddingMap(dyadic_space, math.inf, mat.shape[1], mat)
        # read-only for the map, and still writeable for its owner
        assert np.shares_memory(f.matrix(), mat) and not f.matrix().flags.writeable
        assert mat.flags.writeable
        assert all(np.shares_memory(f(pt), mat) for pt in dyadic_space.points())
        # a mapping with the same rows, in any order, gives an equal matrix of its own
        rows = dict(zip(dyadic_space.points(), mat.copy()))
        g = bl.CoarseEmbeddingMap(dyadic_space, math.inf, mat.shape[1], dict(reversed(rows.items())))
        assert g.matrix().tobytes() == f.matrix().tobytes()
        assert not np.shares_memory(g.matrix(), mat)

    @pytest.mark.parametrize("wide", [np.int64, np.float64, np.float32])
    def test_matrix_is_narrowed_once(self, dyadic_space, wide):
        """An integer-valued matrix of any dtype is held as linf's int8 matrix;
        an integer one needs no finiteness check and no float64 copy."""
        linf = bl.linf_embedding(dyadic_space).matrix()
        f = bl.CoarseEmbeddingMap(dyadic_space, math.inf, linf.shape[1], linf.astype(wide))
        assert f.matrix().dtype == np.int8
        assert f.matrix().tobytes() == linf.tobytes()

    @pytest.mark.parametrize(
        "faults, message",
        [
            ({5: "missing", 9: "shape"}, "table missing point {5}"),
            ({5: "shape", 9: "missing"}, r"vector at {5} has shape \(3,\), expected \(28,\)"),
            ({5: "nan", 9: "inf"}, "vector at {5} has a non-finite entry"),
            ({5: "nan", 9: "shape"}, r"vector at {9} has shape \(3,\), expected \(28,\)"),
        ],
        ids=["missing-then-shape", "shape-then-missing", "nan-then-inf", "nan-then-shape"],
    )
    def test_table_refusal_names_the_first_point(self, dyadic_space, faults, message):
        """Missing points and shapes are read in one pass over ``points()``, then finiteness."""
        pts = dyadic_space.points()
        table = dict(zip(pts, bl.linf_embedding(dyadic_space).matrix()))
        # the later fault is inserted first, so the mapping's own order would name it
        for k, fault in sorted(faults.items(), reverse=True):
            v = table.pop(pts[k])
            if fault != "missing":
                table = {pts[k]: {"shape": v[:3], "nan": v + np.nan, "inf": v + np.inf}[fault],
                         **table}
        message = message.format(*(format_point(pt) for pt in pts))
        with pytest.raises(ValueError, match=f"^{message}$"):
            bl.CoarseEmbeddingMap(dyadic_space, math.inf, 28, table)

    @pytest.mark.parametrize("table", [{}, "short"], ids=["empty", "short"])
    def test_table_refused_before_its_matrix(self, dyadic_space, table):
        """A dimension of 10^11 would be a matrix of 22 TB; the first point is
        refused before any is allocated."""
        first = dyadic_space.points()[0]
        if table == "short":
            table = {first: np.zeros(3)}
            message = rf"^vector at {format_point(first)} has shape \(3,\), expected \(10+,\)$"
        else:
            message = f"^table missing point {format_point(first)}$"
        with pytest.raises(ValueError, match=message):
            bl.CoarseEmbeddingMap(dyadic_space, math.inf, 10**11, table)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("columns", r"matrix has shape \(28, 27\), expected \(28, 28\)"),
            ("rows", r"matrix has shape \(27, 28\), expected \(28, 28\)"),
            ("inf", "vector at {3} has a non-finite entry"),
        ],
        ids=["columns", "rows", "inf"],
    )
    def test_matrix_refusal_names_the_first_point(self, dyadic_space, fault, message):
        pts = dyadic_space.points()
        mat = bl.linf_embedding(dyadic_space).matrix().astype(np.float64)
        mat[[9, 3], [1, 20]] = [np.nan, np.inf]
        mat = {"columns": mat[:, 1:], "rows": mat[1:], "inf": mat}[fault]
        message = message.format(*(format_point(pt) for pt in pts))
        with pytest.raises(ValueError, match=f"^{message}$"):
            bl.CoarseEmbeddingMap(dyadic_space, math.inf, 28, mat)


def _old_difference_dtype(mat):
    """The narrowest exact difference dtype, as first written: through |mat| and
    floor(mat), and float64 for a table holding a -0.0."""
    top = float(np.abs(mat).max(initial=0.0))
    if not math.isfinite(top) or not (mat == np.floor(mat)).all():
        return np.dtype(np.float64)
    if (np.signbit(mat) & (mat == 0)).any():
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
            want = _old_difference_dtype(mat)
            assert _difference_dtype(mat) == want
        if want.kind == "i":
            # an integer table is read through its extremes alone, to the same dtype
            for dtype in (np.int64, want):
                assert _difference_dtype(mat.astype(dtype)) == want

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
            # an integer would print the -0.0 as 0
            ([-0.0, 2.0], np.float64),
            ([], np.int8),
            ([0.0, 2.0], np.int8),
        ],
    )
    def test_edges(self, values, dtype):
        mat = np.array(values, dtype=np.float64).reshape(1, -1)
        assert _difference_dtype(mat) == _old_difference_dtype(mat) == dtype

    @pytest.mark.parametrize(
        "values, dtype",
        [
            (np.array([0, -64], dtype=np.int8), np.int16),
            (np.array([127, 0], dtype=np.int8), np.int16),
            (np.array([63, -63], dtype=np.int8), np.int8),
            (np.array([255], dtype=np.uint8), np.int16),
            (np.array([2**30 - 1], dtype=np.int32), np.int32),
            (np.array([-(2**30)], dtype=np.int32), np.float64),
            (np.array([2**62], dtype=np.int64), np.float64),
        ],
    )
    def test_integer_edges(self, values, dtype):
        assert _difference_dtype(values.reshape(1, -1)) == dtype


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

    @pytest.mark.parametrize("tolerance", [-1e-9, -1.0])
    def test_negative_tolerance_rejected(self, tolerance):
        with pytest.raises(InvalidArgumentError, match=f"^tolerance must not be negative, got {tolerance}$"):
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


def _kernel_map(space, p, table):
    """A map over a fresh copy of ``table``, unchecked since the constructor
    refuses the NaN and infinite tables."""
    return unchecked_map(space, p, np.array(table, dtype=np.float64))


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
    # an integer-valued table holding a -0.0 stays float64, which keeps its sign
    pytest.param(
        lambda space, rng: np.where(rng.random((space.point_count(), 5)) < 0.5, -0.0, 3.0),
        np.float64,
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
        f = _kernel_map(space, p, table)
        assert f.matrix().dtype == dtype
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

    @pytest.mark.parametrize("block_entries", [1, 50])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("build, dtype", KERNEL_TABLES)
    def test_profile_chunks_match_row_loop(self, monkeypatch, make_chain, build, dtype, p, block_entries):
        # a buffer of one row (27 pairs at most) or of about 50 pairs: each
        # chunk ends on a row boundary and the last one is short
        monkeypatch.setattr("boxlab.embedding._BLOCK_ENTRIES", block_entries)
        space = bl.assemble_box_space(make_chain(4, 8, 16))
        table = build(space, np.random.default_rng(11))
        f = _kernel_map(space, p, table)
        with np.errstate(invalid="ignore"):  # inf - inf in the inf table
            ctrl = bl.profile(f)
            ts, lo, hi = _row_loop_profile(f)
        assert sorted(ctrl.rho_minus) == sorted(ctrl.rho_plus) == ts.tolist()
        assert np.array([ctrl.rho_minus[t] for t in ts]).tobytes() == lo.tobytes()
        assert np.array([ctrl.rho_plus[t] for t in ts]).tobytes() == hi.tobytes()

    def test_violation_on_integer_table_names_same_first_witness(self, make_chain):
        space = bl.assemble_box_space(make_chain(4, 8, 16))
        f = bl.linf_embedding(space)
        assert f.matrix().dtype == np.int8
        ts = range(space.diameter() + 1)
        lo = {t: float(t) for t in ts}
        hi = {t: float(max(t - 1, min(t, 2))) for t in ts}  # t - 1 from t = 3 on
        report = bl.verify_coarse(f, lo, hi)
        want = _pair_loop_witnesses(f, lo, hi, 1e-9)
        assert not report.passed and report.witnesses[0] == want[0]


@functools.lru_cache(maxsize=None)
def _space(name):
    """Box spaces of the certificate tests, built once: their levels are cyclic,
    products of two cyclic groups, SL2 and dihedral, given as tables and as
    permutation actions."""
    if name.startswith("sl2-"):
        return bl.assemble_box_space(bl.parse_chain(sl2_chain_spec(int(name[4:]))))
    chains = {
        "cyclic": lambda: cyclic_chain(4, 8, 16),
        "small": lambda: cyclic_chain(2, 6, 30),
        "torus": lambda: cyclic_chain(4, 8, 16, rank=2),
        "dihedral": lambda: dihedral_chain((3, 6, 12)),
        "z8": lambda: cyclic_chain(8),
        "line": lambda: cyclic_chain(*(2**k for k in range(6, 11))),
        "z2048": lambda: cyclic_chain(2048),
    }
    return bl.assemble_box_space(chains[name]())


def _certified(f):
    return _isometric(f)


def _assert_profile_is(ctrl, f):
    """``ctrl`` is the row loop's profile of ``f``, bit for bit."""
    ts, lo, hi = _row_loop_profile(f)
    assert sorted(ctrl.rho_minus) == sorted(ctrl.rho_plus) == ts.tolist()
    assert np.array([ctrl.rho_minus[t] for t in ts]).tobytes() == lo.tobytes()
    assert np.array([ctrl.rho_plus[t] for t in ts]).tobytes() == hi.tobytes()


def _stretched_join(space):
    """linf and one more column, 0 on level 0 and s_0 + 1 above it: it steps past
    the first join's length, and each point is still covered by its own linf column."""
    step = np.where(np.arange(space.point_count()) < space.chain.levels[0].order, 0.0, 1.0)
    return np.column_stack([bl.linf_embedding(space).matrix(), (space.separations[0] + 1) * step])


CERTIFIED = ["cyclic", "small", "torus", "sl2-1", "sl2-2", "sl2-3", "dihedral"]


class TestLeftInvariantProfile:
    """``profile`` answers t at every realized distance t for a map that
    ``_isometric`` certifies on the box graph's edges, and sweeps all pairs of
    any other map; the row and pair loops, which sweep every pair, are the
    oracles."""

    @pytest.mark.parametrize("name", CERTIFIED)
    def test_linf_is_certified_on_every_level(self, name):
        f = bl.linf_embedding(_space(name))
        assert _certified(f)
        ctrl = bl.profile(f)
        _assert_profile_is(ctrl, f)
        if f.domain.point_count() <= 64:
            lo, hi = _pair_loop_profile(f)
            assert (ctrl.rho_minus, ctrl.rho_plus) == (lo, hi)

    @pytest.mark.parametrize("name", ["line", "z2048"])
    def test_linf_is_certified_at_the_point_cap(self, name):
        # too large for the loops: linf is an isometry, so the profile is t at
        # each distance the matrix holds off its diagonal
        f = bl.linf_embedding(_space(name))
        assert _certified(f)
        realized = np.unique(f.domain.distance_matrix())[1:].tolist()
        identity = {t: float(t) for t in realized}
        ctrl = bl.profile(f)
        assert (ctrl.rho_minus, ctrl.rho_plus) == (identity, identity)

    @pytest.mark.parametrize("name", CERTIFIED)
    def test_signed_shifted_permuted_columns_stay_certified(self, name):
        # every column negated or not, shifted by a constant, and the columns
        # permuted: the same norms, so the same profile as linf's
        space = _space(name)
        linf = bl.linf_embedding(space)
        rng = np.random.default_rng(3)
        dim = linf.dim
        signs = rng.choice([-1.0, 1.0], size=dim)
        shifts = rng.integers(-9, 10, size=dim).astype(np.float64)
        table = signs * linf.matrix()[:, rng.permutation(dim)] + shifts
        f = bl.CoarseEmbeddingMap(space, math.inf, dim, dict(zip(space.points(), table)))
        assert f.matrix().dtype.kind == "i"
        assert _certified(f)
        ctrl = bl.profile(f)
        _assert_profile_is(ctrl, f)
        assert ctrl == bl.profile(linf)

    @pytest.mark.parametrize("point", [0, 5, 13])
    def test_one_changed_entry_is_refused(self, monkeypatch, point):
        # a point of Z/8 (the identity, or not) moved by one in its own level's
        # column: the whole map sweeps every pair, and the profile moves with it
        space = _space("cyclic")
        linf = bl.linf_embedding(space)
        table = linf.matrix().copy()
        table[4 + point % 8, 4 + 3] += 1
        f = _kernel_map(space, math.inf, table)
        assert not _certified(f)
        spans = []
        sweep = embedding._pair_norms

        def spy(f, pairs):
            spans.extend(pairs)
            return sweep(f, pairs)

        monkeypatch.setattr(embedding, "_pair_norms", spy)
        ctrl = bl.profile(f)
        n = space.point_count()
        assert spans == [(i, i + 1, n) for i in range(n - 1)]
        _assert_profile_is(ctrl, f)
        assert ctrl != bl.profile(linf)

    @pytest.mark.parametrize(
        "name, build",
        [
            ("cyclic", lambda s: 2.0 * bl.linf_embedding(s).matrix()),
            ("sl2-1", lambda s: 2.0 * bl.linf_embedding(s).matrix()),
            ("cyclic", _stretched_join),
        ],
        ids=["doubled-cyclic", "doubled-sl2", "stretched-join"],
    )
    def test_stretched_maps_are_refused(self, name, build):
        space = _space(name)
        f = _kernel_map(space, math.inf, build(space))
        assert not _certified(f)
        ctrl = bl.profile(f)
        _assert_profile_is(ctrl, f)
        assert ctrl != bl.profile(bl.linf_embedding(space))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_single_entry_corruption_matches_oracle(self, data):
        # on these chains of two or three levels no linf column has a single
        # local maximum, so no negated column covers the point the corrupted
        # column leaves uncovered
        space = _space(data.draw(st.sampled_from(["cyclic", "torus", "dihedral", "sl2-1"])))
        table = bl.linf_embedding(space).matrix().copy()
        k = data.draw(st.integers(0, len(table) - 1))
        j = data.draw(st.integers(0, table.shape[1] - 1))
        table[k, j] += data.draw(st.sampled_from([-3.0, -1.0, 1.0, 2.0]))
        f = _kernel_map(space, math.inf, table)
        assert not _certified(f)
        _assert_profile_is(bl.profile(f), f)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_certificate_is_sound(self, data):
        # linf under random +-1 edits: whatever the certificate accepts, the
        # pair loop finds isometric (on Z/8 some edited maps are accepted)
        space = _space(data.draw(st.sampled_from(["z8", "cyclic", "small", "dihedral"])))
        table = bl.linf_embedding(space).matrix().copy()
        n = len(table)
        edits = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([-1, 1])),
                max_size=4,
            )
        )
        for k, j, step in edits:
            table[k, j] += step
        f = _kernel_map(space, math.inf, table)
        if _certified(f):
            lo, hi = _pair_loop_profile(f)
            assert lo == hi == {t: float(t) for t in lo}

    @pytest.mark.parametrize(
        "name, build, p",
        [
            ("torus", lambda s: bl.torus_coordinate_embedding(s, 2.0).matrix(), math.inf),
            ("cyclic", lambda s: bl.cycle_plane_embedding(s, 2.0).matrix(), 2.0),
            ("cyclic", lambda s: bl.linf_embedding(s).matrix() + 0.5, math.inf),
            ("cyclic", lambda s: bl.linf_embedding(s).matrix(), 1.0),
            ("sl2-1", lambda s: bl.linf_embedding(s).matrix(), 1.0),
            ("torus", lambda s: bl.linf_embedding(s).matrix(), 2.0),
        ],
        ids=["torus-float", "cycle-plane", "fractional-linf", "int-p1", "sl2-p1", "int-p2"],
    )
    def test_ungated_maps_never_certify(self, monkeypatch, name, build, p):
        space = _space(name)
        f = _kernel_map(space, p, build(space))

        def refuse(*args):
            raise AssertionError("the certificate ran")

        monkeypatch.setattr(embedding, "_isometric", refuse)
        _assert_profile_is(bl.profile(f), f)

    @pytest.mark.parametrize("name", ["sl2-1", "sl2-2", "sl2-3", "line"])
    def test_linf_sweeps_no_pair(self, monkeypatch, name):
        def refuse(*args):
            raise AssertionError("profile swept pairs")

        monkeypatch.setattr(embedding, "_pair_norms", refuse)
        ctrl = bl.profile(bl.linf_embedding(_space(name)))
        assert all(ctrl.rho_minus[t] == ctrl.rho_plus[t] == t for t in ctrl.realized_distances())

    @pytest.mark.parametrize("name", ["line", "z2048"])
    def test_peak_memory_stays_within_the_sweep(self, name):
        # beyond the cached box metric: linf's int16 matrix, written straight
        # from it (8 MiB on Z/2048, where a float64 one would be 32 MiB), and
        # the certificate's blocks of columns; no pair is swept
        space = bl.assemble_box_space(_space(name).chain)
        space.distance_matrix()
        tracemalloc.start()
        try:
            f = bl.linf_embedding(space)
            ctrl = bl.profile(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.matrix().dtype == np.int16
        assert peak <= 12 << 20
        assert all(ctrl.rho_minus[t] == ctrl.rho_plus[t] == t for t in ctrl.realized_distances())


def _failing_controls(diameter, minus_at, plus_at):
    """Identity controls on 0..diameter, nondecreasing, failing an isometry at
    chosen distances: rho_minus is t + 1/2 at ``minus_at``, rho_plus t - 1/2
    at ``plus_at``."""
    ts = range(diameter + 1)
    lo = {t: t + 0.5 if t in minus_at else float(t) for t in ts}
    hi = {t: t - 0.5 if t in plus_at else float(t) for t in ts}
    return lo, hi


def _swept(f, lo, hi, **kwargs):
    """``verify_coarse`` with the certificate refused, and none kept on ``f``: the
    sweep of all pairs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embedding, "_certified", lambda f: False)
        return bl.verify_coarse(f, lo, hi, **kwargs)


def _recording_sweep(patch):
    """Spy on ``_pair_norms``: the spans it is asked for, in order."""
    spans = []
    sweep = embedding._pair_norms

    def spy(f, pairs):
        spans.extend(pairs)
        return sweep(f, pairs)

    patch.setattr(embedding, "_pair_norms", spy)
    return spans


class TestCertifiedSandwich:
    """``verify_coarse`` reads the norms of a map that ``_isometric`` certifies
    from its distances and sweeps no pair; the sweep, with the certificate
    refused, and the row loop are the oracles."""

    @pytest.mark.parametrize("name", CERTIFIED)
    def test_linf_matches_the_sweep(self, monkeypatch, name):
        space = _space(name)
        f = bl.linf_embedding(space)
        d = space.diameter()
        chosen = {1, d // 3, d // 2, d}
        lo, hi = _failing_controls(d, minus_at={1, d // 2}, plus_at={d // 3, d})
        want = _swept(f, lo, hi, tolerance=0.0)
        spans = _recording_sweep(monkeypatch)
        got = bl.verify_coarse(f, lo, hi, tolerance=0.0)
        assert spans == []
        assert got == want and not got.passed
        n = space.point_count()
        assert got.pair_count == n * (n + 1) // 2
        realized = set(np.unique(space.distance_matrix()).tolist())
        assert {w[2] for w in got.witnesses} == chosen & realized
        assert all(w[3] == w[2] for w in got.witnesses)

    @pytest.mark.parametrize("name", ["cyclic", "sl2-2", "z2048"])
    def test_identity_controls_pass_without_a_sweep(self, monkeypatch, name):
        space = _space(name)
        f = bl.linf_embedding(space)
        ident = bl.identity_controls(range(space.diameter() + 1))
        spans = _recording_sweep(monkeypatch)
        report = bl.verify_coarse(f, ident.rho_minus, ident.rho_plus)
        n = space.point_count()
        assert spans == []
        assert report.passed and report.witnesses == []
        assert report.pair_count == n * (n + 1) // 2
        if n <= 500:
            assert report == _swept(f, ident.rho_minus, ident.rho_plus)

    @pytest.mark.parametrize("name", ["cyclic", "sl2-1", "z2048"])
    def test_a_map_is_certified_once(self, monkeypatch, name):
        # the matrix is read-only, so the verdict of the first use is kept on the map
        calls = []
        certify = embedding._isometric

        def spy(f):
            calls.append(f)
            return certify(f)

        monkeypatch.setattr(embedding, "_isometric", spy)
        space = _space(name)
        f = bl.linf_embedding(space)
        ctrl = bl.profile(f)
        report = bl.verify_coarse(f, ctrl.rho_minus | {0: 0.0}, ctrl.rho_plus | {0: 0.0})
        assert calls == [f] and report.passed
        bl.profile(bl.linf_embedding(space))
        assert len(calls) == 2

    @pytest.mark.parametrize("drop_minus, drop_plus", [({3}, set()), (set(), {2}), ({7}, {5})])
    def test_missing_sample_is_named_as_the_sweep_names_it(self, drop_minus, drop_plus):
        space = _space("torus")
        f = bl.linf_embedding(space)
        lo, hi = _failing_controls(space.diameter(), minus_at={4}, plus_at=set())
        lo = {t: v for t, v in lo.items() if t not in drop_minus}
        hi = {t: v for t, v in hi.items() if t not in drop_plus}
        with pytest.raises(ControlSampleError) as want:
            _swept(f, lo, hi)
        with pytest.raises(ControlSampleError) as got:
            bl.verify_coarse(f, lo, hi)
        assert str(got.value) == str(want.value)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_single_entry_corruption_falls_back_to_the_sweep(self, data):
        # on these chains a single changed linf entry is never certified
        # (see TestLeftInvariantProfile), so every pair is swept
        space = _space(data.draw(st.sampled_from(["cyclic", "dihedral", "sl2-1"])))
        table = bl.linf_embedding(space).matrix().copy()
        k = data.draw(st.integers(0, len(table) - 1))
        j = data.draw(st.integers(0, table.shape[1] - 1))
        table[k, j] += data.draw(st.sampled_from([-3.0, -1.0, 1.0, 2.0]))
        f = _kernel_map(space, math.inf, table)
        assert not _certified(f)
        d = space.diameter()
        lo, hi = _failing_controls(d, minus_at={d // 2}, plus_at={d})
        with pytest.MonkeyPatch.context() as patch:
            spans = _recording_sweep(patch)
            report = bl.verify_coarse(f, lo, hi)
        n = space.point_count()
        assert spans == [(i, i, n) for i in range(n)]
        assert report.witnesses == _row_loop_witnesses(f, lo, hi, 1e-9)
        assert report.pair_count == n * (n + 1) // 2
