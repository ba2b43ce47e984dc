"""Norms, signed permutations, affine isometries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxlab as bl
from boxlab.lpspace import (
    AffineIsometry,
    IsometryStack,
    SignedPermutation,
    identity_isometry,
    lp_norm,
)

P_VALUES = [1.0, 1.5, 2.0, 3.0, math.inf]

coords = st.lists(
    st.floats(-1000, 1000, allow_nan=False, allow_infinity=False), min_size=1, max_size=8
)


@given(coords, st.sampled_from(P_VALUES))
@settings(max_examples=150, deadline=None)
def test_absolute_homogeneity(v, p):
    v = np.array(v)
    for c in (-2.5, 0.0, 3.0):
        assert abs(lp_norm(c * v, p) - abs(c) * lp_norm(v, p)) <= 1e-9 * max(
            1.0, lp_norm(v, p)
        )


@given(coords, coords, st.sampled_from(P_VALUES))
@settings(max_examples=150, deadline=None)
def test_triangle_inequality(a, b, p):
    n = min(len(a), len(b))
    a, b = np.array(a[:n]), np.array(b[:n])
    assert lp_norm(a + b, p) <= lp_norm(a, p) + lp_norm(b, p) + 1e-9


def test_norm_known_values():
    v = np.array([3.0, -4.0])
    assert lp_norm(v, 1) == 7.0
    assert lp_norm(v, 2) == 5.0
    assert lp_norm(v, math.inf) == 4.0
    assert lp_norm(np.zeros(3), 2) == 0.0


def test_norm_rejects_bad_exponent():
    with pytest.raises(ValueError):
        lp_norm(np.ones(2), 0.5)


def test_norm_axis():
    m = np.array([[1.0, -1.0], [2.0, 2.0]])
    assert np.allclose(lp_norm(m, 1, axis=1), [2.0, 4.0])


@pytest.mark.parametrize("p", P_VALUES)
def test_norm_of_no_rows_and_of_empty_rows(p):
    assert lp_norm(np.zeros((0, 3)), p, axis=1).shape == (0,)
    assert np.array_equal(lp_norm(np.zeros((2, 0)), p, axis=1), np.zeros(2))
    assert lp_norm(np.zeros(0), p) == 0.0


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint8, np.uint32])
@pytest.mark.parametrize("p", [1, math.inf])
def test_norm_of_narrow_integers_is_exact(dtype, p):
    info = np.iinfo(dtype)
    rows = np.array([[info.min, info.max, 1], [1, info.min, info.max]], dtype=dtype)
    magnitudes = [[abs(int(v)) for v in row] for row in rows.tolist()]
    want = [float(max(m) if math.isinf(p) else sum(m)) for m in magnitudes]
    got = lp_norm(rows, p, axis=1)
    assert got.dtype == np.float64 and got.tolist() == want
    assert lp_norm(rows[0], p) == want[0]
    assert lp_norm(np.zeros((0, 3), dtype), p, axis=1).shape == (0,)
    assert lp_norm(np.zeros((2, 0), dtype), p, axis=1).tolist() == [0.0, 0.0]


perm_strategy = st.permutations(range(5))
signs_strategy = st.lists(st.sampled_from([1, -1]), min_size=5, max_size=5)


@given(perm_strategy, signs_strategy, perm_strategy, signs_strategy)
@settings(max_examples=80, deadline=None)
def test_signed_permutation_algebra(p1, s1, p2, s2):
    a = SignedPermutation(np.array(p1), np.array(s1))
    b = SignedPermutation(np.array(p2), np.array(s2))
    v = np.arange(5, dtype=float) - 2.0
    # composition agrees with sequential application, exactly
    assert np.array_equal(a.compose(b).apply(v), a.apply(b.apply(v)))
    # inverse cancels, exactly
    assert np.array_equal(a.inverse().apply(a.apply(v)), v)
    assert a.compose(a.inverse()) == SignedPermutation.identity(5)


def test_signed_permutation_preserves_every_p():
    rng = np.random.default_rng(7)
    a = SignedPermutation(np.array([2, 0, 1, 3]), np.array([-1, 1, 1, -1]))
    for p in P_VALUES:
        for _ in range(20):
            v = rng.normal(size=4)
            assert abs(lp_norm(a.apply(v), p) - lp_norm(v, p)) <= 1e-12


def test_affine_composition_and_inverse():
    a = AffineIsometry(
        1.0,
        SignedPermutation(np.array([1, 0]), np.array([1, -1])),
        np.array([2.0, 0.5]),
    )
    b = AffineIsometry(
        1.0,
        SignedPermutation(np.array([0, 1]), np.array([-1, 1])),
        np.array([-1.0, 3.0]),
    )
    v = np.array([0.25, -4.0])
    assert np.allclose(a.compose(b).apply(v), a.apply(b.apply(v)), atol=1e-12)
    assert np.allclose(a.compose(a.inverse()).apply(v), v, atol=1e-12)
    assert a.compose(a.inverse()).close_to(identity_isometry(1.0, 2), 1e-12)


def test_affine_associativity():
    rng = np.random.default_rng(11)
    isos = []
    for _ in range(3):
        perm = rng.permutation(3)
        signs = rng.choice([1, -1], size=3)
        isos.append(AffineIsometry(2.0, SignedPermutation(perm, signs), rng.normal(size=3)))
    a, b, c = isos
    v = rng.normal(size=3)
    left = a.compose(b).compose(c).apply(v)
    right = a.compose(b.compose(c)).apply(v)
    assert np.allclose(left, right, atol=1e-12)


def test_translation_mismatch_detected():
    ident = identity_isometry(2.0, 2)
    shifted = AffineIsometry(2.0, SignedPermutation.identity(2), np.array([0.0, 1e-6]))
    assert not shifted.close_to(ident, 1e-9)
    assert shifted.close_to(ident, 1e-3)


def test_constructor_rejects_bad_values():
    with pytest.raises(ValueError):
        SignedPermutation([0, 0, 2], [1, 1, 1])
    with pytest.raises(ValueError):
        SignedPermutation([1, 0], [1, 0])
    with pytest.raises(ValueError):
        SignedPermutation([1, 0], [1, 1, 1])
    with pytest.raises(TypeError):
        AffineIsometry(2.0, np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        AffineIsometry(2.0, SignedPermutation.identity(2), np.zeros(3))
    with pytest.raises(ValueError):
        identity_isometry(2.0, 2).compose(identity_isometry(1.0, 2))


@st.composite
def isometry_rows(draw):
    dim = draw(st.integers(1, 6))
    count = draw(st.integers(1, 6))
    shift = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    isos = [
        AffineIsometry(
            2.0,
            SignedPermutation(
                draw(st.permutations(range(dim))),
                draw(st.lists(st.sampled_from([1, -1]), min_size=dim, max_size=dim)),
            ),
            draw(st.lists(shift, min_size=dim, max_size=dim)),
        )
        for _ in range(count)
    ]
    index = st.lists(st.integers(0, count - 1), min_size=1, max_size=12)
    a = draw(index)
    b = draw(st.lists(st.integers(0, count - 1), min_size=len(a), max_size=len(a)))
    base = draw(st.lists(st.integers(0, len(a) - 1), min_size=len(a), max_size=len(a)))
    return dim, isos, a, b, base


@given(isometry_rows(), st.sampled_from([0.0, 1e-9, 1e-3, 10.0]), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_stack_transitions_match_scalar_algebra(rows, tol, width):
    dim, isos, a, b, base = rows
    stack = IsometryStack.of(isos, dim)
    inverse = stack.inverse()
    trans = stack.after(inverse, np.array(a), np.array(b))
    scalar = [isos[i].compose(isos[j].inverse()) for i, j in zip(a, b)]

    def same_bits(rows, want):
        assert np.array_equal(rows.perm, want.linear.perm)
        assert np.array_equal(rows.signs, want.linear.signs)
        assert rows.translation.tobytes() == want.translation.tobytes()

    for k, want in enumerate(scalar):
        same_bits(IsometryStack(*(x[k] for x in trans)), want)
    # index arrays of shape (m, k), rows repeated: one composite per entry, in place
    grid = np.array(a * width).reshape(-1, width)
    other = np.array(b * width).reshape(-1, width)
    square = stack.after(stack, grid, other)
    assert square.perm.shape == (*grid.shape, dim)
    for (m, k), i in np.ndenumerate(grid):
        same_bits(IsometryStack(*(x[m, k] for x in square)), isos[i].compose(isos[other[m, k]]))
    # row comparison agrees with close_to, row by row
    differs = trans.differs(trans.take(np.array(base)), tol)
    assert differs.tolist() == [not scalar[k].close_to(scalar[m], tol) for k, m in enumerate(base)]
    # applying rows agrees with applying each isometry
    vectors = np.arange(len(isos) * dim, dtype=float).reshape(len(isos), dim) - 3.5
    moved = stack.apply(vectors)
    for k, iso in enumerate(isos):
        assert moved[k].tobytes() == iso.apply(vectors[k]).tobytes()


def test_empty_stack_has_the_space_dimension():
    stack = IsometryStack.of([], 3)
    assert stack.perm.shape == stack.signs.shape == stack.translation.shape == (0, 3)
