"""Box space assembly and the coarse-union metric."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import boxlab as bl
from boxlab.boxspace import BoxPoint, box_distance, format_point, parse_point
from boxlab.groups import MAX_POINTS
from conftest import dihedral_chain, sl2_chain_spec


def bfs_level_distance(q, a, b):
    images = [q.letter_image(l) for l in q.letters()]
    dist = {a: 0}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        if x == b:
            return dist[x]
        for img in images:
            y = q.mult(x, img)
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist[b]


def oracle_distance(space, x, y):
    """Recompute the metric from scratch: level BFS plus separation sums."""
    chain = space.chain
    if x.level == y.level:
        return bfs_level_distance(chain.levels[x.level], x.element, y.element)
    i, j = sorted((x.level, y.level))
    a = x if x.level == i else y
    b = y if y.level == j else x
    qi, qj = chain.levels[i], chain.levels[j]
    through = sum(space.separations[i:j])
    return (
        bfs_level_distance(qi, a.element, qi.identity)
        + through
        + bfs_level_distance(qj, qj.identity, b.element)
    )


def test_separations_single_gap(make_chain):
    space = bl.assemble_box_space(make_chain(4, 8))
    assert space.separations == (5,)


def test_separations_two_gaps(make_chain):
    space = bl.assemble_box_space(make_chain(2, 4, 8))
    assert space.separations == (3, 5)


def test_cross_level_distance_formula(make_chain):
    space = bl.assemble_box_space(make_chain(2, 4, 8))
    # L0:1 to L1:3: 1 + 3 + 1
    assert space.distance(BoxPoint(0, 1), BoxPoint(1, 3)) == 5
    # two points at identity cosets straddle exactly the separation
    assert space.distance(BoxPoint(0, 0), BoxPoint(1, 0)) == 3
    # skipping a level adds both separations and the middle is not visited
    assert space.distance(BoxPoint(0, 0), BoxPoint(2, 3)) == 3 + 5 + 3


def test_within_level_distance(make_chain):
    space = bl.assemble_box_space(make_chain(8))
    assert space.distance(BoxPoint(0, 0), BoxPoint(0, 5)) == 3


def test_matches_oracle_everywhere(dyadic_space):
    pts = dyadic_space.points()
    dist = dyadic_space.distance_matrix()
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            assert dist[i, j] == oracle_distance(dyadic_space, x, y)


def test_matrix_matches_scalar_distance(make_chain):
    space = bl.assemble_box_space(make_chain((2, 3), (4, 6), rank=2))
    pts = space.points()
    dist = space.distance_matrix()
    for i, x in enumerate(pts):
        assert dist[i].tolist() == [box_distance(space, x, y) for y in pts]


def test_metric_axioms_exhaustive(make_chain):
    for moduli in ((2, 4), (4, 8, 16), (3, 9)):
        space = bl.assemble_box_space(make_chain(*moduli))
        d = space.distance_matrix()
        n = len(d)
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        assert ((d > 0) | np.eye(n, dtype=bool)).all()
        for k in range(n):
            assert (d <= d[:, [k]] + d[[k], :]).all()


def test_separation_keeps_balls_single_level(make_chain):
    # any ball of radius below the smallest separation around a point stays
    # inside levels adjacent along the formula, never cheaper across
    space = bl.assemble_box_space(make_chain(4, 8, 16))
    d = space.distance_matrix()
    pts = space.points()
    min_sep = min(space.separations)
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            if d[i, j] < min_sep:
                assert x.level == y.level


def test_diameter(make_chain):
    space = bl.assemble_box_space(make_chain(4, 8, 16))
    assert space.diameter() == 2 + 5 + 9 + 8


def test_point_roundtrip(dyadic_space):
    for pt in dyadic_space.points():
        assert parse_point(format_point(pt)) == pt
    assert format_point(BoxPoint(1, 5)) == "L1:5"
    assert parse_point("L2:13") == BoxPoint(2, 13)


def test_parse_point_rejects_garbage():
    for text in ("", "L1", "1:5", "Lx:3", "L1:"):
        with pytest.raises(bl.SpecFormatError):
            parse_point(text)


def test_contains_and_index(dyadic_space):
    for i, pt in enumerate(dyadic_space.points()):
        assert dyadic_space.contains(pt)
        assert dyadic_space.point_index(pt) == i
    assert not dyadic_space.contains(BoxPoint(0, 99))
    assert not dyadic_space.contains(BoxPoint(9, 0))


@given(st.integers(0, 2), st.integers(0, 15), st.integers(0, 2), st.integers(0, 15))
@settings(max_examples=80, deadline=None)
def test_box_distance_function_agrees(i, a, j, b):
    chain = bl.build_chain(
        bl.AmbientGroup("free_abelian", 1),
        [bl.CyclicQuotient([4]), bl.CyclicQuotient([8]), bl.CyclicQuotient([16])],
    )
    space = bl.assemble_box_space(chain)
    x = BoxPoint(i, a % chain.levels[i].order)
    y = BoxPoint(j, b % chain.levels[j].order)
    idx, idy = space.point_index(x), space.point_index(y)
    assert box_distance(space, x, y) == space.distance_matrix()[idx, idy]


def _perfbench_sl2_chain():
    """The relabelled SL2(Z/3), SL2(Z/9) chain of the benchmark corpus at seed 1."""
    return bl.parse_chain(sl2_chain_spec(1))


def test_diameter_matches_matrix_on_test_chains(dyadic_chain, deep_chain, torus_chain, make_chain):
    chains = [
        dyadic_chain,
        deep_chain,
        torus_chain,
        make_chain(2, 4, 8),
        make_chain(12),
        make_chain(4, 12, rank=2),
        make_chain((2, 3), (4, 6), rank=2),
        dihedral_chain(),
        _perfbench_sl2_chain(),
    ]
    for chain in chains:
        space = bl.assemble_box_space(chain)
        diameter = space.diameter()
        assert space._matrix is None  # the closed form builds no matrix
        assert diameter == space.distance_matrix().max()


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_diameter_matches_matrix_on_cyclic_chains(data):
    rank = data.draw(st.integers(1, 3))
    levels = [data.draw(st.lists(st.integers(1, 4), min_size=rank, max_size=rank))]
    for _ in range(data.draw(st.integers(0, 2))):
        factors = data.draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank))
        levels.append([m * f for m, f in zip(levels[-1], factors)])
    # build_chain refuses chains above the point cap, tested where it is enforced
    assume(sum(math.prod(m) for m in levels) <= MAX_POINTS)
    ambient = bl.AmbientGroup("free_abelian", rank)
    chain = bl.build_chain(ambient, [bl.CyclicQuotient(m) for m in levels])
    space = bl.assemble_box_space(chain)
    assert space.diameter() == space.distance_matrix().max()


@pytest.mark.parametrize("block_entries", [25, 1 << 16])
def test_matrix_on_a_table_chain_matches_box_distance(monkeypatch, block_entries):
    # at 25 entries the 6-, 12- and 24-element levels fill 4, 2 and 1 rows at a
    # time, so the first level ends in a short block
    monkeypatch.setattr("boxlab.boxspace._BLOCK_ENTRIES", block_entries)
    space = bl.assemble_box_space(dihedral_chain((3, 6, 12)))
    mat = space.distance_matrix()
    assert mat.dtype == np.int32
    pts = space.points()
    assert mat.tolist() == [[box_distance(space, x, y) for y in pts] for x in pts]


def test_matrix_is_int32_on_every_kind(torus_chain):
    for chain in (_perfbench_sl2_chain(), torus_chain):
        assert bl.assemble_box_space(chain).distance_matrix().dtype == np.int32
