"""Spectral gaps of quotient levels."""

import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import boxlab as bl
from boxlab.spectral import (
    DENSE_LIMIT,
    _block_spectra,
    _cyclic_element,
    _spectrum,
    averaging_matrix,
    expander_scan,
    laplacian_gap,
)


def test_averaging_matrix_is_doubly_stochastic():
    q = bl.CyclicQuotient([7])
    A = averaging_matrix(q)
    assert np.allclose(A.sum(axis=0), 1.0)
    assert np.allclose(A.sum(axis=1), 1.0)
    assert np.allclose(A, A.T)


def _dihedral_spec(m):
    # the dihedral group of order 2m on itself; the reflection has order 2
    rot = [2 * ((i + 1) % m) + e for i in range(m) for e in range(2)]
    flip = [2 * (-i % m) + 1 - e for i in range(m) for e in range(2)]
    return {"kind": "permutation", "degree": 2 * m, "gens": [rot, flip], "base": 0}


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "cyclic", "moduli": [2]},
        {"kind": "cyclic", "moduli": [5, 2]},
        {"kind": "cyclic", "moduli": [1, 3]},
        _dihedral_spec(2),
        _dihedral_spec(5),
    ],
)
def test_averaging_matrix_matches_add_at(spec):
    # a generator of order 2 sends both of its letters to the same target
    q = bl.build_quotient(spec)
    perms = q.letter_perms()
    want = np.zeros((q.order, q.order))
    np.add.at(want, (np.arange(q.order), perms), 1.0)
    want /= len(perms)
    assert averaging_matrix(q).tobytes() == want.tobytes()


def test_cycle_gap_closed_form():
    for n in range(3, 65):
        q = bl.CyclicQuotient([n])
        expected = 1.0 - math.cos(2.0 * math.pi / n)
        assert laplacian_gap(q) == pytest.approx(expected, abs=1e-9), n


def test_four_cycle_spectrum():
    q = bl.CyclicQuotient([4])
    w = np.sort(np.linalg.eigvalsh(averaging_matrix(q)))
    assert np.allclose(w, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)
    assert laplacian_gap(q) == pytest.approx(1.0, abs=1e-12)


def test_three_cycle_gap():
    assert laplacian_gap(bl.CyclicQuotient([3])) == pytest.approx(1.5, abs=1e-12)


def test_two_cycle_gap():
    # the doubled edge gives the full bipartite spread
    assert laplacian_gap(bl.CyclicQuotient([2])) == pytest.approx(2.0, abs=1e-12)


def test_trivial_group_convention():
    assert laplacian_gap(bl.CyclicQuotient([1])) == 2.0


def test_relabeling_invariance():
    q = bl.CyclicQuotient([9])
    # conjugate the multiplication table by an arbitrary permutation
    rng = np.random.default_rng(5)
    sigma = rng.permutation(9)
    inv = np.argsort(sigma)
    table = [[int(sigma[q.mult(int(inv[a]), int(inv[b]))]) for b in range(9)] for a in range(9)]
    relabeled = bl.build_quotient(
        {
            "kind": "table",
            "mult": table,
            "identity": int(sigma[0]),
            "gen_images": [int(sigma[q.letter_image(1)])],
        }
    )
    assert laplacian_gap(relabeled) == pytest.approx(laplacian_gap(q), abs=1e-12)


def test_dense_limit_enforced():
    class Big:
        order = DENSE_LIMIT + 1

    with pytest.raises(ValueError):
        laplacian_gap(Big())


def test_one_point_cap():
    from boxlab import chainspec, groups, spectral

    assert chainspec.MAX_POINTS is groups.MAX_POINTS is spectral.DENSE_LIMIT


def test_scan_past_the_cap_raises():
    """A chain built by hand past the cap is refused loudly, not skipped."""
    ambient = bl.AmbientGroup("free_abelian", 1)
    chain = bl.GroupChain(ambient, [bl.CyclicQuotient([DENSE_LIMIT + 1])])
    with pytest.raises(ValueError, match="^order 4097 exceeds the dense eigensolve limit 4096$"):
        expander_scan(chain, 1e-3)


@pytest.mark.parametrize("fixture", ["dyadic_chain", "deep_chain", "torus_chain"])
def test_every_scan_row_holds_a_float_gap(request, fixture):
    chain = request.getfixturevalue(fixture)
    scan = expander_scan(chain, 1e-3)
    assert [row[:3] for row in scan.rows] == [
        (i, q.order, len(q.letters())) for i, q in enumerate(chain.levels)
    ]
    assert all(type(gap) is float for *_, gap in scan.rows)
    assert scan.notes == ["finite prefix only: the verdict covers the listed levels"]


def test_scan_of_cyclic_chain_collapses(deep_chain):
    scan = expander_scan(deep_chain, 0.05)
    assert not scan.verdict
    gaps = [gap for *_rest, gap in scan.rows]
    assert all(g is not None for g in gaps)
    # strictly shrinking once the cycles are long enough
    assert gaps == sorted(gaps, reverse=True)
    assert "FAIL" in scan.to_text()


def test_scan_passes_at_low_threshold(dyadic_chain):
    scan = expander_scan(dyadic_chain, 1e-4)
    assert scan.verdict
    assert [row[0] for row in scan.rows] == [0, 1, 2]
    assert [row[2] for row in scan.rows] == [2, 2, 2]


def test_torus_gaps_shrink(torus_chain):
    scan = expander_scan(torus_chain, 1e-9)
    gaps = [row[3] for row in scan.rows]
    assert gaps[0] > gaps[1] > gaps[2]
    # product structure: gap of the torus equals the gap of one factor halved
    one_factor = laplacian_gap(bl.CyclicQuotient([8]))
    assert gaps[1] == pytest.approx(one_factor / 2.0, abs=1e-9)


def test_scan_rejects_bad_threshold(dyadic_chain):
    with pytest.raises(ValueError):
        expander_scan(dyadic_chain, 0.0)


def test_gap_csv_layout(tmp_path, dyadic_chain):
    scan = expander_scan(dyadic_chain, 0.001)
    path = tmp_path / "gaps.csv"
    bl.write_gap_csv(scan, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "level,order,degree,gap"
    assert len(lines) == 5
    assert lines[-1].startswith("# verdict: PASS")
    assert lines[1].split(",")[:3] == ["0", "4", "2"]


def _sl2_level(k):
    """Level k of the relabelled SL2(Z/3), SL2(Z/9) chain of the benchmark corpus at seed 1."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return bl.build_quotient(corpus.sl2_chain(1)["levels"][k])


def _dihedral_by_involutions(m):
    # the dihedral group of order 2m marked by the flip and the flip after the rotation
    rot, flip = _dihedral_spec(m)["gens"]
    return {"kind": "permutation", "degree": 2 * m, "gens": [flip, [rot[x] for x in flip]], "base": 0}


# Z/1 is the trivial group and Z/2 the doubled edge
ORACLE_LEVELS = [
    *(pytest.param(lambda n=n: bl.CyclicQuotient([n]), id=f"Z{n}") for n in range(1, 65)),
    *(pytest.param(lambda m=m: bl.CyclicQuotient([m, m]), id=f"Z{m}^2") for m in (2, 4, 8, 16)),
    *(
        pytest.param(lambda m=m: bl.build_quotient(_dihedral_spec(m)), id=f"D{m}")
        for m in (3, 6, 12)
    ),
    pytest.param(lambda: _sl2_level(0), id="SL2(Z/3)"),
    pytest.param(lambda: _sl2_level(1), id="SL2(Z/9)"),
    pytest.param(lambda: bl.build_quotient(_dihedral_by_involutions(8)), id="D8-involutions"),
]


class TestBlockSpectra:
    """Character blocks over a cyclic subgroup against the dense eigensolve they replace."""

    @pytest.mark.parametrize("level", ORACLE_LEVELS)
    def test_union_matches_dense_eigvalsh(self, level):
        q = level()
        want = np.linalg.eigvalsh(averaging_matrix(q))
        got = _spectrum(q)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12
        if q.order > 1:
            assert abs(laplacian_gap(q) - (1.0 - want[-2])) <= 1e-12

    def test_cyclic_level_is_the_character_formula(self):
        q = bl.CyclicQuotient([12])
        assert _cyclic_element(q, q.letter_perms()) == (1, 12)
        w, m = _block_spectra(q)
        assert (m, w.shape) == (12, (7, 1))
        want = np.cos(2.0 * np.pi * np.arange(7) / 12)
        assert np.abs(w[:, 0] - want).max() <= 1e-15

    def test_largest_order_ties_go_to_the_smallest_element(self):
        # (Z/4)^2: the letters are 4, 12, 1 and 3; 1 is the least of order 4
        q = bl.CyclicQuotient([4, 4])
        assert _cyclic_element(q, q.letter_perms()) == (1, 4)

    def test_products_of_letters_are_candidates(self):
        # two reflections, whose products are rotations of order 8
        q = bl.build_quotient(_dihedral_by_involutions(8))
        assert [_order(q, g) for g in q.gen_images] == [2, 2]
        products = {q.mult(a, b) for a in q.gen_images for b in q.gen_images}
        want = min(g for g in products if _order(q, g) == 8)
        assert _cyclic_element(q, q.letter_perms()) == (want, 8)

    def test_sl2_blocks(self):
        w, m = _block_spectra(_sl2_level(1))
        assert (m, w.shape) == (12, (7, 54))

    def test_z4096_in_small_memory(self):
        q = bl.CyclicQuotient([4096])
        tracemalloc.start()
        try:
            gap = laplacian_gap(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(gap - 2.0 * math.sin(math.pi / 4096) ** 2) <= 1e-12
        # an m x n orbit table alone would take 134 MB
        assert peak < 16 * 2**20


def _order(q, g):
    """Order of ``g`` by scalar products."""
    x, n = g, 1
    while x != q.identity:
        x, n = q.mult(x, g), n + 1
    return n
