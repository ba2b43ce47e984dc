"""Word metrics, quotient chains, isometry radii."""

import importlib.util
import itertools
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxlab as bl
from boxlab.errors import (
    ChainExhaustedError,
    ChainValidationError,
    InvalidGroupError,
    NonStabilizedLengthError,
)
from boxlab.groups import (
    _next_sphere,
    _quotient_from_permutations,
    _validate_connecting_map,
    ambient_from_letters,
    ambient_identity,
    ambient_mult,
    ambient_sphere,
    ambient_word_length,
    project_to_level,
    reduce_word,
)


def bfs_distances(quotient, start=None) -> dict[int, int]:
    """Independent breadth-first oracle over the letter graph, from the identity by default."""
    images = [quotient.letter_image(l) for l in quotient.letters()]
    start = quotient.identity if start is None else start
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for img in images:
            y = quotient.mult(x, img)
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def radius_oracle_cyclic(m: int) -> int:
    """Largest D preserving all ambient distances <= D, plus one, for Z -> Z/m."""
    q = bl.CyclicQuotient([m])
    dist = bfs_distances(q)
    D = 0
    while all(dist[n % m] == n for n in range(0, D + 2)):
        D += 1
    return D + 1


class TestQuotientMetric:
    def test_cyclic_distances_match_bfs(self):
        for m in (2, 3, 6, 12, 17):
            q = bl.CyclicQuotient([m])
            oracle = bfs_distances(q)
            for x in q.elements():
                assert q.cayley_distance(0, x) == oracle[x]

    def test_cyclic_known_values(self):
        q6 = bl.CyclicQuotient([6])
        assert q6.cayley_distance(0, 3) == 3
        q12 = bl.CyclicQuotient([12])
        assert q12.cayley_distance(0, 7) == 5
        assert q12.diameter() == 6

    def test_torus_diameter(self):
        q = bl.CyclicQuotient([4, 4])
        assert q.diameter() == 4
        oracle = bfs_distances(q)
        assert max(oracle.values()) == 4

    def test_left_invariance_exhaustive(self):
        q = bl.CyclicQuotient([3, 5])
        for g in q.elements():
            for x in q.elements():
                for y in q.elements():
                    assert q.cayley_distance(x, y) == q.cayley_distance(
                        q.mult(g, x), q.mult(g, y)
                    )

    @given(st.integers(2, 40), st.integers(0, 39), st.integers(0, 39))
    @settings(max_examples=60, deadline=None)
    def test_cyclic_closed_form(self, m, a, b):
        a, b = a % m, b % m
        q = bl.CyclicQuotient([m])
        gap = abs(a - b)
        assert q.cayley_distance(a, b) == min(gap, m - gap)

    def test_metric_axioms(self):
        q = bl.CyclicQuotient([2, 4])
        n = q.order
        d = np.array([[q.cayley_distance(x, y) for y in range(n)] for x in range(n)])
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        assert ((d > 0) | np.eye(n, dtype=bool)).all()
        for k in range(n):
            assert (d <= d[:, [k]] + d[[k], :]).all()

    def test_canonical_word_is_geodesic(self):
        q = bl.CyclicQuotient([9])
        for x in q.elements():
            word = q.canonical_word(x)
            assert len(word) == q.cayley_distance(0, x)
            assert q.evaluate_word(word) == x


class TestQuotientConstruction:
    def test_table_quotient_roundtrip(self):
        m = 5
        table = [[(a + b) % m for b in range(m)] for a in range(m)]
        q = bl.build_quotient({"kind": "table", "mult": table, "identity": 0, "gen_images": [1]})
        assert q.order == m
        assert q.cayley_distance(0, 2) == 2

    def test_permutation_quotient(self):
        # C_4 as a cyclic shift on 4 symbols
        q = bl.build_quotient(
            {"kind": "permutation", "degree": 4, "gens": [[1, 2, 3, 0]], "base": 0}
        )
        assert q.order == 4
        assert q.diameter() == 2

    def test_rejects_nongenerating_marking(self):
        table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        with pytest.raises(InvalidGroupError):
            bl.build_quotient(
                {"kind": "table", "mult": table, "identity": 0, "gen_images": [2]}
            )

    def test_rejects_bad_table(self):
        with pytest.raises(InvalidGroupError):
            bl.build_quotient(
                {"kind": "table", "mult": [[0, 1], [1, 1]], "identity": 0, "gen_images": [1]}
            )

    def test_trivial_quotient(self):
        q = bl.CyclicQuotient([1])
        assert q.order == 1
        assert q.diameter() == 0


class TestAmbientOps:
    def test_free_reduction(self):
        assert reduce_word((1, 2, -2, -1)) == ()
        assert len(reduce_word((1, 2, -1))) == 3

    def test_free_word_length(self):
        chain = bl.build_chain(
            bl.AmbientGroup("free", 2), [bl.CyclicQuotient([2, 2])]
        )
        assert ambient_word_length(chain, (1, 2, -1)) == 3

    def test_abelian_word_length_vs_bfs(self):
        chain = bl.build_chain(
            bl.AmbientGroup("free_abelian", 2), [bl.CyclicQuotient([64, 64])]
        )
        q = chain.levels[0]
        oracle = bfs_distances(q)
        for vec in ((3, -2), (0, 5), (-4, -4), (1, 0)):
            x = project_to_level(chain, vec, 0)
            assert ambient_word_length(chain, vec) == oracle[x]
        assert ambient_word_length(chain, (3, -2)) == 5

    def test_group_laws(self):
        chain = bl.build_chain(
            bl.AmbientGroup("free_abelian", 2), [bl.CyclicQuotient([4, 4])]
        )
        e = ambient_identity(chain)
        g, h = (2, -1), (-3, 4)
        assert ambient_mult(chain, e, h) == h
        assert ambient_from_letters(chain, (1, 1, -2)) == (2, -1)

    def test_sphere_sizes(self):
        chain = bl.build_chain(
            bl.AmbientGroup("free_abelian", 1), [bl.CyclicQuotient([8])]
        )
        assert sorted(ambient_sphere(chain, 0)) == [(0,)]
        assert sorted(ambient_sphere(chain, 3)) == [(-3,), (3,)]
        chain2 = bl.build_chain(
            bl.AmbientGroup("free_abelian", 2), [bl.CyclicQuotient([8, 8])]
        )
        assert len(ambient_sphere(chain2, 2)) == 8

    @given(st.integers(0, 4), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_sphere_lengths(self, radius, rank):
        chain = bl.build_chain(
            bl.AmbientGroup("free_abelian", rank), [bl.CyclicQuotient([16] * rank)]
        )
        sphere = ambient_sphere(chain, radius)
        assert len(set(sphere)) == len(sphere)
        for g in sphere:
            assert ambient_word_length(chain, g) == radius


class TestChains:
    def test_connecting_maps_inferred(self, dyadic_chain):
        for i, cmap in enumerate(dyadic_chain.connecting_maps):
            upper = dyadic_chain.levels[i + 1]
            lower = dyadic_chain.levels[i]
            assert cmap.shape == (upper.order,)
            # morphism property, exhaustively
            for a in upper.elements():
                for b in upper.elements():
                    assert cmap[upper.mult(a, b)] == lower.mult(cmap[a], cmap[b])

    def test_connecting_maps_are_short(self, dyadic_chain):
        for i, cmap in enumerate(dyadic_chain.connecting_maps):
            upper = dyadic_chain.levels[i + 1]
            lower = dyadic_chain.levels[i]
            for a in upper.elements():
                for b in upper.elements():
                    assert lower.cayley_distance(
                        int(cmap[a]), int(cmap[b])
                    ) <= upper.cayley_distance(a, b)

    def test_rejects_non_morphism_map(self):
        ambient = bl.AmbientGroup("free_abelian", 1)
        levels = [bl.CyclicQuotient([4]), bl.CyclicQuotient([8])]
        bad = [0, 1, 2, 3, 1, 1, 2, 3]
        with pytest.raises(ChainValidationError):
            bl.build_chain(ambient, levels, [bad])

    def test_radii_of_dyadic_chain(self, dyadic_chain):
        assert [dyadic_chain.radius(i) for i in range(3)] == [3, 5, 9]

    def test_radii_of_deep_chain(self, deep_chain):
        assert [deep_chain.radius(i) for i in range(6)] == [2, 3, 5, 9, 17, 33]

    def test_radius_closed_form_and_oracle(self):
        ambient = bl.AmbientGroup("free_abelian", 1)
        for m in range(2, 33):
            chain = bl.build_chain(ambient, [bl.CyclicQuotient([m])])
            r = bl.r_isometric_radius(chain, 0)
            assert r == m // 2 + 1
            assert r == radius_oracle_cyclic(m)

    def test_radius_trivial_level(self):
        chain = bl.build_chain(bl.AmbientGroup("free_abelian", 1), [bl.CyclicQuotient([1])])
        assert chain.radius(0) == 1

    def test_select_level(self, dyadic_chain, deep_chain):
        assert bl.select_level_for_r(dyadic_chain, 5) == 1
        assert bl.select_level_for_r(dyadic_chain, 6) == 2
        assert bl.select_level_for_r(deep_chain, 2) == 0
        assert bl.select_level_for_r(deep_chain, 10, exclude_below=4) == 4

    def test_select_level_exhausted(self, dyadic_chain):
        with pytest.raises(ChainExhaustedError) as exc:
            bl.select_level_for_r(dyadic_chain, 100)
        assert exc.value.deepest_radius == 9

    def test_radii_nondecreasing_enforced(self):
        ambient = bl.AmbientGroup("free_abelian", 1)
        levels = [bl.CyclicQuotient([8]), bl.CyclicQuotient([4])]
        with pytest.raises(ChainValidationError):
            bl.build_chain(ambient, levels)


def coordinate_tables(moduli):
    """Product and inverse tables of Z/m_1 x ... x Z/m_k over coordinate tuples.

    Elements are numbered in lexicographic order of their coordinates.
    """
    vecs = list(itertools.product(*(range(m) for m in moduli)))
    index = {v: i for i, v in enumerate(vecs)}
    mult = [
        [index[tuple((u + w) % m for u, w, m in zip(a, b, moduli))] for b in vecs] for a in vecs
    ]
    inv = [index[tuple(-u % m for u, m in zip(a, moduli))] for a in vecs]
    return np.array(vecs), np.array(mult), np.array(inv)


def regular_dihedral(m: int, relabel, fixed: int) -> dict:
    """Dihedral group of order 2m acting on itself by left multiplication.

    Element r^i s^e is point 2i + e before relabelling; ``fixed`` extra
    points lie outside the orbit.
    """
    def point(i, e):
        return relabel[2 * (i % m) + e]

    rot = list(range(2 * m + fixed))
    flip = list(range(2 * m + fixed))
    for i in range(m):
        for e in range(2):
            rot[point(i, e)] = point(i + 1, e)
            flip[point(i, e)] = point(-i, 1 - e)
    return {"kind": "permutation", "degree": 2 * m + fixed, "gens": [rot, flip], "base": point(0, 0)}


def permutation_tables(q, spec):
    """Product and inverse tables of a permutation quotient from composed permutations.

    Each element is the permutation its canonical word spells; a product of
    elements is the composite of their permutations.
    """
    letters = {}
    for k, gen in enumerate(spec["gens"], start=1):
        letters[k] = np.array(gen)
        letters[-k] = np.argsort(gen)
    perms = []
    for x in q.elements():
        g = np.arange(spec["degree"])
        for letter in q.canonical_word(x):
            g = g[letters[letter]]
        perms.append(g)
    element = {tuple(g): x for x, g in enumerate(perms)}
    assert len(element) == q.order
    mult = [[element[tuple(a[b])] for b in perms] for a in perms]
    inv = [element[tuple(np.argsort(a))] for a in perms]
    return np.array(mult), np.array(inv)


dihedral_specs = st.integers(2, 5).flatmap(
    lambda m: st.builds(
        regular_dihedral, st.just(m), st.permutations(range(2 * m)), st.integers(0, 2)
    )
)


def assert_kernel_matches(q, mult, inv, a, b):
    every = np.arange(q.order)
    assert (q.mult_many(every[:, None], every[None, :]) == mult).all()
    assert (q.mult_many(every[None, :], every[:, None]) == mult.T).all()
    assert (q.inv_many(every) == inv).all()
    assert q.mult_many(np.array(a), np.array(b)).tolist() == mult[a, b].tolist()
    assert [q.mult(x, y) for x, y in zip(a, b)] == mult[a, b].tolist()
    assert [q.inv(x) for x in a] == inv[a].tolist()


class TestKernel:
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_cyclic_matches_coordinate_table(self, moduli, data):
        q = bl.CyclicQuotient(moduli)
        vecs, mult, inv = coordinate_tables(moduli)
        assert (q.digits(np.arange(q.order)) == vecs).all()
        pairs = data.draw(st.lists(st.tuples(*[st.integers(0, q.order - 1)] * 2), min_size=1))
        a, b = map(list, zip(*pairs))
        assert_kernel_matches(q, mult, inv, a, b)

    @given(dihedral_specs, st.data())
    @settings(max_examples=25, deadline=None)
    def test_permutation_matches_composed_permutations(self, spec, data):
        q = bl.build_quotient(spec)
        mult, inv = permutation_tables(q, spec)
        pairs = data.draw(st.lists(st.tuples(*[st.integers(0, q.order - 1)] * 2), min_size=1))
        a, b = map(list, zip(*pairs))
        assert_kernel_matches(q, mult, inv, a, b)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "cyclic", "moduli": [3, 4]},
            {"kind": "cyclic", "moduli": [2, 1, 3]},
            regular_dihedral(4, [5, 2, 7, 0, 1, 6, 3, 4], 1),
        ],
    )
    def test_cayley_matrix_and_letter_perms(self, spec):
        q = bl.build_quotient(spec)
        full = q.cayley_matrix()
        for x in q.elements():
            oracle = bfs_distances(q, start=x)
            assert full[x].tolist() == [oracle[y] for y in q.elements()]
        xs, ys = [3, 0, 3], [1, 5]
        assert (q.cayley_matrix(xs, ys) == full[np.ix_(xs, ys)]).all()
        assert (q.cayley_matrix(ys=ys) == full[:, ys]).all()
        for letter, perm in zip(q.letters(), q.letter_perms()):
            img = q.letter_image(letter)
            assert perm.tolist() == [q.mult(x, img) for x in q.elements()]

    @pytest.mark.parametrize("family", ["free", "free_abelian"])
    def test_sphere_projection_matches_word_evaluation(self, family):
        level = (
            bl.build_quotient(regular_dihedral(3, list(range(6)), 0))
            if family == "free"
            else bl.CyclicQuotient([3, 5])
        )
        chain = bl.build_chain(bl.AmbientGroup(family, 2), [level], check_radii=False)
        perms = level.letter_perms()
        rows = np.array([ambient_identity(chain)], dtype=np.int64)
        images = np.array([level.identity])
        for radius in range(1, 5):
            rows, parent, step = _next_sphere(chain, rows)
            images = perms[step, images[parent]]
            sphere = [tuple(g) for g in rows.tolist()]
            words = [
                g if family == "free" else (1,) * g[0] + (-1,) * -g[0] + (2,) * g[1] + (-2,) * -g[1]
                for g in sphere
            ]
            want = [level.evaluate_word(w) for w in words]
            assert images.tolist() == want
            assert [project_to_level(chain, g, 0) for g in sphere] == want
            assert column_projection(chain, sphere, 0).tolist() == want


def exhaustive_associativity(table):
    """The first (a, b, c) with (ab)c != a(bc), one n x n check per a, or None."""
    for a in range(len(table)):
        lhs = table[table[a]]
        rhs = np.take(table[a], table)
        if not (lhs == rhs).all():
            b, c = map(int, np.argwhere(lhs != rhs)[0])
            return a, b, c
    return None


def right_closure(table, identity, gens):
    """Elements reached from the identity by right multiplication by ``gens``."""
    seen, todo = {identity}, [identity]
    while todo:
        x = todo.pop()
        for g in gens:
            y = int(table[x, g])
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def random_loop(n, rng):
    """A random Latin square on 0..n-1 with identity 0, filled cell by cell."""
    table = np.full((n, n), -1, dtype=np.int64)
    table[0] = table[:, 0] = np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i, :j].tolist()) | set(table[:i, j].tolist())
        for v in rng.permutation(n).tolist():
            if v not in used:
                table[i, j] = v
                if fill(k + 1):
                    return True
        table[i, j] = -1
        return False

    assert fill(0)
    return table


def relabelled_group(kind, n, rng):
    """The table of Z/n or of the dihedral group of order n, relabelled with the identity at 0."""
    if kind == "cyclic":
        base = np.add.outer(np.arange(n), np.arange(n)) % n
    else:
        m = n // 2
        # r^i s^e is 2i + e; (r^i s^e)(r^j s^f) = r^(i + (-1)^e j) s^(e + f)
        i, e = np.divmod(np.arange(n), 2)
        rot = (i[:, None] + np.where(e[:, None] == 1, -i, i)) % m
        base = 2 * rot + (e[:, None] + e) % 2
    label = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    table = np.empty_like(base)
    table[np.ix_(label, label)] = label[base]
    return table


class TestExactValidation:
    """Identity, inverses and Light's associativity test against the exhaustive checks."""

    def test_valid_quotients_and_chain_pass(self):
        for spec in ({"kind": "cyclic", "moduli": [3, 4]}, regular_dihedral(4, list(range(8)), 0)):
            assert bl.build_quotient(spec).order in (12, 8)
        ambient = bl.AmbientGroup("free_abelian", 1)
        chain = bl.build_chain(ambient, [bl.CyclicQuotient([4]), bl.CyclicQuotient([8])])
        assert chain.connecting_maps[0].tolist() == [0, 1, 2, 3, 0, 1, 2, 3]

    @pytest.mark.parametrize(
        "table, identity, message",
        [
            # Z/8 with the single entry 2 + 3 corrupted to 6
            (
                [[6 if (a, b) == (2, 3) else (a + b) % 8 for b in range(8)] for a in range(8)],
                0,
                "associativity fails at (2, 2, 1): (22)1 = 5, 2(21) = 6",
            ),
            # the multiplicative monoid of Z/8: associative, with identity 1
            ([[a * b % 8 for b in range(8)] for a in range(8)], 1, "element 0 has 0 inverses"),
            # the left-zero semigroup ab = a
            ([[a] * 8 for a in range(8)], 0, "identity fails on the left at 1"),
            # the right-zero semigroup ab = b
            ([list(range(8))] * 8, 0, "identity fails on the right at 1"),
        ],
    )
    def test_bad_table_rejected(self, table, identity, message):
        spec = {"kind": "table", "mult": table, "identity": identity, "gen_images": [1]}
        with pytest.raises(InvalidGroupError) as exc:
            bl.build_quotient(spec)
        assert str(exc.value) == message

    @pytest.mark.parametrize("moduli", [[1], [7], [1, 4], [3, 1], [2, 3, 4], [4, 1, 2]])
    def test_cyclic_law_passes_the_exact_check(self, moduli):
        # CyclicQuotient.validate trusts its construction; the exact check is the oracle
        q = bl.CyclicQuotient(moduli)
        bl.MarkedQuotient.validate(q)
        assert q._validated

    @pytest.mark.parametrize(
        "phi, message",
        [
            ([0, 1, 2, 3, 1, 1, 2, 3], "is not a homomorphism at (3, 1)"),
            ([1, 2, 3, 0, 1, 2, 3, 0], "sends the identity to 1, expected 0"),
            ([0, 1, 2, 1, 0, 1, 2, 1], "is not surjective"),
            ([0, 3, 2, 1, 0, 3, 2, 1], "sends generator image 0 to 3, expected 1"),
        ],
    )
    def test_bad_map_rejected(self, phi, message):
        ambient = bl.AmbientGroup("free_abelian", 1)
        levels = [bl.CyclicQuotient([4]), bl.CyclicQuotient([8])]
        with pytest.raises(ChainValidationError) as exc:
            bl.build_chain(ambient, levels, [phi])
        assert str(exc.value) == f"connecting map 0 {message}"

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["loop", "cyclic", "dihedral"]),
        n=st.integers(2, 7),
        seed=st.integers(0, 2**32 - 1),
        gen_count=st.integers(1, 2),
    )
    def test_light_matches_exhaustive(self, kind, n, seed, gen_count):
        rng = np.random.default_rng(seed)
        if kind == "dihedral" and n % 2:
            n += 1
        if kind == "loop":
            # every loop of order 4 or less is a group
            n = max(n, 5)
        table = random_loop(n, rng) if kind == "loop" else relabelled_group(kind, n, rng)
        gens = rng.choice(n, size=gen_count).tolist()
        spec = {"kind": "table", "mult": table.tolist(), "identity": 0, "gen_images": gens}
        witness = exhaustive_associativity(table)
        generated = len(right_closure(table, 0, gens)) == n
        if witness is None and generated:
            bl.build_quotient(spec)
            return
        with pytest.raises(InvalidGroupError) as exc:
            bl.build_quotient(spec)
        if not generated:
            assert str(exc.value).startswith("generators do not generate")
            return
        x, y, s = map(int, str(exc.value).split("(")[1].split(")")[0].split(", "))
        assert s in gens
        assert table[table[x, y], s] != table[x, table[y, s]]

    @settings(max_examples=100, deadline=None)
    @given(
        moduli=st.sampled_from([((4,), (8,)), ((3,), (12,)), ((2, 4), (4, 8)), ((2, 3), (4, 6))]),
        data=st.data(),
    )
    def test_map_check_matches_all_pairs(self, moduli, data):
        lower, upper = (bl.CyclicQuotient(m) for m in moduli)
        phi = bl.groups.infer_connecting_map(upper, lower).copy()
        for _ in range(data.draw(st.integers(0, 2))):
            phi[data.draw(st.integers(0, upper.order - 1))] = data.draw(
                st.integers(0, lower.order - 1)
            )
        idx = np.arange(upper.order)
        products = phi[upper.mult_many(idx[:, None], idx)]
        keeps = (
            np.unique(phi).size == lower.order
            and all(phi[gu] == gl for gu, gl in zip(upper.gen_images, lower.gen_images))
            and (products == lower.mult_many(phi[:, None], phi)).all()
        )
        if keeps:
            _validate_connecting_map(phi, upper, lower, 0)
        else:
            with pytest.raises(ChainValidationError):
                _validate_connecting_map(phi, upper, lower, 0)

    def test_no_random_draws(self, monkeypatch):
        specs = perfbench_sl2_levels(1)

        def refuse(*args, **kwargs):
            raise AssertionError("validation drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        levels = [bl.build_quotient(spec) for spec in specs]
        assert [q.order for q in levels] == [24, 648]
        bl.build_chain(bl.AmbientGroup("free", 2), levels)


def loop_bfs(q):
    """Breadth-first search one frontier element and one letter at a time.

    Returns distances, parents and signed parent letters (0 where there is no
    parent), the reference for the layered search.
    """
    perms = q.letter_perms()
    dist = np.full(q.order, -1, dtype=np.int64)
    parent = np.full(q.order, -1, dtype=np.int64)
    parent_letter = np.zeros(q.order, dtype=np.int64)
    dist[q.identity] = 0
    frontier = [q.identity]
    d = 0
    while frontier:
        nxt = []
        for x in frontier:
            for letter, perm in zip(q.letters(), perms):
                y = int(perm[x])
                if dist[y] < 0:
                    dist[y] = d + 1
                    parent[y] = x
                    parent_letter[y] = letter
                    nxt.append(y)
        frontier = nxt
        d += 1
    return dist, parent, parent_letter


def loop_orbit_quotient(degree, gens, base):
    """Orbit search carrying one full permutation per orbit point.

    Each (point, letter) edge to a known point compares the two words on the
    orbit points found so far.  Returns the table and generator images, or
    raises with the first failing point.
    """
    letters = [q for p in gens for q in (np.array(p), np.argsort(p))]
    orbit_index = {base: 0}
    orbit_points = [base]
    words = [np.arange(degree)]
    frontier = [0]
    while frontier:
        nxt = []
        for xi in frontier:
            for p in letters:
                gy = p[words[xi]]
                y = int(gy[base])
                if y in orbit_index:
                    known = words[orbit_index[y]]
                    if not (gy[orbit_points] == known[orbit_points]).all():
                        raise InvalidGroupError(
                            f"orbit of {base} is not simply transitive:"
                            f" two words differ on the orbit at point {y}"
                        )
                else:
                    orbit_index[y] = len(orbit_points)
                    orbit_points.append(y)
                    words.append(gy)
                    nxt.append(orbit_index[y])
        frontier = nxt
    position = np.full(degree, -1, dtype=np.int64)
    position[orbit_points] = np.arange(len(orbit_points))
    table = position[np.stack(words)[:, orbit_points]]
    return table, tuple(orbit_index[int(p[base])] for p in gens)


def perfbench_sl2_levels(seed):
    """The relabelled SL2(Z/3) and SL2(Z/9) permutation specs of the benchmark corpus."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus.sl2_chain(seed)["levels"]


def assert_search_matches_loop(q):
    dist, parent, parent_letter = loop_bfs(q)
    assert q.distance_from_identity().tolist() == dist.tolist()
    assert q._parent.tolist() == parent.tolist()
    letters = np.array(q.letters())
    reached = parent >= 0
    assert letters[q._parent_letter[reached]].tolist() == parent_letter[reached].tolist()


class TestBreadthFirst:
    """The layered search against the element-by-element loops it replaced."""

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_cyclic_matches_loop(self, moduli):
        assert_search_matches_loop(bl.CyclicQuotient(moduli))

    @given(dihedral_specs)
    @settings(max_examples=25, deadline=None)
    def test_dihedral_matches_loop(self, spec):
        q = bl.build_quotient(spec)
        assert_search_matches_loop(q)
        table, gen_images = loop_orbit_quotient(spec["degree"], spec["gens"], spec["base"])
        assert q.table.tolist() == table.tolist()
        assert q.gen_images == gen_images

    @pytest.mark.parametrize("seed", [1, 301])
    def test_sl2_levels_match_loop(self, seed):
        for spec in perfbench_sl2_levels(seed):
            q = _quotient_from_permutations(spec["degree"], spec["gens"], spec["base"])
            table, gen_images = loop_orbit_quotient(spec["degree"], spec["gens"], spec["base"])
            assert q.table.tolist() == table.tolist()
            assert q.gen_images == gen_images
            assert_search_matches_loop(q)
            assert_trusted_passes_light(q)

    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.lists(st.permutations(range(n)), min_size=1, max_size=3), st.integers(0, n - 1)
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_any_action_matches_loop(self, case):
        # mostly not simply transitive: the same first failing point, or the same
        # table, marked validated exactly when the action is regular on the orbit
        gens, base = case
        try:
            want = loop_orbit_quotient(len(gens[0]), gens, base)
        except InvalidGroupError as exc:
            with pytest.raises(InvalidGroupError) as got:
                _quotient_from_permutations(len(gens[0]), gens, base)
            assert str(got.value) == str(exc)
            assert not regular_on_orbit(gens, base)
        else:
            q = _quotient_from_permutations(len(gens[0]), gens, base)
            assert (q.table.tolist(), q.gen_images) == (want[0].tolist(), want[1])
            assert q._validated == regular_on_orbit(gens, base)
            if q._validated:
                assert_trusted_passes_light(q)

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_a_failed_comparison_always_names_a_point(self, degree):
        # every pair of permutations from every base: the first-witness search
        # raises whenever the per-generator comparison fails, so whatever comes
        # back is regular on the orbit and validated
        perms = list(itertools.permutations(range(degree)))
        for gens in itertools.product(perms, repeat=2):
            for base in range(degree):
                try:
                    q = _quotient_from_permutations(degree, gens, base)
                except InvalidGroupError:
                    assert not regular_on_orbit(gens, base)
                else:
                    assert q._validated and regular_on_orbit(gens, base)

    def test_unreached_elements_keep_minus_one(self):
        table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        q = bl.TableQuotient(table, 0, [2])
        assert_search_matches_loop(q)
        assert q.distance_from_identity().tolist() == [0, -1, 1, -1]

    @pytest.mark.parametrize(
        "gens, base, point",
        [
            # the dihedral group of order 8 on the corners of a square
            ([[1, 2, 3, 0], [0, 3, 2, 1]], 0, 0),
            # a 4-cycle with a transposition that fixes the points found first
            ([[0, 3, 2, 7, 1, 5, 6, 4], list(range(8)), [0, 1, 2, 3, 6, 5, 4, 7]], 3, 7),
        ],
    )
    def test_not_simply_transitive_rejected(self, gens, base, point):
        message = (
            f"orbit of {base} is not simply transitive:"
            f" two words differ on the orbit at point {point}"
        )
        with pytest.raises(InvalidGroupError) as exc:
            loop_orbit_quotient(len(gens[0]), gens, base)
        assert str(exc.value) == message
        spec = {"kind": "permutation", "degree": len(gens[0]), "gens": gens, "base": base}
        with pytest.raises(InvalidGroupError) as exc:
            bl.build_quotient(spec)
        assert str(exc.value) == message


def assert_trusted_passes_light(q):
    """A quotient its construction marked validated passes the full check afresh."""
    assert q._validated
    bl.TableQuotient(q.table, 0, q.gen_images).validate()


def regular_on_orbit(gens, base) -> bool:
    """Whether the group the permutations generate, restricted to the orbit of
    ``base``, has as many elements as the orbit has points: a brute-force closure
    of the identity under the generators, stopped once it outgrows the orbit."""
    gens = [np.array(g) for g in gens]
    points = [base]
    for x in points:
        for g in gens:
            if int(g[x]) not in points:
                points.append(int(g[x]))
    points = np.array(points)
    seen, frontier = {tuple(points)}, [points]
    while frontier and len(seen) <= len(points):
        fresh = []
        for w in frontier:
            for g in gens:
                if tuple(g[w]) not in seen:
                    seen.add(tuple(g[w]))
                    fresh.append(g[w])
        frontier = fresh
    return len(seen) == len(points)


class TestTrustedPermutations:
    """Permutation levels marked validated by their construction, against Light's test."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["cyclic", "dihedral"]),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        gen_count=st.integers(1, 3),
    )
    def test_left_regular_actions_trusted(self, kind, n, seed, gen_count):
        # a subgroup acts regularly, by left multiplication, on each of its cosets
        rng = np.random.default_rng(seed)
        if kind == "dihedral":
            n = max(4, n + n % 2)
        table = relabelled_group(kind, n, rng)
        relabel = rng.permutation(n)
        gens = []
        for g in rng.choice(n, size=gen_count):
            perm = np.empty(n, dtype=np.int64)
            perm[relabel] = relabel[table[g]]
            gens.append(perm.tolist())
        base = int(rng.integers(n))
        q = _quotient_from_permutations(n, gens, base)
        assert_trusted_passes_light(q)
        want, gen_images = loop_orbit_quotient(n, gens, base)
        assert (q.table.tolist(), q.gen_images) == (want.tolist(), gen_images)

    def test_light_rejects_a_corrupted_sl2_table(self):
        spec = perfbench_sl2_levels(1)[1]
        q = _quotient_from_permutations(spec["degree"], spec["gens"], spec["base"])
        table = q.table.copy()
        # off the identity's row and column and the generator columns, and
        # neither value the identity, so only associativity can fail
        x, y = 5, next(y for y in range(1, q.order) if y not in q.gen_images and table[5, y])
        table[x, y] = next(v for v in range(1, q.order) if v != table[x, y])
        with pytest.raises(InvalidGroupError, match="^associativity fails at "):
            bl.TableQuotient(table, 0, q.gen_images).validate()


# -- ambient spheres and the isometry radius ---------------------------------


def loop_abelian_sphere(rank: int, radius: int):
    """Integer vectors with L1 norm exactly ``radius``: compositions, then sign products."""
    if radius == 0:
        yield (0,) * rank
        return
    for cut in itertools.combinations(range(radius + rank - 1), rank - 1):
        parts = []
        prev = -1
        for c in cut:
            parts.append(c - prev - 1)
            prev = c
        parts.append(radius + rank - 2 - prev)
        nonzero = [i for i, p in enumerate(parts) if p]
        for signs in itertools.product((1, -1), repeat=len(nonzero)):
            vec = list(parts)
            for i, s in zip(nonzero, signs):
                vec[i] *= s
            yield tuple(vec)


def loop_free_sphere(rank: int, radius: int) -> list:
    """Reduced words of length exactly ``radius``, extended one letter at a time."""
    letters = [l for k in range(1, rank + 1) for l in (k, -k)]
    sphere: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        sphere = [w + (l,) for w in sphere for l in letters if not w or w[-1] != -l]
    return sphere


def loop_sphere(chain, radius: int) -> list:
    if chain.ambient.family == "free":
        return loop_free_sphere(chain.ambient.rank, radius)
    return list(loop_abelian_sphere(chain.ambient.rank, radius))


def column_projection(chain, gs, level: int) -> np.ndarray:
    """Images of free words, or free abelian vectors, one letter column at a time.

    A vector is spelled coordinate by coordinate and padded with the letter
    0, which stands for the identity.
    """
    q = chain.levels[level]
    images = np.array([q.letter_image(l) if l else q.identity for l in range(-q.rank, q.rank + 1)])
    rows = np.array(gs, dtype=np.int64)
    if chain.ambient.family == "free_abelian":
        counts = np.abs(rows)[:, :, None]
        letters = (np.sign(rows) * np.arange(1, chain.ambient.rank + 1))[:, :, None]
        steps = np.arange(counts.max(initial=0))
        rows = np.where(steps < counts, letters, 0).reshape(len(rows), -1)
    x = np.full(len(gs), q.identity, dtype=np.int64)
    for column in rows.T:
        x = q.mult_many(x, images[column + q.rank])
    return x


def sphere_radius_oracle(chain, level: int) -> int:
    """The first radius at which an enumerated ambient sphere projects off its distance."""
    dist = chain.levels[level].distance_from_identity()
    D = 0
    while True:
        D += 1
        if (dist[column_projection(chain, loop_sphere(chain, D), level)] != D).any():
            return D


def bare_chain(family: str, levels) -> bl.GroupChain:
    return bl.build_chain(bl.AmbientGroup(family, levels[0].rank), levels, check_radii=False)


class TestSpheres:
    """Sphere steps against the itertools and list-comprehension enumerations."""

    @given(
        st.sampled_from(["free", "free_abelian"]).flatmap(
            lambda family: st.tuples(
                st.just(family),
                st.integers(1, 3),
                st.integers(0, 4 if family == "free" else 6),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_ambient_sphere_matches_loop(self, case):
        family, rank, radius = case
        chain = bare_chain(family, [bl.CyclicQuotient([2] * rank)])
        assert ambient_sphere(chain, radius) == loop_sphere(chain, radius)

    @pytest.mark.parametrize("family, rank", [("free", 2), ("free_abelian", 3)])
    def test_steps_name_parent_and_letter(self, family, rank):
        chain = bare_chain(family, [bl.CyclicQuotient([2] * rank)])
        letters = chain.levels[0].letters()
        rows = np.array([ambient_identity(chain)], dtype=np.int64)
        for radius in range(1, 5):
            old = [tuple(g) for g in rows.tolist()]
            rows, parent, step = _next_sphere(chain, rows)
            assert [tuple(g) for g in rows.tolist()] == loop_sphere(chain, radius)
            for g, k, l in zip(rows.tolist(), parent.tolist(), step.tolist()):
                assert tuple(g) == ambient_mult(chain, old[k], ambient_from_letters(chain, [letters[l]]))


class TestRadiusAgainstSphereProjection:
    """Layered radii against projecting whole enumerated spheres, one letter column at a time."""

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=3), st.sampled_from(["free", "free_abelian"]))
    @settings(max_examples=40, deadline=None)
    def test_cyclic_levels(self, moduli, family):
        chain = bare_chain(family, [bl.CyclicQuotient(moduli)])
        assert chain.radius(0) == sphere_radius_oracle(chain, 0)

    @pytest.mark.parametrize(
        "moduli, rank", [((64, 128, 256, 512, 1024), 1), ((8, 16, 32), 2)]
    )
    def test_baseline_chains(self, moduli, rank):
        chain = bare_chain("free_abelian", [bl.CyclicQuotient([m] * rank) for m in moduli])
        assert [chain.radius(i) for i in range(len(moduli))] == [
            sphere_radius_oracle(chain, i) for i in range(len(moduli))
        ]

    @given(dihedral_specs)
    @settings(max_examples=25, deadline=None)
    def test_dihedral_levels_over_free_ambient(self, spec):
        chain = bare_chain("free", [bl.build_quotient(spec)])
        assert chain.radius(0) == sphere_radius_oracle(chain, 0)

    @pytest.mark.parametrize("seed", [1, 301])
    def test_sl2_levels(self, seed):
        chain = bare_chain("free", [bl.build_quotient(s) for s in perfbench_sl2_levels(seed)])
        assert [chain.radius(i) for i in range(2)] == [sphere_radius_oracle(chain, i) for i in range(2)]


def chain_limit(levels) -> bl.GroupChain:
    return bl.build_chain(bl.AmbientGroup("explicit_chain_limit", levels[0].rank), levels)


def composed_projection(chain, x: int, level: int) -> int:
    for i in range(len(chain.levels) - 2, level - 1, -1):
        x = int(chain.connecting_maps[i][x])
    return x


class TestChainLimit:
    """An ambient given only as its deepest level, against breadth-first oracles."""

    CHAINS = [
        [bl.CyclicQuotient([m]) for m in (4, 8, 16)],
        [bl.CyclicQuotient([m, m]) for m in (4, 8)],
        [bl.build_quotient(regular_dihedral(m, list(range(2 * m)), 0)) for m in (3, 6, 12)],
    ]

    @pytest.mark.parametrize("levels", CHAINS)
    def test_radius_length_and_projection(self, levels):
        chain = chain_limit(levels)
        deep = chain.levels[-1]
        length = bfs_distances(deep)
        below = bfs_distances(chain.levels[-2])
        stable = {x: below[composed_projection(chain, x, len(levels) - 2)] == length[x] for x in length}
        for x in deep.elements():
            if stable[x]:
                assert ambient_word_length(chain, x) == length[x]
            else:
                with pytest.raises(NonStabilizedLengthError) as exc:
                    ambient_word_length(chain, x)
                assert exc.value.last_values == (below[composed_projection(chain, x, len(levels) - 2)], length[x])
        for level, q in enumerate(chain.levels):
            level_length = bfs_distances(q)
            for x in deep.elements():
                assert project_to_level(chain, x, level) == composed_projection(chain, x, level)
                assert project_to_level(chain, x, level) == q.evaluate_word(deep.canonical_word(x))
            # the first length at which a stable element projects off its length or an
            # unstable one appears; past the deepest diameter every length is certified
            off = [
                length[x]
                for x in deep.elements()
                if not stable[x] or level_length[composed_projection(chain, x, level)] != length[x]
            ]
            assert chain.radius(level) == min(off, default=max(length.values()) + 1)

    def test_single_level_certifies_no_length(self):
        chain = chain_limit([bl.CyclicQuotient([6])])
        with pytest.raises(NonStabilizedLengthError) as exc:
            ambient_word_length(chain, 2)
        assert str(exc.value) == "single-level chain cannot certify a word length (deepest value 2)"
        assert exc.value.last_values == (2,)
        assert chain.radius(0) == 1
