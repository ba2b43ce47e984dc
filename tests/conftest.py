import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import boxlab as bl
from boxlab.lpspace import IsometryStack
from scalar_isometry import AffineIsometry, SignedPermutation, row_isometry, stack_of

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def record_criterion():
    def record(number: int, description: str, ok: bool):
        line = f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {description}"
        ACCEPTANCE_LINES.append(line)
        assert ok, line

    return record


def canonical_word(q, x: int) -> tuple[int, ...]:
    """Letters of the breadth-first geodesic from the identity to ``x``, read off
    the parent arrays of ``q``'s breadth-first search."""
    assert q.distance_from_identity()[x] >= 0, f"element {x} not generated by the marking"
    out = []
    while x != q.identity:
        out.append(q.letters()[q._parent_letter[x]])
        x = int(q._parent[x])
    return tuple(reversed(out))


def pack(space, sets):
    """The packed ``(starts, members)`` of sets of ``BoxPoint``s, which
    ``space.point_indices`` looks up (and refuses a stranger of)."""
    sets = [tuple(C) for C in sets]
    starts = np.cumsum([0, *map(len, sets)], dtype=np.int64)
    return starts, space.point_indices([pt for C in sets for pt in C])


def unpack(space, starts, members) -> list[tuple]:
    """The sets of a packed batch, as tuples of ``BoxPoint``s."""
    points = [space.points()[k] for k in members.tolist()]
    return [tuple(points[a:b]) for a, b in zip(starts[:-1].tolist(), starts[1:].tolist())]


def stacked(space, serve_one, dim: int):
    """The stacked trivialization contract over an oracle serving one set as a dict.

    ``serve_one(C, r)`` maps each point of the tuple of ``BoxPoint``s ``C`` to
    an ``AffineIsometry``; the packed batch is unpacked over ``space``.
    """

    def serve(starts, members, r):
        isos = []
        for C in unpack(space, starts, members):
            triv = serve_one(C, r)
            isos.extend(triv[pt] for pt in C)
        return stack_of(isos, dim)

    return serve


def served_dict(fib, C, r) -> dict:
    """The rows ``fib`` serves for the one set ``C``, as a dict of ``AffineIsometry``."""
    C = tuple(C)
    stack, _ = fib.trivialize(*pack(fib.space, [C]), r)
    return {pt: row_isometry(fib.p, stack, k) for k, pt in enumerate(C)}


def localized_ball(q, level: int, z: int, r: int) -> tuple:
    """The ball of radius ``r - 1`` around ``z`` as localization lists it: z
    times each element shorter than r, the identity first, then ascending."""
    length = q.distance_from_identity()
    ball = sorted((u for u in q.elements() if length[u] < r), key=lambda u: u != q.identity)
    return tuple(bl.BoxPoint(level, q.mult(z, u)) for u in ball)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def non_finite_controls(data, top: int):
    """Identity controls on 0..top with NaN or +-inf drawn into random samples of
    either side, and whether both sides stay nondecreasing, as the verifiers ask."""
    sides = [{t: float(t) for t in range(top + 1)} for _ in range(2)]
    entries = st.tuples(st.integers(0, 1), st.integers(0, top), NON_FINITE)
    for side, t, value in data.draw(st.lists(entries, max_size=3)):
        sides[side][t] = value
    monotone = all(all(a <= b for a, b in zip(s.values(), list(s.values())[1:])) for s in sides)
    return sides[0], sides[1], monotone


def non_finite_translations(data, base, points):
    """``base``'s trivialization with NaN or +-inf drawn into the translation of
    random points, the same row wherever a point is served."""
    entries = st.tuples(st.sampled_from(points), st.integers(0, base.dim - 1), NON_FINITE)
    corrupt = data.draw(st.lists(entries, min_size=1, max_size=3))

    def serve(C, r):
        out = served_dict(base, C, r)
        for pt, c, value in corrupt:
            if pt in out:
                shift = out[pt].translation.copy()
                shift[c] = value
                out[pt] = AffineIsometry(base.p, out[pt].linear, shift)
        return out

    return bl.FibredEmbedding(
        space=base.space,
        p=base.p,
        dim=base.dim,
        section=base.section,
        exclusion=base.exclusion,
        trivialization=stacked(base.space, serve, base.dim),
    )


def twisted_rule(rank, p):
    """The scalar rule of ``twisted_action``: one ambient element to an ``AffineIsometry``."""
    quarter = SignedPermutation([*range(rank), rank + 1, rank], [*([1] * rank), -1, 1])

    def rule(g):
        linear = SignedPermutation.identity(rank + 2)
        for _ in range(g[0] % 4):
            linear = quarter.compose(linear)
        return AffineIsometry(p, linear, np.array([*g, 0, 0], dtype=float))

    return rule


def twisted_action(rank, p):
    """Z^rank on l^p of dimension rank + 2: translation by g, and the last two
    coordinates turned a quarter (a signed permutation of order 4) per unit of g_0."""
    # the linear parts of 0, 1, 2 and 3 quarter turns
    turns = [twisted_rule(rank, p)((k,) + (0,) * (rank - 1)).linear for k in range(4)]
    perm = np.array([t.perm for t in turns])
    signs = np.array([t.signs for t in turns])

    def rule(rows):
        k = rows[:, 0] % 4
        shift = np.hstack([rows, np.zeros((len(rows), 2))])
        return IsometryStack(perm[k], signs[k], shift)

    return bl.ProperAction(p=p, dim=rank + 2, rule=rule, label="twisted")


def unchecked_map(space, p, mat) -> bl.CoarseEmbeddingMap:
    """A map over ``mat`` held as the constructor holds it, but without its checks:
    for the NaN and infinite tables that the constructor refuses."""
    f = bl.CoarseEmbeddingMap.__new__(bl.CoarseEmbeddingMap)
    f._hold(space, p, mat)
    return f


def cyclic_chain(*moduli_per_level, rank: int = 1) -> bl.GroupChain:
    ambient = bl.AmbientGroup("free_abelian", rank)
    levels = []
    for moduli in moduli_per_level:
        if isinstance(moduli, int):
            moduli = [moduli] * rank
        levels.append(bl.CyclicQuotient(list(moduli)))
    return bl.build_chain(ambient, levels)


def sl2_chain_spec(seed: int) -> dict:
    """The relabelled SL2(Z/3), SL2(Z/9) chain of the benchmark corpus, over a
    free ambient, as a chain description."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus.sl2_chain(seed)


def dihedral_chain(ms=(3, 6)) -> bl.GroupChain:
    """D_m for each m of ``ms`` over the free group of rank 2, marked by a
    rotation and a reflection, as permutation actions on 2m points."""
    levels = []
    for m in ms:
        rot = [2 * ((i + 1) % m) + e for i in range(m) for e in range(2)]
        flip = [2 * (-i % m) + 1 - e for i in range(m) for e in range(2)]
        spec = {"kind": "permutation", "degree": 2 * m, "gens": [rot, flip], "base": 0}
        levels.append(bl.build_quotient(spec))
    return bl.build_chain(bl.AmbientGroup("free", 2), levels)


@pytest.fixture(scope="session")
def make_chain():
    return cyclic_chain


@pytest.fixture(scope="session")
def dyadic_chain():
    # Z -> Z/4 -> Z/8 -> Z/16
    return cyclic_chain(4, 8, 16)


@pytest.fixture(scope="session")
def dyadic_space(dyadic_chain):
    return bl.assemble_box_space(dyadic_chain)


@pytest.fixture(scope="session")
def deep_chain():
    # Z -> Z/2 -> ... -> Z/64
    return cyclic_chain(2, 4, 8, 16, 32, 64)


@pytest.fixture(scope="session")
def deep_space(deep_chain):
    return bl.assemble_box_space(deep_chain)


@pytest.fixture(scope="session")
def torus_chain():
    # Z^2 -> (Z/4)^2 -> (Z/8)^2 -> (Z/16)^2
    return cyclic_chain(4, 8, 16, rank=2)


@pytest.fixture(scope="session")
def torus_space(torus_chain):
    return bl.assemble_box_space(torus_chain)


@pytest.fixture(scope="session")
def z16_space():
    return bl.assemble_box_space(cyclic_chain(16))
