import numpy as np
import pytest

import boxlab as bl
from boxlab.lpspace import AffineIsometry, IsometryStack, SignedPermutation

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


def stacked(serve_one, dim: int):
    """The stacked trivialization contract over an oracle serving one set as a dict.

    ``serve_one(C, r)`` maps each point of ``C`` to an ``AffineIsometry``.
    """

    def serve(sets, r):
        isos = []
        for C in sets:
            triv = serve_one(C, r)
            isos.extend(triv[pt] for pt in C)
        return IsometryStack.of(isos, dim)

    return serve


def served_dict(fib, C, r) -> dict:
    """The rows ``fib`` serves for the one set ``C``, as a dict of ``AffineIsometry``."""
    C = tuple(C)
    stack, _ = fib.trivialize([C], r)
    return {
        pt: AffineIsometry(fib.p, SignedPermutation(perm, signs), shift)
        for pt, perm, signs, shift in zip(C, *stack)
    }


def twisted_action(rank, p):
    """Z^rank on l^p of dimension rank + 2: translation by g, and the last two
    coordinates turned a quarter (a signed permutation of order 4) per unit of g_0."""
    quarter = SignedPermutation([*range(rank), rank + 1, rank], [*([1] * rank), -1, 1])

    def rule(g):
        linear = SignedPermutation.identity(rank + 2)
        for _ in range(g[0] % 4):
            linear = quarter.compose(linear)
        return AffineIsometry(p, linear, np.array([*g, 0, 0], dtype=float))

    return bl.ProperAction(p=p, dim=rank + 2, rule=rule, label="twisted")


def cyclic_chain(*moduli_per_level, rank: int = 1) -> bl.GroupChain:
    ambient = bl.AmbientGroup("free_abelian", rank)
    levels = []
    for moduli in moduli_per_level:
        if isinstance(moduli, int):
            moduli = [moduli] * rank
        levels.append(bl.CyclicQuotient(list(moduli)))
    return bl.build_chain(ambient, levels)


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
