"""Headline guarantees, one recorded pass/fail line each.

Every test funnels into the ``record_criterion`` fixture so that a plain
pytest run ends with a visible scoreboard.  The checks here intentionally
re-derive expectations from scratch (brute force, closed forms, independent
enumeration) rather than trusting intermediate library output.
"""

import math
import time
from collections import deque

import numpy as np
import pytest

import boxlab as bl
from conftest import served_dict, stacked


@pytest.fixture(scope="module")
def averaged_spaces(make_chain):
    """Small one-level spaces for the averaging checks."""
    return {
        "cycle4": bl.assemble_box_space(make_chain(4)),
        "cycle8": bl.assemble_box_space(make_chain(8)),
        "torus4": bl.assemble_box_space(make_chain(4, rank=2)),
    }


def _averaged_instance(space, p):
    q = space.chain.levels[0]
    if len(q.moduli) == 1:
        f = bl.cycle_plane_embedding(space, p)
    else:
        f = bl.torus_coordinate_embedding(space, p)
    rep, coc = bl.averaged_cocycle(f.matrix(), q, p)
    return q, f, rep, coc


@pytest.fixture(scope="module")
def line_fibrations(deep_space):
    """Translation fibrations over the dyadic tower, one per exponent."""
    return {
        p: bl.from_proper_action(deep_space, bl.translation_action(1, p), r_max=5)
        for p in (1.0, 2.0)
    }


def test_criterion_1_linf_isometry(dyadic_space, record_criterion):
    start = time.perf_counter()
    f = bl.linf_embedding(dyadic_space)
    controls = bl.identity_controls(range(dyadic_space.diameter() + 1))
    report = bl.verify_coarse(f, controls.rho_minus, controls.rho_plus, tolerance=0.0)
    elapsed = time.perf_counter() - start
    ok = report.passed and report.pair_count == 406 and elapsed < 1.0
    record_criterion(1, "distance-difference map is an exact l-infinity isometry", ok)


def test_criterion_2_averaged_cocycle_law(averaged_spaces, record_criterion):
    start = time.perf_counter()
    ok = True
    for p in (1.0, 2.0, 3.0):
        for space in averaged_spaces.values():
            q, _, rep, coc = _averaged_instance(space, p)
            report = bl.verify_local_action(rep, coc, tolerance=1e-12)
            ok = ok and report.passed and report.identity_checked == q.order**2
    # integer-valued input keeps the identity exact, not just within tolerance
    space8 = averaged_spaces["cycle8"]
    q8 = space8.chain.levels[0]
    rep8, coc8 = bl.averaged_cocycle(bl.linf_embedding(space8).matrix(), q8, 1.0)
    exact = bl.verify_local_action(rep8, coc8, mode="exact")
    ok = ok and exact.passed and exact.identity_checked == q8.order**2
    elapsed = time.perf_counter() - start
    record_criterion(
        2, "averaged maps satisfy the cocycle law, exactly on integer data",
        ok and elapsed < 5.0,
    )


def test_criterion_3_averaged_norm_sandwich(averaged_spaces, record_criterion):
    ok = True
    for p in (1.0, 2.0, 3.0):
        for space in averaged_spaces.values():
            q, f, _, coc = _averaged_instance(space, p)
            prof = bl.profile(f)
            length = q.distance_from_identity()
            for x in q.elements():
                t = int(length[x])
                if t == 0:
                    continue
                nrm = coc.norm(x)
                lo, hi = prof.rho_minus[t], prof.rho_plus[t]
                ok = ok and lo - 1e-9 <= nrm <= hi + 1e-9
    record_criterion(3, "averaged cocycle norms stay inside the profile envelopes", ok)


def test_criterion_4_trivial_fibration_all_subsets(make_chain, record_criterion):
    ok = True
    for chain in (make_chain(2, 4), make_chain(8), make_chain(12)):
        space = bl.assemble_box_space(chain)
        assert space.point_count() <= 16
        fib = bl.trivial_fibration(bl.linf_embedding(space))
        controls = bl.identity_controls(range(space.diameter() + 1))
        for r in range(2, space.diameter() + 1):
            report = bl.verify_fce(
                fib, r, controls.rho_minus, controls.rho_plus, mode="all"
            )
            ok = ok and report.passed and report.set_count > 0
    record_criterion(4, "trivial fibrations pass the all-subsets check at every scale", ok)


def test_criterion_5_translation_fibrations(deep_space, record_criterion):
    start = time.perf_counter()
    ok = True
    for p in (1.0, 2.0):
        fib = bl.from_proper_action(deep_space, bl.translation_action(1, p), r_max=5)
        for r in range(1, 6):
            controls = bl.identity_controls(range(r + 2))
            report = bl.verify_fce(fib, r, controls.rho_minus, controls.rho_plus)
            ok = ok and report.passed
    elapsed = time.perf_counter() - start
    record_criterion(
        5, "translation fibrations over the dyadic tower verify at r <= 5",
        ok and elapsed < 10.0,
    )


def test_criterion_6_localized_cocycles(line_fibrations, dyadic_space, record_criterion):
    ok = True
    for fib in line_fibrations.values():
        coc = bl.local_cocycle_from_fce(fib, 4)
        report = bl.verify_local_action(coc.companion, coc, tolerance=1e-9)
        ok = ok and report.passed and report.identity_checked == 37

    # against the independent averaged construction: identity trivializations
    # compare sections in the opposite order, so the blocks negate exactly
    f = bl.linf_embedding(dyadic_space)
    loc = bl.local_cocycle_from_fce(bl.trivial_fibration(f), 2)
    q = loc.carrier.quotient
    rows = np.stack([f.table[bl.BoxPoint(1, z)] for z in q.elements()])
    _, avg = bl.averaged_cocycle(rows, q, f.p)
    lives = [x for x in q.elements() if loc.live(x)]
    ok = ok and sorted(lives) == [0, 1, 7]
    for x in lives:
        ok = ok and np.array_equal(loc.value(x), -avg.value(x))
    record_criterion(6, "localized cocycles obey the law and negate the averaged form", ok)


def test_criterion_7_family_norms(deep_space, record_criterion):
    fib = bl.from_proper_action(deep_space, bl.translation_action(1, 1.0), r_max=6)
    family = bl.family_from_fce(fib, range(2, 7))
    chain = deep_space.chain
    elements = [g for t in range(4) for g in bl.ambient_sphere(chain, t)]
    controls = bl.identity_controls(range(4))
    report = bl.ultraproduct_hypothesis_check(
        family, elements, controls.rho_minus, controls.rho_plus
    )
    ok = report.passed and len(report.rows) == 7
    for _, n, seq, upper_ok, lower_ok, const in report.rows:
        ok = ok and upper_ok and lower_ok and const
        for r, v in seq.items():
            ok = ok and v == (float(n) if r > n else 0.0)
    record_criterion(7, "family norms are exactly the word length on live scales", ok)


def _radius_oracle(m: int) -> int:
    """First length whose breadth-first distance in the cycle falls short."""
    dist = [-1] * m
    dist[0] = 0
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in ((x + 1) % m, (x - 1) % m):
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    t = 1
    while dist[t % m] == t:
        t += 1
    return t


def test_criterion_8_projection_radius(make_chain, record_criterion):
    ok = True
    for m in range(2, 33):
        chain = make_chain(m)
        ok = ok and chain.radius(0) == m // 2 + 1 == _radius_oracle(m)
    record_criterion(8, "projection radius matches the closed form and brute force", ok)


def test_criterion_9_pnorm_combination(record_criterion):
    rng = np.random.default_rng(90)
    ok = True
    for _ in range(1000):
        p = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
        n = int(rng.integers(1, 9))
        lower = float(rng.uniform(0.0, 5.0))
        upper = lower + float(rng.uniform(0.0, 5.0))
        blocks = rng.uniform(lower, upper, size=n)
        report = bl.pnorm_power_check(n, p, blocks, lower, upper)
        ok = ok and report.passed and report.precondition_ok
    record_criterion(9, "block p-norm combination bound holds on random data", ok)


def test_criterion_10_cycle_gaps(make_chain, record_criterion):
    ok = True
    for n in range(3, 65):
        q = make_chain(n).levels[0]
        gap = bl.laplacian_gap(q)
        ok = ok and abs(gap - (1.0 - math.cos(2.0 * math.pi / n))) <= 1e-9
    record_criterion(10, "cycle spectral gaps match one minus cosine", ok)


def test_criterion_11_mutation_detection(line_fibrations, record_criterion):
    rng = np.random.default_rng(11)

    # one corrupted coordinate in one stored cocycle value
    coc = bl.local_cocycle_from_fce(line_fibrations[2.0], 4)
    rep = coc.companion
    live = sorted(coc.values)
    caught_values = 0
    for _ in range(100):
        x = int(rng.choice(live))
        z = int(rng.integers(coc.carrier.size))
        c = int(rng.integers(coc.dim))
        old = coc.values[x][z, c]
        coc.values[x][z, c] = old + 1.0 + float(rng.uniform(0.0, 1.0))
        report = bl.verify_local_action(rep, coc, tolerance=1e-9)
        if not report.passed:
            caught_values += 1
        coc.values[x][z, c] = old

    # one flipped sign in one served trivialization
    base = line_fibrations[1.0]
    space = base.space
    dist = space.distance_matrix()
    allowed = [pt for pt in space.points() if pt not in base.excluded(5)]
    balls = sorted(
        {
            tuple(
                sorted(
                    y
                    for y in allowed
                    if dist[space.point_index(x), space.point_index(y)] <= 2
                )
            )
            for x in allowed
        }
    )
    flip = bl.AffineIsometry(base.p, bl.SignedPermutation((0,), (-1,)), np.zeros(1))
    controls = bl.identity_controls(range(7))
    caught_trivs = 0
    clean = {}  # the base oracle's rows per (set, scale), served once for all mutants
    for _ in range(100):
        target_set = balls[int(rng.integers(len(balls)))]
        target_pt = target_set[int(rng.integers(len(target_set)))]

        def corrupt(C, r, _set=target_set, _pt=target_pt):
            if (C, r) not in clean:
                clean[C, r] = served_dict(base, C, r)
            triv = dict(clean[C, r])
            if tuple(C) == _set:
                triv[_pt] = flip.compose(triv[_pt])
            return triv

        mutant = bl.FibredEmbedding(
            space=space,
            p=base.p,
            dim=base.dim,
            section=base.section,
            exclusion=base.exclusion,
            trivialization=stacked(corrupt, base.dim),
            note="one sign flipped",
        )
        report = bl.verify_fce(
            mutant, 5, controls.rho_minus, controls.rho_plus, mode="balls"
        )
        if not report.passed:
            caught_trivs += 1

    ok = caught_values == 100 and caught_trivs == 100
    record_criterion(11, "every single corruption is caught by the verifiers", ok)
