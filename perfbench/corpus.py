"""Seeded chain corpus for the benchmark workloads.

Every chain is generated here and written as a JSON chain description; nothing
is downloaded.  The cyclic chains have nothing to relabel and ignore the seed.
The SL2 chain is given as the regular permutation action of each level, and the
seed relabels the points of every action, so each seed gives a different input
file for the same marked groups.
"""

from __future__ import annotations

import numpy as np

# SL2(Z) generators; their images mark every level of the SL2 chain.
SL2_GENERATORS = (((1, 1), (0, 1)), ((1, 0), (1, 1)))
SL2_MODULI = (3, 9)
TORUS_MODULI = (4, 8, 16)
OVERLAP_MODULUS = 16


def cyclic_chain(moduli, rank: int) -> dict:
    return {
        "ambient": {"family": "free_abelian", "rank": rank},
        "levels": [{"kind": "cyclic", "moduli": [m] * rank} for m in moduli],
    }


def sl2_elements(n: int) -> np.ndarray:
    """All 2x2 matrices over Z/n with determinant 1, as rows (a, b, c, d)."""
    a, b, c, d = (g.ravel() for g in np.meshgrid(*[np.arange(n)] * 4, indexing="ij"))
    keep = (a * d - b * c) % n == 1
    return np.stack([a[keep], b[keep], c[keep], d[keep]], axis=1)


def sl2_level(n: int, rng: np.random.Generator) -> dict:
    """Left-regular action of SL2(Z/n) on its own elements, points relabelled by ``rng``."""
    elems = sl2_elements(n)
    order = len(elems)
    weights = np.array([n**3, n**2, n, 1])
    position = np.full(n**4, -1, dtype=np.int64)
    position[elems @ weights] = np.arange(order)
    label = rng.permutation(order)
    a, b, c, d = elems.T
    gens = []
    for (p, q), (r, s) in SL2_GENERATORS:
        prod = np.stack([p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d], axis=1) % n
        image = position[prod @ weights]
        perm = np.empty(order, dtype=np.int64)
        perm[label] = label[image]
        gens.append(perm.tolist())
    identity = position[np.array([1, 0, 0, 1]) @ weights]
    return {"kind": "permutation", "degree": order, "gens": gens, "base": int(label[identity])}


def sl2_chain(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "ambient": {"family": "free", "rank": 2},
        "levels": [sl2_level(n, rng) for n in SL2_MODULI],
    }


def chain_for(workload: str, seed: int) -> dict:
    if workload == "torus":
        return cyclic_chain(TORUS_MODULI, 2)
    if workload == "overlap-all":
        return cyclic_chain((OVERLAP_MODULUS,), 1)
    if workload == "sl2":
        return sl2_chain(seed)
    raise ValueError(f"unknown workload {workload!r}")

