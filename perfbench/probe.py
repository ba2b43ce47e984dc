"""Timings taken in a fresh interpreter, printed as one JSON object.

    python perfbench/probe.py setup CHAIN   import boxlab, load the chain, assemble its box space
    python perfbench/probe.py reference     fixed work that uses no boxlab code
    python perfbench/probe.py gates         the timed regions of acceptance criteria 1, 2 and 5

The gate readings repeat the timed regions of ``tests/test_acceptance.py``
through the public API, with the same fixtures built outside the clock.
"""

from __future__ import annotations

import json
import sys
import time


def setup(chain_path: str) -> dict:
    start = time.perf_counter()
    import boxlab

    imported = time.perf_counter()
    space = boxlab.assemble_box_space(boxlab.load_chain(chain_path))
    end = time.perf_counter()
    return {"import_s": imported - start, "setup_s": end - start, "points": space.point_count()}


def reference() -> dict:
    """Import numpy, then scalar Python and small-array work of the kind boxlab does.

    It runs no boxlab code, so its time follows only the speed of the host.
    """
    start = time.perf_counter()
    import numpy as np

    table: dict[int, int] = {}
    for i in range(200_000):
        key = (i * 7919) % 1021
        table[key] = min(table.get(key, i), (i * i) % 65521)
    rows = np.arange(200_000, dtype=np.int64).reshape(400, 500) % 997
    for _ in range(5):
        rows = np.sort((rows * 31 + 7) % 997, axis=1)
    checksum = sum(table.values()) + int(rows.sum())
    return {"reference_s": time.perf_counter() - start, "checksum": checksum}


def _cyclic(*moduli, rank: int = 1):
    import boxlab as bl

    levels = [bl.CyclicQuotient([m] * rank) for m in moduli]
    return bl.assemble_box_space(bl.build_chain(bl.AmbientGroup("free_abelian", rank), levels))


def _criterion1() -> tuple[float, bool]:
    import boxlab as bl

    space = _cyclic(4, 8, 16)
    start = time.perf_counter()
    f = bl.linf_embedding(space)
    controls = bl.identity_controls(range(space.diameter() + 1))
    report = bl.verify_coarse(f, controls.rho_minus, controls.rho_plus, tolerance=0.0)
    return time.perf_counter() - start, report.passed


def _criterion2() -> tuple[float, bool]:
    import boxlab as bl

    spaces = [_cyclic(4), _cyclic(8), _cyclic(4, rank=2)]
    start = time.perf_counter()
    ok = True
    for p in (1.0, 2.0, 3.0):
        for space in spaces:
            q = space.chain.levels[0]
            if len(q.moduli) == 1:
                f = bl.cycle_plane_embedding(space, p)
            else:
                f = bl.torus_coordinate_embedding(space, p)
            rep, coc = bl.averaged_cocycle(f.matrix(), q, p)
            ok = ok and bl.verify_local_action(rep, coc, tolerance=1e-12).passed
    q8 = spaces[1].chain.levels[0]
    rep8, coc8 = bl.averaged_cocycle(bl.linf_embedding(spaces[1]).matrix(), q8, 1.0)
    ok = ok and bl.verify_local_action(rep8, coc8, mode="exact").passed
    return time.perf_counter() - start, ok


def _criterion5() -> tuple[float, bool]:
    import boxlab as bl

    space = _cyclic(2, 4, 8, 16, 32, 64)
    start = time.perf_counter()
    ok = True
    for p in (1.0, 2.0):
        fib = bl.from_proper_action(space, bl.translation_action(1, p), r_max=5)
        for r in range(1, 6):
            controls = bl.identity_controls(range(r + 2))
            ok = ok and bl.verify_fce(fib, r, controls.rho_minus, controls.rho_plus).passed
    return time.perf_counter() - start, ok


def gates() -> dict:
    out = {}
    for name, fn in (("criterion1", _criterion1), ("criterion2", _criterion2),
                     ("criterion5", _criterion5)):
        seconds, passed = fn()
        out[name] = {"seconds": seconds, "passed": passed}
    return out


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 3:
        print(json.dumps(setup(sys.argv[2])))
    elif sys.argv[1:] == ["reference"]:
        print(json.dumps(reference()))
    elif sys.argv[1:] == ["gates"]:
        print(json.dumps(gates()))
    else:
        sys.exit(__doc__)
