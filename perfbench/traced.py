"""Run one boxlab command in this process with spans and counters recorded.

    python perfbench/traced.py SPANS_JSON WORKLOAD COMMAND -- ARGV...

Wraps each module's stage functions where their callers look them up (public
ones, plus the connecting-map and radius stages of ``groups``, which have no
public entry point; a stage a refactor has removed is skipped), runs ``boxlab.cli.main(ARGV)``, then writes the spans and
counters to SPANS_JSON and exits with the command's exit code.  The scalar
group-law and isometry methods are wrapped only to count calls.  Spans stay in
memory until the command ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, workload: str, command: str):
        self.workload = workload
        self.command = command
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "workload": self.workload,
                           "command": self.command})
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self.stack.pop()

    def timed(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(result, *args)`` counts at the same boundary."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the stages that exist in this version of boxlab.

    An attribute that a refactor has removed is skipped: its spans are then
    absent and its counters stay 0, and the command still runs and reports.
    """
    from boxlab import boxspace, chainspec, cli, cocycles, fibration, groups, lpspace, spectral

    counts = tracer.counts

    def patch(owner, attr: str, name: str, after=None) -> None:
        fn = getattr(owner, attr, None)
        if owner is not None and callable(fn):
            setattr(owner, attr, tracer.timed(fn, name, after))

    def count(owner, attr: str, name: str) -> None:
        fn = vars(owner).get(attr) if owner is not None else None
        if callable(fn):
            setattr(owner, attr, tracer.counted(fn, name))

    def classes(base) -> list:
        found, todo = [], [base]
        while todo:
            cls = todo.pop()
            found.append(cls)
            todo.extend(cls.__subclasses__())
        return found

    threshold = getattr(groups, "EXHAUSTIVE_THRESHOLD", 512)

    def quotient_built(q, *args):
        counts["groups.sampled_levels"] += q.order > threshold

    patch(cli, "load_chain", "chainspec.load")
    patch(chainspec, "build_quotient", "groups.build_quotient", quotient_built)
    patch(groups, "infer_connecting_map", "groups.connecting_maps")
    patch(groups, "_validate_connecting_map", "groups.connecting_maps")
    patch(groups, "_compute_radius", "groups.radius")
    # every class that defines its own group law or word metric, however
    # the overrides are arranged, counts one call per scalar operation
    for cls in classes(groups.MarkedQuotient):
        count(cls, "mult", "groups.mult_calls")
        count(cls, "cayley_distance", "groups.cayley_distance_calls")

    patch(cli, "assemble_box_space", "boxspace.assemble")
    matrix = boxspace.BoxSpace.distance_matrix
    computed: set[int] = set()

    def distance_matrix(space):
        if id(space) not in computed:
            computed.add(id(space))
            n = space.point_count()
            counts["boxspace.distance_entries"] += n * (n - 1) // 2
        return matrix(space)

    boxspace.BoxSpace.distance_matrix = tracer.timed(distance_matrix, "boxspace.distance_matrix")

    for attr in ("linf_embedding", "cycle_plane_embedding", "torus_coordinate_embedding"):
        patch(cli, attr, "embedding.map")

    def profiled(ctrl, f):
        n = f.domain.point_count()
        counts["embedding.profile_pairs"] += n * (n - 1) // 2

    patch(cli, "profile", "embedding.profile", profiled)

    def serving(fib, *args):
        fib.trivialization = tracer.timed(fib.trivialization, "fibration.serve", served)

    def served(triv, *args):
        counts["fibration.serve_calls"] += 1

    patch(fibration, "_check_action", "fibration.action_check")
    patch(cli, "from_proper_action", "fibration.build", serving)
    patch(cli, "trivial_fibration", "fibration.build", serving)

    def verified(report, *args):
        for attr, name in (("set_count", "witness_sets"), ("sandwich_pairs", "sandwich_pairs"),
                           ("overlap_pairs", "overlap_pairs"),
                           ("vacuous_overlaps", "vacuous_overlaps")):
            counts[f"fibration.{name}"] += getattr(report, attr, 0)

    patch(cli, "verify_fce", "fibration.verify_fce", verified)
    for attr in ("compose", "inverse", "close_to"):
        count(getattr(lpspace, "AffineIsometry", None), attr, f"lpspace.{attr}_calls")
    count(getattr(lpspace, "SignedPermutation", None), "__init__", "lpspace.signed_perm_built")

    def checked(report, rep, coc, *args):
        counts["cocycles.live_pairs"] += getattr(report, "identity_checked", 0)
        carrier = getattr(coc, "carrier", None)
        counts["cocycles.carrier_pairs"] += getattr(carrier, "size", 0) ** 2

    patch(cli, "local_cocycle_from_fce", "cocycles.local_cocycle")
    patch(cli, "verify_local_action", "cocycles.verify_local_action", checked)
    patch(cli, "lift_to_group", "cocycles.lift")
    patch(getattr(cocycles, "LiftedCocycle", None), "norm", "cocycles.lift")

    def scanned(scan, *args):
        rows = getattr(scan, "rows", ())
        counts["spectral.levels_skipped"] += sum(row[-1] is None for row in rows)

    def solved(gap, q, *args):
        order = getattr(q, "order", 0)
        counts["spectral.max_order_solved"] = max(counts["spectral.max_order_solved"], order)

    patch(cli, "expander_scan", "spectral.scan", scanned)
    patch(spectral, "laplacian_gap", "spectral.gap", solved)


def main() -> int:
    spans_path, workload, command, dash, *argv = sys.argv[1:]
    if dash != "--":
        sys.exit(__doc__)
    tracer = Tracer(workload, command)
    top = tracer.open(f"cli.{command}")
    index = tracer.open("cli.import")
    import boxlab.cli

    tracer.close(index)
    try:
        install(tracer)
        code = boxlab.cli.main(argv)
    finally:
        tracer.close(top)
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
