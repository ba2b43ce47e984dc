"""Command line front end.

Subcommands: build, profile, fce-verify, forge, spectral.  Exit codes: 0 all
checks pass, 1 a verification failed (witnesses are printed), 2 malformed
input or usage, 3 an internal error (its traceback is printed).  File
outputs are plain CSV with no timestamps, so repeated runs over the same
inputs produce byte-identical bodies.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path

import numpy as np

from .boxspace import BoxPoint, assemble_box_space, format_point
from .chainspec import load_chain
from .cocycles import (
    averaged_cocycle,
    family_from_fce,
    lift_to_group,
    local_cocycle_from_fce,
    ultraproduct_hypothesis_check,
    verify_local_action,
)
from .embedding import (
    CoarseEmbeddingMap,
    cycle_plane_embedding,
    linf_embedding,
    norm_equivalence_controls,
    profile,
    torus_coordinate_embedding,
    verify_coarse,
)
from .errors import BoxlabError, SpecFormatError
from .fibration import from_proper_action, translation_action, trivial_fibration, verify_fce
from .groups import _ambient_spheres, ambient_word_length
from .spectral import expander_scan, write_gap_csv

__all__ = ["main", "run"]

_BUILTIN_EMBEDDINGS = ("linf", "cycle-plane", "torus-lp")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.12g" % float(v)


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return math.inf
    try:
        p = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a norm exponent: {text!r}") from None
    if p < 1:
        raise argparse.ArgumentTypeError(f"norm exponent must be >= 1, got {text}")
    return p


def _parse_tolerance(text: str) -> float:
    try:
        tolerance = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(tolerance):
        raise argparse.ArgumentTypeError(f"tolerance must be finite, got {text}")
    return tolerance


def _write_lines(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _out_dir(args) -> Path | None:
    return Path(args.out) if args.out else None


def _read_controls(path) -> tuple[dict, dict]:
    lo: dict[int, float] = {}
    hi: dict[int, float] = {}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    body = [
        (n, ln) for n, ln in enumerate(lines, start=1) if ln.strip() and not ln.startswith("#")
    ]
    if not body or body[0][1].strip() != "t,rho_minus,rho_plus":
        raise SpecFormatError(f"{path}: expected header 't,rho_minus,rho_plus'")
    for number, ln in body[1:]:
        where = f"{path}, line {number}"
        parts = ln.split(",")
        if len(parts) != 3:
            raise SpecFormatError(f"{where}: row has {len(parts)} fields, expected 3")
        try:
            t, low, high = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError:
            raise SpecFormatError(f"{where}: bad number in row {ln!r}") from None
        if not (math.isfinite(low) and math.isfinite(high)):
            raise SpecFormatError(f"{where}: non-finite value in row {ln!r}")
        if t in lo:
            raise SpecFormatError(f"{where}: duplicate row for t={t}")
        lo[t], hi[t] = low, high
    return lo, hi


def _control_lines(lo: dict, hi: dict) -> list[str]:
    lines = ["t,rho_minus,rho_plus"]
    for t in sorted(set(lo) | set(hi)):
        lines.append(f"{t},{_fmt(lo[t])},{_fmt(hi[t])}")
    return lines


def _embedding_lines(f: CoarseEmbeddingMap) -> list[str]:
    head = ",".join(["level", "element"] + [f"c_{k + 1}" for k in range(f.dim)])
    lines = [f"# p={_fmt(f.p)} dim={f.dim}", head]
    for pt in f.domain.points():
        coords = ",".join(_fmt(v) for v in f(pt))
        lines.append(f"{pt.level},{pt.element},{coords}")
    return lines


def _read_embedding_csv(path, space) -> CoarseEmbeddingMap:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# p="):
        raise SpecFormatError(f"{path}: expected a '# p=<p> dim=<dim>' header line")
    try:
        fields = dict(part.split("=", 1) for part in lines[0][2:].split())
        p = _parse_p(fields["p"])
        dim = int(fields["dim"])
    except (ValueError, KeyError, argparse.ArgumentTypeError) as exc:
        raise SpecFormatError(f"{path}: bad header: {exc}") from None
    table = {}
    for number, ln in enumerate(lines[2:], start=3):
        if not ln.strip():
            continue
        where = f"{path}, line {number}"
        parts = ln.split(",")
        if len(parts) != 2 + dim:
            raise SpecFormatError(f"{where}: row has {len(parts)} fields, expected {2 + dim}")
        try:
            pt = BoxPoint(int(parts[0]), int(parts[1]))
            vec = np.array([float(v) for v in parts[2:]])
        except ValueError:
            raise SpecFormatError(f"{where}: bad number in row {ln!r}") from None
        if not np.isfinite(vec).all():
            raise SpecFormatError(f"{where}: non-finite value in row {ln!r}")
        if not space.contains(pt):
            raise SpecFormatError(f"{where}: point {format_point(pt)} is outside the space")
        if pt in table:
            raise SpecFormatError(f"{where}: duplicate row for point {format_point(pt)}")
        table[pt] = vec
    try:
        return CoarseEmbeddingMap(space, p, dim, table)
    except ValueError as exc:
        raise SpecFormatError(f"{path}: {exc}") from None


def _resolve_embedding(name: str, space, p: float | None) -> CoarseEmbeddingMap:
    if name == "linf":
        return linf_embedding(space)
    if name == "cycle-plane":
        return cycle_plane_embedding(space, p if p is not None else 2.0)
    if name == "torus-lp":
        return torus_coordinate_embedding(space, p if p is not None else 2.0)
    if Path(name).exists():
        return _read_embedding_csv(name, space)
    raise SpecFormatError(
        f"unknown embedding {name!r}: expected one of {', '.join(_BUILTIN_EMBEDDINGS)}"
        " or a path to an embedding CSV"
    )


# -- build -------------------------------------------------------------------

_DISTANCE_DUMP_CAP = 2048


def cmd_build(args) -> int:
    chain = load_chain(args.chain)
    space = assemble_box_space(chain)
    print(f"chain over {chain.ambient.family} of rank {chain.ambient.rank}")
    for i, q in enumerate(chain.levels):
        print(
            f"  level {i}: order {q.order}, diameter {q.diameter()},"
            f" isometry radius {chain.radius(i)}"
        )
    seps = ",".join(str(s) for s in space.separations)
    print(f"separations: {seps if seps else '(single level)'}")
    print(f"box space: {space.point_count()} points, diameter {space.diameter()}")
    if chain.validation_note:
        print(chain.validation_note)
    out = _out_dir(args)
    if out is not None:
        levels = ["level,order,diameter,radius"]
        for i, q in enumerate(chain.levels):
            levels.append(f"{i},{q.order},{q.diameter()},{chain.radius(i)}")
        _write_lines(out / "levels.csv", levels)
        seps_lines = ["index,separation"]
        seps_lines += [f"{i},{s}" for i, s in enumerate(space.separations)]
        _write_lines(out / "separations.csv", seps_lines)
        if space.point_count() <= _DISTANCE_DUMP_CAP:
            names = [format_point(pt) for pt in space.points()]
            dist = space.distance_matrix()
            cells = [f",{y}," for y in names]
            ends = [f"{d}\n" for d in range(space.diameter() + 1)]
            # one matrix row at a time, so the dump never holds all pairs; each
            # row's (x, ",y,", "d\n") triples are filled by slices, not a Python loop
            with open(out / "distances.csv", "w", encoding="utf-8", newline="\n") as fh:
                fh.write("point,point,distance\n")
                for i, x in enumerate(names[:-1]):
                    parts = [x] * (3 * (len(names) - 1 - i))
                    parts[1::3] = cells[i + 1 :]
                    parts[2::3] = map(ends.__getitem__, dist[i, i + 1 :].tolist())
                    fh.write("".join(parts))
        else:
            print(
                f"distance dump skipped: {space.point_count()} points exceed the cap"
                f" of {_DISTANCE_DUMP_CAP}"
            )
        print(f"wrote {out}/levels.csv, separations.csv" + (
            ", distances.csv" if space.point_count() <= _DISTANCE_DUMP_CAP else ""
        ))
    return 0


# -- profile -----------------------------------------------------------------


def cmd_profile(args) -> int:
    chain = load_chain(args.chain)
    space = assemble_box_space(chain)
    f = _resolve_embedding(args.embedding, space, args.p)
    ctrl = profile(f)
    print(f"profile of {args.embedding} (p={_fmt(f.p)}, dim={f.dim}):")
    for t in ctrl.realized_distances():
        print(f"  t={t}: rho_minus={_fmt(ctrl.rho_minus[t])} rho_plus={_fmt(ctrl.rho_plus[t])}")
    out = _out_dir(args)
    if out is not None:
        _write_lines(out / "profile.csv", _control_lines(ctrl.rho_minus, ctrl.rho_plus))
        print(f"wrote {out}/profile.csv")
        if args.dump_map:
            _write_lines(out / "embedding.csv", _embedding_lines(f))
            print(f"wrote {out}/embedding.csv")
    if args.controls:
        lo, hi = _read_controls(args.controls)
        report = verify_coarse(f, lo, hi, tolerance=args.tolerance)
        print(report.to_text())
        if not report.passed:
            return 1
    return 0


# -- fce-verify ----------------------------------------------------------------


def _make_fibration(spec: str, space, p: float | None, r: int):
    """Return (fibration, default controls) for a fibration description."""
    if spec == "translation":
        rank = space.chain.ambient.rank
        p = p if p is not None else 2.0
        fib = from_proper_action(space, translation_action(rank, p), r_max=max(r, 1))
        ctrl = norm_equivalence_controls(range(max(r + 1, 2) + 1), rank, p)
        return fib, (ctrl.rho_minus, ctrl.rho_plus)
    if spec.startswith("trivial:"):
        f = _resolve_embedding(spec.split(":", 1)[1], space, p)
        fib = trivial_fibration(f)
        ctrl = profile(f)
        return fib, (ctrl.rho_minus, ctrl.rho_plus)
    raise SpecFormatError(
        f"unknown fibration {spec!r}: expected 'translation' or 'trivial:<embedding>'"
    )


def cmd_fce_verify(args) -> int:
    chain = load_chain(args.chain)
    space = assemble_box_space(chain)
    fib, (lo, hi) = _make_fibration(args.fibration, space, args.p, args.r)
    if args.controls:
        lo, hi = _read_controls(args.controls)
    report = verify_fce(
        fib, args.r, lo, hi, mode=args.subsets, tolerance=args.tolerance
    )
    print(report.to_text())
    out = _out_dir(args)
    if out is not None:
        _write_lines(out / "report.txt", report.to_text().splitlines())
        print(f"wrote {out}/report.txt")
    return 0 if report.passed else 1


# -- forge ---------------------------------------------------------------------


def _ambient_label(g) -> str:
    return ";".join(str(c) for c in g)


def _cocycle_lines(coc, label_of, domain) -> list[str]:
    head = ",".join(["g", "block"] + [f"c_{k + 1}" for k in range(coc.dim)])
    scale = coc.r if coc.r is not None else "global"
    lines = [
        f"# p={_fmt(coc.p)} dim={coc.dim} blocks={coc.carrier.size} scale={scale}",
        head,
    ]
    for g in domain:
        blocks = coc.value(g)
        for z in range(coc.carrier.size):
            coords = ",".join(_fmt(v) for v in blocks[z])
            lines.append(f"{label_of(g)},{z},{coords}")
    return lines


def _lift_lines(lifted, ball) -> list[str]:
    lines = [f"# p={_fmt(lifted.p)} scale={lifted.r} level={lifted.level}", "g,length,norm"]
    for g in ball:
        n = ambient_word_length(lifted.chain, g)
        lines.append(f"{_ambient_label(g)},{n},{_fmt(lifted.norm(g))}")
    return lines


def _family_lines(family, elements) -> list[str]:
    lines = ["g,length,r,norm"]
    for g in elements:
        n = ambient_word_length(family.chain, g)
        for r in family.scales():
            lines.append(f"{_ambient_label(g)},{n},{r},{_fmt(family.members[r].norm(g))}")
    return lines


def _ambient_ball(chain, radius: int) -> list[tuple]:
    return [g for sphere in _ambient_spheres(chain, radius) for g in sorted(sphere)]


def _replay(path, lines) -> int:
    want = "\n".join(lines) + "\n"
    got = Path(path).read_text(encoding="utf-8")
    if got == want:
        print(f"replay verified: {path} matches regeneration ({len(lines)} lines)")
        return 0
    want_lines = want.splitlines()
    got_lines = got.splitlines()
    for i, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            print(f"replay mismatch at line {i}: file has {a!r}, regeneration has {b!r}")
            return 1
    print(
        f"replay mismatch: file has {len(got_lines)} lines,"
        f" regeneration has {len(want_lines)}"
    )
    return 1


def cmd_forge(args) -> int:
    chain = load_chain(args.chain)
    space = assemble_box_space(chain)
    out = _out_dir(args)

    if args.mode == "averaged":
        level = args.level if args.level is not None else 0
        if not 0 <= level < chain.level_count():
            raise SpecFormatError(f"level {level} out of range")
        q = chain.levels[level]
        f = _resolve_embedding(args.embedding, space, args.p)
        if args.p is not None and args.p != f.p:
            raise SpecFormatError(
                f"--p {_fmt(args.p)} disagrees with p={_fmt(f.p)} of embedding {args.embedding!r}"
            )
        table = np.stack([f(BoxPoint(level, x)) for x in q.elements()])
        rep, coc = averaged_cocycle(table, q, f.p)
        report = verify_local_action(rep, coc, tolerance=args.tolerance)
        lines = _cocycle_lines(coc, str, list(q.elements()))
    elif args.mode in ("fce", "lift"):
        r = args.r if args.r is not None else 4
        fib, _ = _make_fibration("translation", space, args.p, r)
        coc = local_cocycle_from_fce(fib, r)
        report = verify_local_action(coc.companion, coc, tolerance=args.tolerance)
        if args.mode == "fce":
            lines = _cocycle_lines(coc, str, coc.elements.tolist())
        else:
            lifted = lift_to_group(coc, chain)
            lines = _lift_lines(lifted, _ambient_ball(chain, r))
    elif args.mode == "ultra":
        r = args.r if args.r is not None else 6
        if r < 2:
            raise SpecFormatError(f"ultra mode needs a top scale >= 2, got {r}")
        # the fibration's default controls reach length r + 1 >= 3, the ball's radius
        fib, (lo, hi) = _make_fibration("translation", space, args.p, r)
        family = family_from_fce(fib, range(2, r + 1))
        elements = _ambient_ball(chain, 3)
        report = ultraproduct_hypothesis_check(family, elements, lo, hi, tolerance=args.tolerance)
        lines = _family_lines(family, elements)
    else:
        raise SpecFormatError(f"unknown forge mode {args.mode!r}")

    print(report.to_text())
    if args.replay:
        code = _replay(args.replay, lines)
        return code if code else (0 if report.passed else 1)
    if out is not None:
        name = {"averaged": "cocycle.csv", "fce": "cocycle.csv", "lift": "lift.csv",
                "ultra": "family.csv"}[args.mode]
        _write_lines(out / name, lines)
        _write_lines(out / "report.txt", report.to_text().splitlines())
        print(f"wrote {out}/{name}, report.txt")
    return 0 if report.passed else 1


# -- spectral --------------------------------------------------------------------


def cmd_spectral(args) -> int:
    chain = load_chain(args.chain)
    scan = expander_scan(chain, args.epsilon)
    print(scan.to_text())
    out = _out_dir(args)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_gap_csv(scan, out / "gaps.csv")
        print(f"wrote {out}/gaps.csv")
    return 0 if scan.verdict else 1


# -- parser ----------------------------------------------------------------------


def _add_common(sub, *, tolerance=True):
    sub.add_argument("--chain", required=True, help="path to a chain JSON file")
    sub.add_argument("--out", help="directory for CSV/report output")
    if tolerance:
        sub.add_argument(
            "--tolerance", type=_parse_tolerance, default=1e-9, help="comparison tolerance"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxlab",
        description="Box spaces of quotient chains: metric assembly, coarse"
        " embedding profiles, fibred embedding verification, cocycle"
        " localization, spectral gap scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="assemble a box space and dump its metric")
    _add_common(b, tolerance=False)
    b.set_defaults(func=cmd_build)

    pr = sub.add_parser("profile", help="control pair attained by an embedding")
    _add_common(pr)
    pr.add_argument(
        "--embedding",
        default="linf",
        help="builtin name (linf, cycle-plane, torus-lp) or embedding CSV path",
    )
    pr.add_argument("--p", type=_parse_p, default=None, help="norm exponent (or 'inf')")
    pr.add_argument("--controls", help="control CSV to verify against")
    pr.add_argument(
        "--dump-map", action="store_true", help="also write the embedding table CSV"
    )
    pr.set_defaults(func=cmd_profile)

    fv = sub.add_parser("fce-verify", help="check the two fibred-embedding conditions")
    _add_common(fv)
    fv.add_argument(
        "--fibration",
        default="translation",
        help="'translation' or 'trivial:<embedding>'",
    )
    fv.add_argument("--r", type=int, required=True, help="scale to verify at")
    fv.add_argument("--p", type=_parse_p, default=None, help="norm exponent (or 'inf')")
    fv.add_argument(
        "--subsets",
        choices=("balls", "pairs", "balls+pairs", "all"),
        default="balls+pairs",
        help="witness set family",
    )
    fv.add_argument("--controls", help="control CSV (translation default: t*k^(1/p-1) <= rho <= t)")
    fv.set_defaults(func=cmd_fce_verify)

    fg = sub.add_parser("forge", help="build and verify cocycles")
    _add_common(fg)
    fg.add_argument(
        "--mode", choices=("averaged", "fce", "lift", "ultra"), required=True,
        help="ultra checks the norms on Z^k against t*k^(1/p-1) <= norm <= t",
    )
    fg.add_argument("--level", type=int, default=None, help="carrier level (averaged)")
    fg.add_argument("--r", type=int, default=None, help="scale (fce/lift) or top scale (ultra)")
    fg.add_argument("--p", type=_parse_p, default=None, help="norm exponent (or 'inf')")
    fg.add_argument(
        "--embedding", default="linf", help="map to average (averaged mode)"
    )
    fg.add_argument(
        "--replay",
        help="compare the regenerated dump against an existing file instead of writing",
    )
    fg.set_defaults(func=cmd_forge)

    sp = sub.add_parser("spectral", help="per-level spectral gaps and expansion verdict")
    _add_common(sp, tolerance=False)
    sp.add_argument(
        "--epsilon", type=float, default=1e-3, help="gap threshold for the verdict"
    )
    sp.set_defaults(func=cmd_spectral)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BoxlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # anything else is a fault of the program, not of its input: print its
        # traceback as an uncaught exception would, and exit 3
        sys.excepthook(*sys.exc_info())
        return 3


def run(argv=None) -> int:
    """Process entry point: ``main``, then a process exit that skips collecting numpy's cycles.

    At exit the interpreter clears the module dicts and runs full collections
    that free numpy's whole cyclic module graph.  ``gc.freeze`` moves every
    tracked object to the permanent generation, so those collections skip
    them and the OS reclaims the memory.  On a 2 vCPU Xeon with Python 3.11
    and numpy 2.4, the exit of a benchmark command fell from about 30 ms to
    about 8.5 ms.  Every output file is closed inside ``main``, and the
    standard streams are flushed before the modules are torn down, so no
    output depends on collecting cycles.  ``main`` itself makes no GC call,
    because tests run it in process.
    """
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
