"""Command line front end.

Subcommands: build, profile, fce-verify, forge, spectral.  Exit codes: 0 all
checks pass, 1 a verification failed (witnesses are printed), 2 malformed
input or usage, 3 an internal error (its traceback is printed).  File
outputs are plain CSV with no timestamps, so repeated runs over the same
inputs produce byte-identical bodies.

One table, ``_SUBCOMMANDS``, describes every subcommand and flag.  ``_parse``
reads a well-formed command line from it without importing argparse; help,
usage errors and every other line go to the argparse parser built from the
same table, with argparse's own text and exit code.
"""

from __future__ import annotations

import gc
import math
import os
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

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
    _difference_dtype,
    cycle_plane_embedding,
    linf_embedding,
    norm_equivalence_controls,
    profile,
    torus_coordinate_embedding,
    verify_coarse,
)
from .errors import BoxlabError, SpecFormatError
from .fibration import MODES, from_proper_action, translation_action, trivial_fibration, verify_fce
from .groups import _ambient_spheres, ambient_word_length
from .spectral import expander_scan, write_gap_csv

__all__ = ["main", "run"]

_BUILTIN_EMBEDDINGS = ("linf", "cycle-plane", "torus-lp")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.12g" % float(v)


def _refuse(message: str) -> NoReturn:
    # argparse reports a refused value; a well-formed command line never imports it
    import argparse

    raise argparse.ArgumentTypeError(message)


def _norm_exponent(text: str) -> float:
    """``text`` as a norm exponent, a number >= 1 or 'inf'; ValueError with the reason if not."""
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return math.inf
    try:
        p = float(text)
    except ValueError:
        raise ValueError(f"not a norm exponent: {text!r}") from None
    if not p >= 1:  # NaN too
        raise ValueError(f"norm exponent must be >= 1, got {text}")
    return p


def _parse_p(text: str) -> float:
    try:
        return _norm_exponent(text)
    except ValueError as exc:
        _refuse(str(exc))


def _parse_tolerance(text: str) -> float:
    try:
        tolerance = float(text)
    except ValueError:
        _refuse(f"invalid float value: {text!r}")
    if not math.isfinite(tolerance):
        _refuse(f"tolerance must be finite, got {text}")
    if tolerance < 0:
        _refuse(f"tolerance must not be negative, got {text}")
    return tolerance


def _write_lines(path: Path, lines) -> None:
    """Each line of an iterable, as it comes, with a newline after it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(f"{line}\n")


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


def _coordinate_lines(comment: str, keys: str, dim: int, rows):
    """Yields ``comment``, the column names, then ``label,c_1,...`` per ``(label, row)`` of
    ``rows``, entries as ``_fmt`` writes them: an integer row with ``str``, from one ``tolist``."""
    yield comment
    yield ",".join([keys] + [f"c_{k + 1}" for k in range(dim)])
    for label, row in rows:
        fmt = str if row.dtype.kind in "iu" else _fmt
        yield f"{label},{','.join(map(fmt, row.tolist()))}"


def _embedding_lines(f: CoarseEmbeddingMap):
    labels = (f"{pt.level},{pt.element}" for pt in f.domain.points())
    comment = f"# p={_fmt(f.p)} dim={f.dim}"
    return _coordinate_lines(comment, "level,element", f.dim, zip(labels, f.matrix()))


def _read_embedding_csv(path, space) -> CoarseEmbeddingMap:
    """Rows parsed by ``float`` into one matrix, allocated once the first row is placed.

    The file is read a line at a time, and each line split as ``str.splitlines``
    splits the whole text, so messages number the same logical lines."""
    with open(path, encoding="utf-8") as fh:
        lines = (ln for physical in fh for ln in physical.splitlines())
        header = next(lines, "")
        if not header.startswith("# p="):
            raise SpecFormatError(f"{path}: expected a '# p=<p> dim=<dim>' header line")
        try:
            fields = dict(part.split("=", 1) for part in header[2:].split())
            p = _norm_exponent(fields["p"])
            dim = int(fields["dim"])
            if dim < 0:
                raise ValueError(f"dim must be >= 0, got {dim}")
        except (ValueError, KeyError) as exc:
            raise SpecFormatError(f"{path}: bad header: {exc}") from None
        next(lines, None)  # the column names
        first = space.level_starts().tolist()
        placed = np.zeros(first[-1], dtype=bool)
        matrix = None
        for number, ln in enumerate(lines, start=3):
            if not ln.strip():
                continue
            where = f"{path}, line {number}"
            parts = ln.split(",")
            if len(parts) != 2 + dim:
                raise SpecFormatError(f"{where}: row has {len(parts)} fields, expected {2 + dim}")
            try:
                level, element = int(parts[0]), int(parts[1])
                vec = np.fromiter(map(float, parts[2:]), dtype=np.float64, count=dim)
            except ValueError:
                raise SpecFormatError(f"{where}: bad number in row {ln!r}") from None
            if not np.isfinite(vec).all():
                raise SpecFormatError(f"{where}: non-finite value in row {ln!r}")
            if not (0 <= level < len(first) - 1 and 0 <= element < first[level + 1] - first[level]):
                point = format_point(BoxPoint(level, element))
                raise SpecFormatError(f"{where}: point {point} is outside the space")
            k = first[level] + element
            if placed[k]:
                point = format_point(BoxPoint(level, element))
                raise SpecFormatError(f"{where}: duplicate row for point {point}")
            # held in the narrowest exact dtype of the rows so far, as the map holds it
            if matrix is None:
                matrix = np.empty((len(placed), dim), dtype=_difference_dtype(vec))
            elif (wider := np.promote_types(matrix.dtype, _difference_dtype(vec))) != matrix.dtype:
                matrix = matrix.astype(wider)
            matrix[k], placed[k] = vec, True
    if not placed.all():
        missing = format_point(space.points()[int(np.argmin(placed))])
        raise SpecFormatError(f"{path}: table missing point {missing}")
    return CoarseEmbeddingMap(space, p, dim, matrix)


def _resolve_embedding(name: str, space, p: float | None) -> CoarseEmbeddingMap:
    """The embedding ``name`` at ``--p``; ``linf`` and an embedding CSV fix their own
    p, and a ``--p`` that disagrees with it is refused."""
    if name == "cycle-plane":
        return cycle_plane_embedding(space, p if p is not None else 2.0)
    if name == "torus-lp":
        return torus_coordinate_embedding(space, p if p is not None else 2.0)
    if name == "linf":
        f = linf_embedding(space)
    elif Path(name).exists():
        f = _read_embedding_csv(name, space)
    else:
        raise SpecFormatError(
            f"unknown embedding {name!r}: expected one of {', '.join(_BUILTIN_EMBEDDINGS)}"
            " or a path to an embedding CSV"
        )
    if p is not None and p != f.p:
        raise SpecFormatError(f"--p {_fmt(p)} disagrees with p={_fmt(f.p)} of embedding {name!r}")
    return f


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
            ends = np.array([f"{d}\n" for d in range(space.diameter() + 1)], dtype=object)
            # one matrix row at a time, so the dump never holds all pairs; each
            # row's (x, ",y,", "d\n") triples are filled by slices and one gather
            with open(out / "distances.csv", "w", encoding="utf-8", newline="\n") as fh:
                fh.write("point,point,distance\n")
                for i, x in enumerate(names[:-1]):
                    parts = [x] * (3 * (len(names) - 1 - i))
                    parts[1::3] = cells[i + 1 :]
                    parts[2::3] = ends[dist[i, i + 1 :]].tolist()
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
    """Return (fibration, default controls) for a fibration description; the
    controls come as a call returning a ``ControlPair``, made only where read."""
    if spec == "translation":
        rank = space.chain.ambient.rank
        p = p if p is not None else 2.0
        # no level serves a scale past half its isometry radius, so the
        # precheck need not reach further
        chain = space.chain
        top = max(chain.radius(i) for i in range(chain.level_count())) // 2
        fib = from_proper_action(space, translation_action(rank, p), r_max=max(1, min(r, top)))
        # verify_fce reads the controls up to the diameter, forge --mode ultra
        # up to length 3: no further, however large r is
        reach = min(max(r + 1, 2), max(space.diameter(), 3))
        return fib, partial(norm_equivalence_controls, range(reach + 1), rank, p)
    if spec.startswith("trivial:"):
        f = _resolve_embedding(spec.split(":", 1)[1], space, p)
        return trivial_fibration(f), partial(profile, f)
    raise SpecFormatError(
        f"unknown fibration {spec!r}: expected 'translation' or 'trivial:<embedding>'"
    )


def cmd_fce_verify(args) -> int:
    chain = load_chain(args.chain)
    space = assemble_box_space(chain)
    fib, controls = _make_fibration(args.fibration, space, args.p, args.r)
    if args.controls:
        lo, hi = _read_controls(args.controls)
    else:
        ctrl = controls()
        lo, hi = ctrl.rho_minus, ctrl.rho_plus
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
    scale = coc.r if coc.r is not None else "global"
    comment = f"# p={_fmt(coc.p)} dim={coc.dim} blocks={coc.carrier.size} scale={scale}"
    rows = ((f"{label_of(g)},{z}", block) for g in domain for z, block in enumerate(coc.value(g)))
    return list(_coordinate_lines(comment, "g,block", coc.dim, rows))  # --replay reads it twice


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

    # the CSV lines are built only to be written or replayed
    if args.mode == "averaged":
        level = args.level if args.level is not None else 0
        if not 0 <= level < chain.level_count():
            raise SpecFormatError(f"level {level} out of range")
        q = chain.levels[level]
        f = _resolve_embedding(args.embedding, space, args.p)
        table = f.matrix()[slice(*space.level_starts()[level : level + 2])]
        rep, coc = averaged_cocycle(table, q, f.p)
        report = verify_local_action(rep, coc, tolerance=args.tolerance)
        render = partial(_cocycle_lines, coc, str, list(q.elements()))
    elif args.mode in ("fce", "lift"):
        r = args.r if args.r is not None else 4
        fib, _ = _make_fibration("translation", space, args.p, r)
        coc = local_cocycle_from_fce(fib, r)
        report = verify_local_action(coc.companion, coc, tolerance=args.tolerance)
        if args.mode == "fce":
            render = partial(_cocycle_lines, coc, str, coc.elements.tolist())
        else:
            lifted = lift_to_group(coc, chain)
            render = partial(_lift_lines, lifted, _ambient_ball(chain, r))
    elif args.mode == "ultra":
        r = args.r if args.r is not None else 6
        if r < 2:
            raise SpecFormatError(f"ultra mode needs a top scale >= 2, got {r}")
        # the fibration's default controls reach length 3, the ball's radius, as r >= 2
        fib, controls = _make_fibration("translation", space, args.p, r)
        ctrl = controls()
        lo, hi = ctrl.rho_minus, ctrl.rho_plus
        family = family_from_fce(fib, range(2, r + 1))
        elements = _ambient_ball(chain, 3)
        report = ultraproduct_hypothesis_check(family, elements, lo, hi, tolerance=args.tolerance)
        render = partial(_family_lines, family, elements)
    else:
        raise SpecFormatError(f"unknown forge mode {args.mode!r}")

    if args.replay or out is not None:
        lines = render()
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

# one flag: argparse's add_argument keywords; its dest is argparse's, the flag
# without its dashes and with "-" read as "_"
_COMMON = {
    "--chain": dict(required=True, help="path to a chain JSON file"),
    "--out": dict(help="directory for CSV/report output"),
}
_TOLERANCE = {
    "--tolerance": dict(type=_parse_tolerance, default=1e-9, help="comparison tolerance"),
}
_P = {"--p": dict(type=_parse_p, default=None, help="norm exponent (or 'inf')")}

# subcommand: (help line, what runs it, its flags in the order its help lists them)
_SUBCOMMANDS = {
    "build": ("assemble a box space and dump its metric", cmd_build, _COMMON),
    "profile": ("control pair attained by an embedding", cmd_profile, {
        **_COMMON,
        **_TOLERANCE,
        "--embedding": dict(
            default="linf", help="builtin name (linf, cycle-plane, torus-lp) or embedding CSV path"
        ),
        **_P,
        "--controls": dict(help="control CSV to verify against"),
        "--dump-map": dict(
            action="store_true", default=False, help="also write the embedding table CSV"
        ),
    }),
    "fce-verify": ("check the two fibred-embedding conditions", cmd_fce_verify, {
        **_COMMON,
        **_TOLERANCE,
        "--fibration": dict(default="translation", help="'translation' or 'trivial:<embedding>'"),
        "--r": dict(type=int, required=True, help="scale to verify at"),
        **_P,
        "--subsets": dict(
            choices=MODES,
            default="balls+pairs",
            help="witness set family",
        ),
        "--controls": dict(help="control CSV (translation default: t*k^(1/p-1) <= rho <= t)"),
    }),
    "forge": ("build and verify cocycles", cmd_forge, {
        **_COMMON,
        **_TOLERANCE,
        "--mode": dict(
            choices=("averaged", "fce", "lift", "ultra"),
            required=True,
            help="ultra checks the norms on Z^k against t*k^(1/p-1) <= norm <= t",
        ),
        "--level": dict(type=int, default=None, help="carrier level (averaged)"),
        "--r": dict(type=int, default=None, help="scale (fce/lift) or top scale (ultra)"),
        **_P,
        "--embedding": dict(default="linf", help="map to average (averaged mode)"),
        "--replay": dict(
            help="compare the regenerated dump against an existing file instead of writing"
        ),
    }),
    "spectral": ("per-level spectral gaps and expansion verdict", cmd_spectral, {
        **_COMMON,
        "--epsilon": dict(type=float, default=1e-3, help="gap threshold for the verdict"),
    }),
}


def _parse(argv) -> SimpleNamespace | None:
    """The namespace argparse gives ``argv``, read without argparse; None where not sure.

    It takes a subcommand followed by its own flags only, each spelled in full as
    ``--flag value`` or ``--flag=value`` (a store-true flag bare), with every value
    converted and within its choices and every required flag given; the last of a
    repeated flag wins, as in argparse.  Anything else, such as help, an
    abbreviation, a positional, ``--``, a missing value or one starting with "-",
    or a refused value, returns None, and argparse parses it, to the same
    namespace or to its own help and error text.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, func, flags = _SUBCOMMANDS[argv[0]]
    given = {}
    words = iter(argv[1:])
    for word in words:
        flag, eq, value = word.partition("=")
        spec = flags.get(flag)
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            value = next(words, "-")  # a missing value is refused as one starting with "-"
        if value.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(value)
        except Exception:  # argparse converts it again and reports the refusal
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    if any(spec.get("required") and flag not in given for flag, spec in flags.items()):
        return None
    values = {
        flag[2:].replace("-", "_"): given.get(flag, spec.get("default"))
        for flag, spec in flags.items()
    }
    return SimpleNamespace(command=argv[0], func=func, **values)


def _build_parser():
    """The argparse parser of every subcommand: help, usage errors, what ``_parse`` leaves."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="boxlab",
        description="Box spaces of quotient chains: metric assembly, coarse"
        " embedding profiles, fibred embedding verification, cocycle"
        " localization, spectral gap scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, func, flags) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, spec in flags.items():
            command.add_argument(flag, **spec)
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv) or _build_parser().parse_args(argv)
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


def run(argv=None) -> NoReturn:
    """Process entry point: ``main``, flushed standard streams, then an exit without teardown.

    The interpreter's teardown of a process that has imported numpy frees the
    whole module graph only to hand its memory back to the OS.  Every output
    file is closed inside ``main``, so after flushing the standard streams
    ``os._exit`` ends the process with ``main``'s code.  A flush that fails,
    as on a closed pipe, exits 120, as the interpreter's own exit does.
    argparse's ``SystemExit`` (usage errors, ``--help``) takes the ordinary
    exit with its own code.  The process is the command's alone, so the
    import's objects are frozen first, out of reach of a full collection.
    Tests call ``main``, which leaves the process alone.
    """
    gc.freeze()
    code = main(argv)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed pipe, or a stream closed under us
        code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
