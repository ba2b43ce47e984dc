"""The workloads: their command sequences and known answers.

Each command is checked for its exit code, a verdict line on standard output,
the byte digest of every CSV it writes and, where one exists, a closed-form or
independently computed oracle on those CSVs.  ``known.json`` holds the SHA-256
of each CSV as the program wrote it when the benchmark was defined (the CSVs
are specified byte-identical across reruns and seeds) and the SL2 isometry
radii, which have no independent oracle here.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

KNOWN = json.loads((Path(__file__).with_name("known.json")).read_text())
# scale of the torus workload's fce-verify and lift
TORUS_R = 2


@dataclass(frozen=True)
class Command:
    name: str  # metric stem of the subcommand
    args: tuple[str, ...]
    exit_code: int
    verdict: str  # a line of standard output must start with this
    files: tuple[str, ...] = ()  # CSVs written under --out, digest-checked
    oracle: Callable | None = None
    controls: str = ""  # control CSV passed as --controls, written beside the outputs

    @property
    def subcommand(self) -> str:
        return self.args[0]

    def argv(self, chain: Path, out: Path) -> list[str]:
        argv = [self.args[0], "--chain", str(chain), *self.args[1:]]
        if self.controls:
            argv += ["--controls", str(out / "controls.csv")]
        return argv + ["--out", str(out)] if self.files else argv


def _rows(path: Path) -> list[list[str]]:
    return [ln.split(",") for ln in path.read_text().splitlines() if not ln.startswith("#")]


def _gap_problems(out: Path, want: dict[int, float], verdict: str) -> list[str]:
    rows = _rows(out / "gaps.csv")[1:]
    problems = []
    for level, order, _, gap in rows:
        expected = want.get(int(order))
        if expected is not None and not math.isclose(float(gap), expected, rel_tol=1e-9):
            problems.append(f"gaps.csv: level {level} gap {gap}, expected {expected:.12g}")
    if (out / "gaps.csv").read_text().splitlines()[-1] != f"# verdict: {verdict} at epsilon 0.001":
        problems.append("gaps.csv: verdict line wrong")
    return problems


def _torus_lift(out: Path, stdout: str, chain: dict) -> list[str]:
    # the lift at scale r is the l2 length below r and 0 from r on
    lines = (out / "lift.csv").read_text().splitlines()
    r = TORUS_R
    problems = [] if lines[0] == f"# p=2 scale={r} level=1" else ["lift.csv: header wrong"]
    seen = set()
    for g, length, norm in (ln.split(",") for ln in lines[2:]):
        a, b = map(int, g.split(";"))
        seen.add((a, b))
        n = abs(a) + abs(b)
        want = math.hypot(a, b) if n < r else 0.0
        if int(length) != n or not math.isclose(float(norm), want, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"lift.csv: row {g} has length {length}, norm {norm}")
    if seen != {(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1) if abs(a) + abs(b) <= r}:
        problems.append(f"lift.csv: rows do not cover the ball of radius {r}")
    return problems


def _sl2_walks(chain: dict) -> list[list[np.ndarray]]:
    """Letter permutations of each level, taken from the generated input."""
    walks = []
    for spec in chain["levels"]:
        perms = [np.array(g) for g in spec["gens"]]
        walks.append(perms + [np.argsort(p) for p in perms])
    return walks


def _bfs_diameter(letters: list[np.ndarray], base: int) -> int:
    dist = np.full(letters[0].shape[0], -1)
    dist[base] = 0
    frontier = np.array([base])
    d = 0
    while frontier.size:
        d += 1
        nxt = np.unique(np.concatenate([p[frontier] for p in letters]))
        nxt = nxt[dist[nxt] < 0]
        dist[nxt] = d
        frontier = nxt
    return int(dist.max())


def _sl2_build(out: Path, stdout: str, chain: dict) -> list[str]:
    rows = np.array(_rows(out / "levels.csv")[1:], dtype=np.int64)
    walks = _sl2_walks(chain)
    diam = [_bfs_diameter(w, spec["base"]) for w, spec in zip(walks, chain["levels"])]
    problems = []
    if rows[:, 1].tolist() != [spec["degree"] for spec in chain["levels"]]:
        problems.append("levels.csv: orders differ from the generated actions")
    if rows[:, 2].tolist() != diam:
        problems.append(f"levels.csv: diameters {rows[:, 2].tolist()}, breadth-first search gives {diam}")
    if rows[:, 3].tolist() != KNOWN["sl2_radii"]:
        problems.append(f"levels.csv: radii {rows[:, 3].tolist()}, expected {KNOWN['sl2_radii']}")
    return problems


def _sl2_profile(out: Path, stdout: str, chain: dict) -> list[str]:
    # the distance-difference map is isometric into l^inf: both controls are t
    rows = np.array(_rows(out / "profile.csv")[1:], dtype=float)
    t, lo, hi = rows.T
    ok = t[0] == 1 and (np.diff(t) == 1).all() and (lo == t).all() and (hi == t).all()
    return [] if ok else ["profile.csv: linf controls are not rho_minus = rho_plus = t"]


def _sl2_spectral(out: Path, stdout: str, chain: dict) -> list[str]:
    want = {}
    for letters in _sl2_walks(chain):
        n = letters[0].shape[0]
        walk = np.zeros((n, n))
        for p in letters:
            np.add.at(walk, (np.arange(n), p), 1.0 / len(letters))
        want[n] = float(1.0 - np.linalg.eigvalsh(walk)[-2])
    return _gap_problems(out, want, "PASS")


def norm_equivalence_controls(rank: int, p: float, top: int) -> str:
    """Controls of the translation fibration of Z^rank into l^p, as a control CSV.

    A vector of l1 length t has l^p norm between t * rank**(1/p - 1) and t.
    fce-verify's default controls are rho(t) = t on both sides, which holds
    only for p = 1 or rank 1.
    """
    lines = ["t,rho_minus,rho_plus"]
    lines += [f"{t},{t * rank ** (1 / p - 1)!r},{float(t)!r}" for t in range(top + 1)]
    return "\n".join(lines) + "\n"


WORKLOADS: dict[str, tuple[Command, ...]] = {
    "torus": (
        # at the CLI's default p=2, with the controls that hold at rank 2
        Command("fce_verify", ("fce-verify", "--fibration", "translation", "--r", str(TORUS_R)),
                0, f"fibred embedding check: PASS (r={TORUS_R}, mode=balls+pairs)",
                controls=norm_equivalence_controls(2, 2.0, TORUS_R + 1)),
        Command("forge", ("forge", "--mode", "lift", "--r", str(TORUS_R)), 0,
                "cocycle check: PASS (mode=atol)", ("lift.csv",), _torus_lift),
    ),
    "overlap-all": (
        Command("fce_verify",
                ("fce-verify", "--fibration", "trivial:linf", "--subsets", "all", "--r", "5"),
                0, "fibred embedding check: PASS (r=5, mode=all)"),
    ),
    "sl2": (
        Command("build", ("build",), 0, "box space: 672 points,",
                ("levels.csv", "separations.csv", "distances.csv"), _sl2_build),
        Command("profile", ("profile", "--embedding", "linf"), 0,
                "profile of linf (p=inf, dim=672):", ("profile.csv",), _sl2_profile),
        Command("spectral", ("spectral",), 0, "verdict: PASS (every computed gap >= 0.001)",
                ("gaps.csv",), _sl2_spectral),
    ),
}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check(workload: str, cmd: Command, exit_code: int, stdout: str, out: Path, chain: dict) -> list[str]:
    """Every way the command missed its known answer; empty when it met it."""
    problems = []
    if exit_code != cmd.exit_code:
        problems.append(f"exit code {exit_code}, expected {cmd.exit_code}")
    if not any(ln.startswith(cmd.verdict) for ln in stdout.splitlines()):
        problems.append(f"no line starting {cmd.verdict!r}")
    for name in cmd.files:
        path = out / name
        if not path.is_file():
            problems.append(f"{name} not written")
        elif digest(path) != KNOWN["digests"].get(f"{workload}/{cmd.name}/{name}"):
            problems.append(f"{name}: bytes differ from the known digest")
    if cmd.oracle is not None and all((out / name).is_file() for name in cmd.files):
        try:
            problems += cmd.oracle(out, stdout, chain)
        except (ValueError, IndexError) as exc:
            problems.append(f"output does not parse: {exc}")
    return problems
