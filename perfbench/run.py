"""boxlab benchmark: seeded chain workloads run through the real CLI.

    python3 perfbench/run.py --workload sl2 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a boxlab checkout; the package is imported from ``src``.
Every command runs in a fresh ``python -m boxlab.cli`` process, one at a time,
and is checked against its known answer (``workloads.py``).

``--trace 0`` measures end-to-end metrics in rounds, repeated while the next
one fits in ``--seconds`` (at least one): set-up is timed once in a fresh
interpreter, then the workload's command sequence (a session) runs.  Before
the set-up and before each command, a fixed reference task that runs no boxlab
code (``probe.py reference``) is timed in a fresh interpreter.  The speed of a
shared host drifts by tens of percent within seconds to minutes, and set-up,
commands and reference slow down together, so each set-up and command wall
time is scaled by ``REFERENCE_S`` over the reference timed just before it:
seconds at a fixed host speed.  ``setup_s`` is the median scaled set-up and
``session_s`` the median over rounds of the session's summed scaled command
times.  A change to boxlab moves them; a change in the host's speed mostly
does not.  The unscaled medians and every round's timings are printed.

``--trace 1`` runs one untraced session, then the same session with every
command under ``traced.py``, and reports per-layer sums of span times and
counters, the fresh-process time to verdict of each subcommand, the
acceptance-test gate readings and the tracing overhead.  The last line of
standard output is the JSON result; the lines before it are for people.  Run
files, including the spans, are kept under ``.perfbench_runs/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import corpus
from workloads import WORKLOADS, check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
HERE = Path(__file__).resolve().parent
# End-to-end times are reported at the host speed where the reference probe
# takes this long.
REFERENCE_S = 0.3
# One BLAS thread per process: a second thread on a shared host of few cores
# measures the neighbours' load more than the program.
BLAS_THREADS = 1
# A run must end within 180 seconds; stop well before.
DEADLINE_S = 170

SUBCOMMANDS = ("build", "profile", "fce_verify", "forge", "spectral")
SPAN_TIMES = (
    "chainspec.load", "groups.build_quotient", "groups.connecting_maps", "groups.radius",
    "boxspace.distance_matrix", "embedding.map", "embedding.profile",
    "fibration.action_check", "fibration.serve", "fibration.verify_fce",
    "cocycles.local_cocycle", "cocycles.verify_local_action", "cocycles.lift",
    "spectral.gap", "cli.import",
)
COUNTS = (
    "groups.sampled_levels", "groups.mult_calls", "groups.cayley_distance_calls",
    "boxspace.distance_entries", "embedding.profile_pairs", "fibration.serve_calls",
    "fibration.witness_sets", "fibration.sandwich_pairs", "fibration.overlap_pairs",
    "fibration.vacuous_overlaps", "lpspace.compose_calls", "lpspace.inverse_calls",
    "lpspace.close_to_calls", "lpspace.signed_perm_built", "cocycles.live_pairs",
    "spectral.max_order_solved", "spectral.levels_skipped",
)


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    threads = str(BLAS_THREADS)
    # Bytecode is always cached, and inside the checkout, whatever the caller's
    # environment says, so that every process times loading rather than compiling.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(RUNS / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def environment() -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": BLAS_THREADS}


def run_child(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run ``argv`` to completion; (wall seconds, max RSS in MB, exit code)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def probe(args: list[str], log: Path) -> dict:
    _, _, code = run_child([sys.executable, str(HERE / "probe.py"), *args], log)
    text = log.read_text()
    if code != 0:
        raise RuntimeError(f"probe {args[0]} failed with exit {code}:\n{text}")
    return json.loads(text.splitlines()[-1])


def run_session(workload: str, chain_path: Path, chain: dict, tag: Path,
                traced: bool, referenced: bool = False) -> dict:
    """Run the workload's commands one after another, then check each against its known answer.

    With ``referenced``, the host reference is timed just before each command.
    ``session_s`` is the sum of the commands' wall times.
    """
    runs = []
    for i, cmd in enumerate(WORKLOADS[workload]):
        out = tag / f"{i}-{cmd.name}"
        out.mkdir(parents=True)
        if cmd.controls:
            (out / "controls.csv").write_text(cmd.controls)
        argv = cmd.argv(chain_path, out)
        if traced:
            argv = [sys.executable, str(HERE / "traced.py"), str(out / "spans.json"),
                    workload, cmd.name, "--", *argv]
        else:
            argv = [sys.executable, "-m", "boxlab.cli", *argv]
        reference = probe(["reference"], out / "reference.txt")["reference_s"] if referenced else None
        wall, rss, code = run_child(argv, out / "stdout.txt")
        runs.append((cmd, out, reference, wall, rss, code))
    results = []
    for cmd, out, reference, wall, rss, code in runs:
        stdout = (out / "stdout.txt").read_text()
        problems = check(workload, cmd, code, stdout, out, chain)
        results.append({"command": cmd, "out": out, "reference": reference, "wall": wall,
                        "rss": rss, "problems": problems})
    return {"session_s": sum(r["wall"] for r in results), "commands": results}


def report_misses(sessions: list[dict]) -> None:
    for s in sessions:
        for r in s["commands"]:
            cmd = r["command"]
            for problem in r["problems"]:
                print(f"MISSED {cmd.subcommand}: {problem}")


def tally(sessions: list[dict]) -> tuple[int, int]:
    attempted = sum(len(s["commands"]) for s in sessions)
    failed = sum(bool(r["problems"]) for s in sessions for r in s["commands"])
    return attempted, failed


def untraced_run(workload: str, chain_path: Path, chain: dict, work: Path,
                 seconds: float) -> tuple[dict, list[dict]]:
    """Rounds of one set-up and one session, while they fit in ``seconds``.

    The host reference is timed just before the set-up and before each command,
    and each of them is scaled by the reference before it, so a drift in host
    speed, even within a round, mostly cancels.
    """
    setups, sessions, rounds = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + max(rounds) < seconds:
        begun = time.perf_counter()
        tag = work / f"round-{len(rounds)}"
        tag.mkdir()
        reference = probe(["reference"], tag / "reference.txt")["reference_s"]
        setup = probe(["setup", str(chain_path)], tag / "setup.txt")["setup_s"]
        setups.append((setup, reference))
        session = run_session(workload, chain_path, chain, tag, traced=False, referenced=True)
        session["scaled_s"] = sum(r["wall"] * REFERENCE_S / r["reference"]
                                  for r in session["commands"])
        sessions.append(session)
        rounds.append(time.perf_counter() - begun)
    attempted, failed = tally(sessions)
    per_command: dict[str, list[float]] = {}
    for s in sessions:
        for r in s["commands"]:
            per_command.setdefault(r["command"].name, []).append(r["wall"])
    references = [ref for _, ref in setups] + [r["reference"] for s in sessions for r in s["commands"]]
    print(f"rounds: {len(rounds)}; host reference median {statistics.median(references):.4f} s"
          f" over {len(references)} timings")
    print(f"  unscaled medians: session {statistics.median(s['session_s'] for s in sessions):.4f} s,"
          f" set-up {statistics.median(t for t, _ in setups):.4f} s")
    for name, walls in per_command.items():
        print(f"  {name}: median time to verdict {statistics.median(walls):.4f} s unscaled"
              f" over {len(walls)} runs")
    for i, s in enumerate(sessions):
        walls = " ".join(f"{r['wall']:.4f}/{r['reference']:.4f}" for r in s["commands"])
        print(f"  round {i}: set-up/reference {setups[i][0]:.4f}/{setups[i][1]:.4f},"
              f" commands {walls}, scaled session {s['scaled_s']:.4f} s")
    values = {
        "session_s": statistics.median(s["scaled_s"] for s in sessions),
        "setup_s": statistics.median(t * REFERENCE_S / ref for t, ref in setups),
        "peak_rss_mb": max(r["rss"] for s in sessions for r in s["commands"]),
        "known_answer_share": (attempted - failed) / attempted,
    }
    return values, sessions


def traced_run(workload: str, chain_path: Path, chain: dict, work: Path) -> tuple[dict, list[dict]]:
    plain = run_session(workload, chain_path, chain, work / "untraced", traced=False)
    traced = run_session(workload, chain_path, chain, work / "traced", traced=True)
    gates = probe(["gates"], work / "gates.txt")

    spans, counts = [], {}
    for r in traced["commands"]:
        path = r["out"] / "spans.json"
        if not path.is_file():
            raise RuntimeError(f"traced {r['command'].subcommand} wrote no spans; see {r['out']}")
        dump = json.loads(path.read_text())
        base = len(spans)
        for span in dump["spans"]:
            if span["parent"] is not None:
                span["parent"] += base
            spans.append(span)
        for name, value in dump["counts"].items():
            if name == "spectral.max_order_solved":
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
    (work / "spans.json").write_text(json.dumps(spans))

    values: dict[str, float] = {f"{name}_s": 0.0 for name in SPAN_TIMES}
    child_time = [0.0] * len(spans)
    for span in spans:
        duration = span["end"] - span["start"]
        if span["name"] in SPAN_TIMES:
            values[f"{span['name']}_s"] += duration
        if span["parent"] is not None:
            child_time[span["parent"]] += duration
    commands = [i for i, span in enumerate(spans) if span["parent"] is None]
    command_s = sum(spans[i]["end"] - spans[i]["start"] for i in commands)
    values["cli.self_s"] = sum(spans[i]["end"] - spans[i]["start"] - child_time[i]
                               for i in commands)
    print(f"traced: {len(spans)} spans; command spans {command_s:.4f} s = child spans"
          f" {sum(child_time[i] for i in commands):.4f} s + cli.self {values['cli.self_s']:.4f} s;"
          f" traced process walls {sum(r['wall'] for r in traced['commands']):.4f} s")

    values.update({name: counts.get(name, 0) for name in COUNTS})
    compared = counts.get("fibration.overlap_pairs", 0)
    vacuous = counts.get("fibration.vacuous_overlaps", 0)
    values["fibration.overlap_useful_ratio"] = compared / (compared + vacuous) if compared else 0.0
    carrier = counts.get("cocycles.carrier_pairs", 0)
    values["cocycles.live_pair_ratio"] = counts.get("cocycles.live_pairs", 0) / carrier if carrier else 0.0
    values["cli.output_bytes"] = sum(
        (r["out"] / name).stat().st_size for r in plain["commands"] for name in r["command"].files)
    for name in SUBCOMMANDS:
        walls = [r["wall"] for r in plain["commands"] if r["command"].name == name]
        values[f"cmd.{name}_s"] = sum(walls, 0.0)
    for name, gate in gates.items():
        values[f"gate.{name}_s"] = gate["seconds"]
        print(f"gate {name}: {gate['seconds']:.4f} s, passed {gate['passed']}")
    values["trace.overhead_s"] = traced["session_s"] - plain["session_s"]
    ran = {span["name"] for span in spans} | {f"cmd.{r['command'].name}" for r in plain["commands"]}
    idle = [f"{name}_s" for name in (*SPAN_TIMES, *(f"cmd.{n}" for n in SUBCOMMANDS))
            if name not in ran]
    if idle:
        # every per-layer metric is reported on every workload, so these read 0
        print(f"not run on this workload (reported as 0): {', '.join(idle)}")
    return values, [plain, traced]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; the result object the last output line reports."""
    work = RUNS / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    chain = corpus.chain_for(workload, seed)
    chain_path = work / "chain.json"
    chain_path.write_text(json.dumps(chain, separators=(",", ":")) + "\n")
    stamp = environment()
    print(f"workload {workload}, seed {seed}, trace {int(trace)}")
    print(f"environment: {json.dumps(stamp)}")
    signal.alarm(DEADLINE_S)
    try:
        probe(["setup", str(chain_path)], work / "warm-up.txt")  # fills the bytecode cache
        if trace:
            values, sessions = traced_run(workload, chain_path, chain, work)
        else:
            values, sessions = untraced_run(workload, chain_path, chain, work, seconds)
    finally:
        signal.alarm(0)
    report_misses(sessions)
    attempted, failed = tally(sessions)
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"correct: {failed == 0} ({attempted - failed} of {attempted} commands met their known answer)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (work / "result.json").write_text(json.dumps({"environment": stamp, **result}, indent=1))
    return result


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes"),
                         ("_ratio", "ratio"), ("_share", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "boxlab" / "cli.py").is_file():
        print(f"error: no boxlab sources under {SRC}; run from a boxlab checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except (Deadline, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
