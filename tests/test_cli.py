"""Command line behaviour: exit codes, file outputs, determinism."""

import gc
import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from boxlab import cli
from boxlab.cli import main

DYADIC = {
    "ambient": {"family": "free_abelian", "rank": 1},
    "levels": [
        {"kind": "cyclic", "moduli": [4]},
        {"kind": "cyclic", "moduli": [8]},
        {"kind": "cyclic", "moduli": [16]},
    ],
}

DEEP = {
    "ambient": {"family": "free_abelian", "rank": 1},
    "levels": [{"kind": "cyclic", "moduli": [2**i]} for i in range(1, 7)],
}

SMALL = {
    "ambient": {"family": "free_abelian", "rank": 1},
    "levels": [
        {"kind": "cyclic", "moduli": [2]},
        {"kind": "cyclic", "moduli": [4]},
    ],
}


LINE = {
    "ambient": {"family": "free_abelian", "rank": 1},
    "levels": [{"kind": "cyclic", "moduli": [4]}, {"kind": "cyclic", "moduli": [8]}],
}


TORUS = {
    "ambient": {"family": "free_abelian", "rank": 2},
    "levels": [{"kind": "cyclic", "moduli": [m, m]} for m in (4, 8, 16)],
}


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    root = tmp_path_factory.mktemp("chains")
    paths = {}
    named = (("dyadic", DYADIC), ("deep", DEEP), ("small", SMALL), ("torus", TORUS), ("line", LINE))
    for name, data in named:
        path = root / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


class TestBuild:
    def test_reports_level_table(self, chains, capsys):
        assert main(["build", "--chain", chains["dyadic"]]) == 0
        out = capsys.readouterr().out
        for fragment in ("isometry radius 3", "isometry radius 5", "isometry radius 9"):
            assert fragment in out
        assert "separations: 5,9" in out

    def test_writes_csv_files(self, chains, tmp_path):
        out = tmp_path / "out"
        assert main(["build", "--chain", chains["dyadic"], "--out", str(out)]) == 0
        levels = (out / "levels.csv").read_text().splitlines()
        assert levels[0] == "level,order,diameter,radius"
        assert levels[1:] == ["0,4,2,3", "1,8,4,5", "2,16,8,9"]
        seps = (out / "separations.csv").read_text().splitlines()
        assert seps == ["index,separation", "0,5", "1,9"]
        rows = (out / "distances.csv").read_text().splitlines()
        assert rows[0] == "point,point,distance"
        assert "L0:0,L1:0,5" in rows
        assert len(rows) == 1 + 28 * 27 // 2

    def test_reruns_byte_identical(self, chains, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["build", "--chain", chains["dyadic"], "--out", str(a)])
        main(["build", "--chain", chains["dyadic"], "--out", str(b)])
        for name in ("levels.csv", "separations.csv", "distances.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_malformed_chain_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["build", "--chain", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_missing_file_is_input_error(self, capsys):
        assert main(["build", "--chain", "/nonexistent/chain.json"]) == 2

    def test_oversized_chain_refused_before_building(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text(json.dumps(
            {"ambient": {"family": "free_abelian", "rank": 1},
             "levels": [{"kind": "cyclic", "moduli": [100000]}]}
        ))
        start = time.perf_counter()
        assert main(["build", "--chain", str(big)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "level 0 brings the chain to 100000 points" in capsys.readouterr().err


class TestProfile:
    def test_identity_profile(self, chains, tmp_path, capsys):
        out = tmp_path / "p"
        code = main(
            ["profile", "--chain", chains["dyadic"], "--embedding", "linf", "--out", str(out)]
        )
        assert code == 0
        rows = (out / "profile.csv").read_text().splitlines()
        assert rows[0] == "t,rho_minus,rho_plus"
        assert rows[1] == "1,1,1"
        assert rows[-1] == "24,24,24"

    def test_embedding_csv_roundtrip(self, chains, tmp_path):
        first = tmp_path / "first"
        main(
            [
                "profile", "--chain", chains["dyadic"], "--embedding", "cycle-plane",
                "--p", "2", "--out", str(first), "--dump-map",
            ]
        )
        second = tmp_path / "second"
        code = main(
            [
                "profile", "--chain", chains["dyadic"],
                "--embedding", str(first / "embedding.csv"), "--out", str(second),
            ]
        )
        assert code == 0
        assert (first / "profile.csv").read_bytes() == (second / "profile.csv").read_bytes()

    def test_controls_verification_pass_and_fail(self, chains, tmp_path, capsys):
        good = tmp_path / "good.csv"
        lines = ["t,rho_minus,rho_plus"] + [f"{t},{t},{t}" for t in range(25)]
        good.write_text("\n".join(lines) + "\n")
        assert main(
            ["profile", "--chain", chains["dyadic"], "--controls", str(good)]
        ) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.csv"
        rows = ["t,rho_minus,rho_plus", "0,0,0"] + [f"{t},{t},{t - 0.5}" for t in range(1, 25)]
        bad.write_text("\n".join(rows) + "\n")
        assert main(
            ["profile", "--chain", chains["dyadic"], "--controls", str(bad)]
        ) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_unknown_embedding_is_input_error(self, chains, capsys):
        assert main(["profile", "--chain", chains["dyadic"], "--embedding", "moebius"]) == 2


class TestStrictReaders:
    """Malformed CSV input exits 2 with the file and line named."""

    @pytest.fixture
    def embedding_lines(self, chains, tmp_path):
        out = tmp_path / "map"
        main(["profile", "--chain", chains["small"], "--embedding", "cycle-plane",
              "--out", str(out), "--dump-map"])
        return (out / "embedding.csv").read_text().splitlines()

    def run_profile(self, chains, tmp_path, capsys, option, lines):
        path = tmp_path / "input.csv"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["profile", "--chain", chains["small"], option, str(path)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, line, message",
        [
            ("9,0,1,0", 9, "point L9:0 is outside the space"),
            ("0,2,1,0", 9, "point L0:2 is outside the space"),
            ("1,3,0,1", 9, "duplicate row for point L1:3"),
            ("1,x,0,1", 9, "bad number in row '1,x,0,1'"),
            ("1,3,0", 9, "row has 3 fields, expected 4"),
        ],
    )
    def test_bad_embedding_row(self, chains, tmp_path, capsys, embedding_lines, row, line, message):
        code, err = self.run_profile(
            chains, tmp_path, capsys, "--embedding", embedding_lines + [row]
        )
        assert code == 2
        assert f"input.csv, line {line}: {message}" in err

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["1,1,1", "1,1,2"], "line 4: duplicate row for t=1"),
            (["1,1,one"], "line 3: bad number in row '1,1,one'"),
            (["1,1"], "line 3: row has 2 fields, expected 3"),
        ],
    )
    def test_bad_control_row(self, chains, tmp_path, capsys, rows, message):
        lines = ["# controls", "t,rho_minus,rho_plus"] + rows
        code, err = self.run_profile(chains, tmp_path, capsys, "--controls", lines)
        assert code == 2
        assert f"input.csv, {message}" in err


class TestNonFiniteInput:
    """A NaN or infinity in an input CSV exits 2, naming the file and line."""

    @pytest.fixture
    def linf_lines(self, chains, tmp_path):
        out = tmp_path / "linf"
        main(["profile", "--chain", chains["line"], "--embedding", "linf",
              "--out", str(out), "--dump-map"])
        return (out / "embedding.csv").read_text().splitlines()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_embedding_coordinate_exits_two(self, chains, tmp_path, capsys, linf_lines, value):
        # one coordinate of the linf map on Z/4, Z/8 made non-finite
        lines = list(linf_lines)
        fields = lines[5].split(",")
        fields[3] = value
        lines[5] = ",".join(fields)
        path = tmp_path / "map.csv"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = ["fce-verify", "--chain", chains["line"], "--fibration", f"trivial:{path}"]
        assert main(argv + ["--r", "3"]) == 2
        assert f"map.csv, line 6: non-finite value in row '{lines[5]}'" in capsys.readouterr().err

    @pytest.mark.parametrize("column", [1, 2])
    def test_control_column_exits_two(self, chains, tmp_path, capsys, linf_lines, column):
        # the linf map scaled by 3 fails these controls; a NaN column must not pass them
        scaled = linf_lines[:2] + [
            ",".join(row.split(",")[:2] + [str(3 * int(v)) for v in row.split(",")[2:]])
            for row in linf_lines[2:]
        ]
        embedding = tmp_path / "scaled.csv"
        embedding.write_text("\n".join(scaled) + "\n")
        rows = [[str(t), str(t), str(t)] for t in range(12)]
        controls = tmp_path / "controls.csv"
        argv = ["profile", "--chain", chains["line"], "--embedding", str(embedding)]
        argv += ["--controls", str(controls)]

        def write_controls():
            lines = ["t,rho_minus,rho_plus"] + [",".join(row) for row in rows]
            controls.write_text("\n".join(lines) + "\n")

        write_controls()
        capsys.readouterr()
        assert main(argv) == 1
        for row in rows:
            row[column] = "nan"
        write_controls()
        capsys.readouterr()
        assert main(argv) == 2
        assert f"controls.csv, line 2: non-finite value in row '{','.join(rows[0])}'" in (
            capsys.readouterr().err
        )


class TestFceVerify:
    def test_translation_passes(self, chains, capsys):
        code = main(
            ["fce-verify", "--chain", chains["deep"], "--fibration", "translation",
             "--r", "4", "--p", "1"]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_trivial_fibration_all_mode(self, chains, capsys):
        code = main(
            ["fce-verify", "--chain", chains["small"], "--fibration", "trivial:linf",
             "--r", "4", "--subsets", "all"]
        )
        assert code == 0

    def test_failing_controls_exit_one(self, chains, tmp_path, capsys):
        controls = tmp_path / "c.csv"
        rows = ["t,rho_minus,rho_plus"] + [f"{t},{t + 10},{t + 11}" for t in range(13)]
        controls.write_text("\n".join(rows) + "\n")
        code = main(
            ["fce-verify", "--chain", chains["deep"], "--fibration", "translation",
             "--r", "3", "--p", "1", "--controls", str(controls)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "sandwich violated" in out

    def test_report_written(self, chains, tmp_path):
        out = tmp_path / "rep"
        main(
            ["fce-verify", "--chain", chains["deep"], "--fibration", "translation",
             "--r", "3", "--out", str(out)]
        )
        text = (out / "report.txt").read_text()
        assert "fibred embedding check: PASS" in text

    @pytest.mark.parametrize("p", ["1", "2", "3", "inf"])
    def test_torus_passes_at_default_controls(self, chains, capsys, p):
        code = main(
            ["fce-verify", "--chain", chains["torus"], "--fibration", "translation",
             "--r", "3", "--p", p]
        )
        assert code == 0, capsys.readouterr().out

    def test_unknown_fibration_is_input_error(self, chains):
        assert main(
            ["fce-verify", "--chain", chains["deep"], "--fibration", "mystery", "--r", "3"]
        ) == 2


class TestForge:
    def test_averaged_writes_and_passes(self, chains, tmp_path, capsys):
        out = tmp_path / "avg"
        code = main(
            ["forge", "--chain", chains["dyadic"], "--mode", "averaged", "--level", "0",
             "--embedding", "cycle-plane", "--p", "2", "--out", str(out)]
        )
        assert code == 0
        head = (out / "cocycle.csv").read_text().splitlines()
        assert head[0] == "# p=2 dim=2 blocks=4 scale=global"
        assert head[1] == "g,block,c_1,c_2"
        assert len(head) == 2 + 16
        assert "PASS" in (out / "report.txt").read_text()

    def test_averaged_takes_p_from_the_embedding(self, chains, tmp_path):
        out = tmp_path / "avg-linf"
        code = main(
            ["forge", "--chain", chains["dyadic"], "--mode", "averaged", "--level", "0",
             "--embedding", "linf", "--out", str(out)]
        )
        assert code == 0
        head = (out / "cocycle.csv").read_text().splitlines()
        assert head[0] == "# p=inf dim=28 blocks=4 scale=global"

    @pytest.mark.parametrize("embedding", ["linf", "csv"])
    def test_averaged_refuses_a_disagreeing_p(self, chains, tmp_path, capsys, embedding):
        if embedding == "csv":
            assert main(["profile", "--chain", chains["dyadic"], "--embedding", "linf",
                         "--dump-map", "--out", str(tmp_path)]) == 0
            embedding = str(tmp_path / "embedding.csv")
        capsys.readouterr()
        code = main(
            ["forge", "--chain", chains["dyadic"], "--mode", "averaged", "--level", "0",
             "--embedding", embedding, "--p", "2", "--out", str(tmp_path / "avg")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--p 2" in err and "p=inf" in err
        assert not (tmp_path / "avg").exists()

    def test_fce_mode_dumps_live_elements(self, chains, tmp_path):
        out = tmp_path / "fce"
        code = main(
            ["forge", "--chain", chains["deep"], "--mode", "fce", "--r", "4", "--p", "1",
             "--out", str(out)]
        )
        assert code == 0
        rows = (out / "cocycle.csv").read_text().splitlines()
        assert rows[0] == "# p=1 dim=1 blocks=16 scale=4"
        assert len(rows) == 2 + 7 * 16  # seven live elements, one row per block

    def test_determinism_and_replay(self, chains, tmp_path, capsys):
        out = tmp_path / "lift"
        args = ["forge", "--chain", chains["deep"], "--mode", "lift", "--r", "4",
                "--p", "1", "--out", str(out)]
        assert main(args) == 0
        first = (out / "lift.csv").read_bytes()
        assert main(args) == 0
        assert (out / "lift.csv").read_bytes() == first
        capsys.readouterr()
        replay = ["forge", "--chain", chains["deep"], "--mode", "lift", "--r", "4",
                  "--p", "1", "--replay", str(out / "lift.csv")]
        assert main(replay) == 0
        assert "replay verified" in capsys.readouterr().out

    def test_corrupted_replay_fails(self, chains, tmp_path, capsys):
        out = tmp_path / "lift2"
        main(["forge", "--chain", chains["deep"], "--mode", "lift", "--r", "4",
              "--p", "1", "--out", str(out)])
        path = out / "lift.csv"
        text = path.read_text().replace("-2,2,2", "-2,2,3")
        path.write_text(text)
        capsys.readouterr()
        code = main(["forge", "--chain", chains["deep"], "--mode", "lift", "--r", "4",
                     "--p", "1", "--replay", str(path)])
        assert code == 1
        assert "replay mismatch" in capsys.readouterr().out

    def test_ultra_mode(self, chains, tmp_path, capsys):
        out = tmp_path / "ultra"
        code = main(
            ["forge", "--chain", chains["deep"], "--mode", "ultra", "--r", "5",
             "--p", "1", "--out", str(out)]
        )
        assert code == 0
        rows = (out / "family.csv").read_text().splitlines()
        assert rows[0] == "g,length,r,norm"
        assert "1,1,4,1" in rows
        assert "constant on live scales" in capsys.readouterr().out

    @pytest.mark.parametrize("p", ["1", "2", "3", "inf"])
    def test_ultra_torus_passes_at_default_controls(self, chains, capsys, p):
        code = main(["forge", "--chain", chains["torus"], "--mode", "ultra", "--r", "3", "--p", p])
        assert code == 0, capsys.readouterr().out


class TestSpectral:
    def test_pass_and_csv(self, chains, tmp_path, capsys):
        out = tmp_path / "gaps"
        code = main(
            ["spectral", "--chain", chains["dyadic"], "--epsilon", "0.001",
             "--out", str(out)]
        )
        assert code == 0
        rows = (out / "gaps.csv").read_text().splitlines()
        assert rows[0] == "level,order,degree,gap"
        assert rows[-1].startswith("# verdict: PASS")

    def test_collapsing_chain_fails_threshold(self, chains, capsys):
        assert main(["spectral", "--chain", chains["deep"], "--epsilon", "0.5"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestParsing:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["warp"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["build"])
        assert exc.value.code == 2

    def test_bad_p_value_exits_two(self, chains):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--chain", chains["dyadic"], "--p", "0.3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_exits_two(self, chains, capsys, tolerance):
        with pytest.raises(SystemExit) as exc:
            main(["fce-verify", "--chain", chains["dyadic"], "--r", "2", f"--tolerance={tolerance}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"argument --tolerance: tolerance must be finite, got {tolerance}\n")

    def test_unparsable_tolerance_keeps_the_float_message(self, chains, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["forge", "--chain", chains["dyadic"], "--mode", "fce", "--tolerance", "tiny"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("argument --tolerance: invalid float value: 'tiny'\n")

    def test_module_entry_point(self, chains):
        result = subprocess.run(
            [sys.executable, "-m", "boxlab.cli", "build", "--chain", chains["dyadic"]],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "isometry radius 9" in result.stdout


def perfbench_sl2_chain(seed):
    """The relabelled SL2(Z/3), SL2(Z/9) chain of the benchmark corpus, over a free ambient."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus.sl2_chain(seed)


class TestExitCodes:
    """Bad input exits 2 with its message; a fault inside the program exits 3."""

    @pytest.fixture(scope="class")
    def inputs(self, chains, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        paths = dict(chains)
        one = {"ambient": {"family": "free_abelian", "rank": 1},
               "levels": [{"kind": "cyclic", "moduli": [1]}]}
        for name, data in (("one", one), ("sl2", perfbench_sl2_chain(1))):
            paths[name] = str(root / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(data))
        paths["decreasing"] = str(root / "decreasing.csv")
        Path(paths["decreasing"]).write_text("t,rho_minus,rho_plus\n0,0,0\n1,2,2\n2,1,1\n")
        return paths

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("fce-verify --chain {dyadic} --r 0", "scale must be >= 1, got 0"),
            ("forge --mode fce --chain {dyadic} --r 0", "scale must be >= 1, got 0"),
            (
                "fce-verify --chain {dyadic} --r 3 --subsets all --fibration trivial:linf",
                "mode 'all' over 28 points exceeds the cap of 16; use balls+pairs",
            ),
            (
                "fce-verify --chain {sl2} --r 2 --fibration translation",
                "proper-action fibrations need a free abelian ambient group; got family 'free'",
            ),
            (
                "profile --chain {torus} --embedding cycle-plane",
                "level 0 is not a rank-one cyclic quotient",
            ),
            ("profile --chain {sl2} --embedding torus-lp", "level 0 is not a cyclic product quotient"),
            ("spectral --chain {dyadic} --epsilon 0", "threshold must be positive, got 0.0"),
            ("profile --chain {one}", "domain has a single point, no realized distances"),
            (
                "profile --chain {dyadic} --controls {decreasing}",
                "rho_minus samples are not nondecreasing",
            ),
        ],
    )
    def test_bad_input_exits_two(self, inputs, argv, message, capsys):
        assert main(argv.format(**inputs).split()) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_internal_error_exits_three_with_traceback(self, chains, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("broken verifier")

        monkeypatch.setattr(cli, "verify_fce", broken)
        assert main(["fce-verify", "--chain", chains["dyadic"], "--r", "2"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert err.endswith("ValueError: broken verifier\n")


@pytest.fixture(scope="module")
def benchmark_chains(tmp_path_factory):
    """Small chains for the benchmark commands: SL2(Z/3), SL2(Z/9), (Z/4, Z/8)^2 and Z/2, Z/4."""
    root = tmp_path_factory.mktemp("benchmark_chains")
    paths = {}
    for name, data in (
        ("sl2", perfbench_sl2_chain(1)),
        ("torus", {"ambient": TORUS["ambient"], "levels": TORUS["levels"][:2]}),
        ("line", SMALL),
    ):
        paths[name] = str(root / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(data))
    return paths


class TestNoMaskedArrays:
    """No benchmark command imports numpy.ma, which costs numpy 2 about 13 ms a process."""

    COMMANDS = [
        "build --chain {sl2}",
        "profile --chain {sl2} --embedding linf",
        "spectral --chain {sl2}",
        "fce-verify --chain {torus} --fibration translation --r 2",
        "forge --chain {torus} --mode lift --r 2",
        "fce-verify --chain {line} --fibration trivial:linf --subsets all --r 2",
    ]

    def test_benchmark_commands_leave_numpy_ma_unloaded(self, benchmark_chains, tmp_path):
        bare = "import sys, numpy; print('numpy.ma' in sys.modules)"
        loaded = subprocess.run([sys.executable, "-c", bare], capture_output=True, text=True)
        if loaded.stdout.strip() != "False":
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        paths = benchmark_chains
        # each command's main in one process, one line per command: exit code, numpy.ma loaded
        script = (
            "import contextlib, io, sys\n"
            "from boxlab.cli import main\n"
            "for argv in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main(argv.split())\n"
            "    print(code, 'numpy.ma' in sys.modules)\n"
        )
        argvs = [f"{c} --out {tmp_path / str(i)}".format(**paths) for i, c in enumerate(self.COMMANDS)]
        result = subprocess.run(
            [sys.executable, "-c", script, *argvs], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["0 False"] * len(self.COMMANDS)


class TestProcessEntry:
    """``run`` is the process entry: ``main``, then a frozen GC heap for the interpreter's exit."""

    # what the console script's wrapper does
    SCRIPT = "import sys; from boxlab.cli import run; sys.exit(run())"

    @pytest.mark.parametrize("command", TestNoMaskedArrays.COMMANDS)
    def test_module_matches_in_process_main(self, benchmark_chains, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = f"{command} --out {out}".format(**benchmark_chains).split()
        child = subprocess.run([sys.executable, "-m", "boxlab.cli", *argv], capture_output=True)
        written = {path.name: path.read_bytes() for path in out.iterdir()}
        shutil.rmtree(out)
        assert main(argv) == child.returncode == 0
        captured = capsys.readouterr()
        assert child.stdout == captured.out.encode()
        assert child.stderr == captured.err.encode() == b""
        assert {path.name: path.read_bytes() for path in out.iterdir()} == written

    def test_failing_verification_exits_one(self, chains):
        argv = ["spectral", "--chain", chains["deep"], "--epsilon", "0.5"]
        child = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv], capture_output=True, text=True
        )
        assert child.returncode == 1
        assert "FAIL" in child.stdout

    def test_usage_error_exits_two_with_the_argparse_message(self, capsys):
        child = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, "build"], capture_output=True, text=True
        )
        with pytest.raises(SystemExit) as exc:
            main(["build"])
        assert child.returncode == exc.value.code == 2
        assert child.stderr == capsys.readouterr().err
        assert child.stderr.endswith("error: the following arguments are required: --chain\n")

    @pytest.mark.parametrize("argv, code", [("build --chain {dyadic}", 0), ("build", 2)])
    def test_run_freezes_the_heap(self, chains, argv, code):
        script = (
            "import gc, sys\n"
            "from boxlab.cli import run\n"
            "before = gc.get_freeze_count()\n"
            "try:\n"
            "    code = run(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(code, before, gc.get_freeze_count() > 0)\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script, *argv.format(**chains).split()],
            capture_output=True,
            text=True,
        )
        assert child.stdout.splitlines()[-1] == f"{code} 0 True"

    def test_main_leaves_the_collector_alone(self, chains, capsys):
        before = gc.get_freeze_count()
        assert main(["build", "--chain", chains["dyadic"]]) == 0
        assert gc.get_freeze_count() == before
        assert gc.isenabled()
