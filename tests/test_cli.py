"""Command line behaviour: exit codes, file outputs, determinism."""

import importlib.util
import json
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


TORUS = {
    "ambient": {"family": "free_abelian", "rank": 2},
    "levels": [{"kind": "cyclic", "moduli": [m, m]} for m in (4, 8, 16)],
}


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    root = tmp_path_factory.mktemp("chains")
    paths = {}
    for name, data in (("dyadic", DYADIC), ("deep", DEEP), ("small", SMALL), ("torus", TORUS)):
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
