"""Command line behaviour: exit codes, file outputs, determinism."""

import contextlib
import gc
import io
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab import cli, fibration
from boxlab.boxspace import assemble_box_space, box_distance, format_point
from boxlab.chainspec import load_chain
from boxlab.cli import main
from boxlab.embedding import CoarseEmbeddingMap
from boxlab.errors import SpecFormatError
from conftest import sl2_chain_spec

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

# below, at and past the diameter 46 of TORUS
CAPPED_SCALES = (1, 2, 3, 46, 47, 1000)


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

    def test_distances_match_the_per_pair_oracle(self, tmp_path):
        # cyclic levels around a permutation level: Z/6 acting regularly on
        # relabelled points, with point 3 fixed outside the orbit
        relabel = [4, 0, 5, 2, 6, 1]
        rotate = [3] * 7
        for i, point in enumerate(relabel):
            rotate[point] = relabel[(i + 1) % 6]
        mixed = {
            "ambient": {"family": "free_abelian", "rank": 1},
            "levels": [
                {"kind": "cyclic", "moduli": [3]},
                {"kind": "permutation", "degree": 7, "gens": [rotate], "base": 4},
                {"kind": "cyclic", "moduli": [12]},
            ],
        }
        path, out = tmp_path / "mixed.json", tmp_path / "out"
        path.write_text(json.dumps(mixed))
        assert main(["build", "--chain", str(path), "--out", str(out)]) == 0
        space = assemble_box_space(load_chain(path))
        points = space.points()
        assert len(points) == 21
        want = "point,point,distance\n" + "".join(
            f"{format_point(x)},{format_point(y)},{box_distance(space, x, y)}\n"
            for i, x in enumerate(points)
            for y in points[i + 1 :]
        )
        assert (out / "distances.csv").read_bytes() == want.encode()

    def test_fractional_base_is_input_error(self, tmp_path, capsys):
        # it used to meet an IndexError in the orbit search, and exit 3
        path = tmp_path / "frac.json"
        level = {"kind": "permutation", "degree": 4, "gens": [[1, 2, 3, 0]], "base": 0.7}
        data = {"ambient": {"family": "free_abelian", "rank": 1}, "levels": [level]}
        path.write_text(json.dumps(data))
        assert main(["build", "--chain", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: level 0: field 'base': 0.7 is not an integer\n"

    @pytest.mark.parametrize(
        "level, message",
        [
            ({"kind": "cyclic", "moduli": 5}, "field 'moduli': 5 is not a list"),
            (
                {"kind": "permutation", "degree": 4, "gens": 5, "base": 0},
                "field 'gens': 5 is not a list of lists",
            ),
            (
                {"kind": "table", "mult": [[0, 1], [1]], "identity": 0, "gen_images": [1]},
                "field 'mult': row 1 has length 1, row 0 has length 2",
            ),
        ],
    )
    def test_malformed_level_shape_is_input_error(self, tmp_path, capsys, level, message):
        # each used to fail inside the build with a TypeError or ValueError, and exit 3
        path = tmp_path / "shape.json"
        data = {"ambient": {"family": "free_abelian", "rank": 1}, "levels": [level]}
        path.write_text(json.dumps(data))
        assert main(["build", "--chain", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: level 0: {message}\n"

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

    @pytest.mark.parametrize("zero", ["-0", "0"])
    def test_embedding_csv_dumps_as_read(self, tmp_path, zero):
        # an integer map would dump a -0 as 0: a table holding one is held in float64
        chain = tmp_path / "z16.json"
        chain.write_text(json.dumps(
            {"ambient": {"family": "free_abelian", "rank": 1},
             "levels": [{"kind": "cyclic", "moduli": [16]}]}
        ))
        rows = [f"0,{e},{min(e, 16 - e)},{e % 4 - 2}" for e in range(16)]
        rows[3] = f"0,3,{zero},1"
        source = tmp_path / "map.csv"
        source.write_text("\n".join(["# p=inf dim=2", "level,element,c_1,c_2", *rows]) + "\n")
        out = tmp_path / "out"
        argv = ["profile", "--chain", str(chain), "--embedding", str(source), "--out", str(out)]
        assert main([*argv, "--dump-map"]) == 0
        assert (out / "embedding.csv").read_bytes() == source.read_bytes()

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.float64])
    def test_rows_are_written_as_fmt_writes_each_entry(self, dtype):
        rng = np.random.default_rng(3)
        rows = rng.integers(-100, 100, size=(6, 5)).astype(dtype)
        if dtype == np.float64:
            rows = rows / 7
            rows[0, :4] = [-0.0, 1e-13, 2.5e15, 123456789012.5]
        lines = cli._coordinate_lines("# c", "k", 5, ((str(i), row) for i, row in enumerate(rows)))
        want = [f"{i},{','.join(cli._fmt(v) for v in row)}" for i, row in enumerate(rows)]
        assert list(lines) == ["# c", "k,c_1,c_2,c_3,c_4,c_5", *want]

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

    def test_huge_embedding_dim_exits_two(self, chains, tmp_path, capsys):
        # a matrix of 10^11 columns would be 8.7 TB; no row names the first point
        code, err = self.run_profile(
            chains, tmp_path, capsys, "--embedding", ["# p=inf dim=100000000000", "level,element"]
        )
        assert code == 2
        assert err == f"error: {tmp_path / 'input.csv'}: table missing point L0:0\n"

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


class TestEmbeddingCsvReader:
    """An embedding CSV is parsed a row at a time into one float64 matrix."""

    @pytest.fixture
    def dumped(self, chains, tmp_path):
        out = tmp_path / "linf"
        main(["profile", "--chain", chains["dyadic"], "--embedding", "linf",
              "--out", str(out), "--dump-map"])
        space = assemble_box_space(load_chain(chains["dyadic"]))
        return space, (out / "embedding.csv").read_text().splitlines()

    def read(self, tmp_path, space, lines):
        path = tmp_path / "map.csv"
        path.write_text("\n".join(lines) + "\n")
        return cli._read_embedding_csv(path, space)

    @pytest.mark.parametrize(
        "late",
        [None, 1.0, 300.0, 70000.0, 2.0**40, 0.5, -0.0],
        ids=["int8", "int8-late", "int16-late", "int32-late", "float-large", "fraction", "minus-zero"],
    )
    def test_dtype_is_the_whole_matrix_dtype(self, tmp_path, dumped, late, monkeypatch):
        """Rows narrowed as they arrive, backwards so the last point's row comes first:
        the dtype and every value are those of the whole float64 matrix narrowed once."""
        space, lines = dumped
        mat = np.array([[float(v) for v in ln.split(",")[2:]] for ln in lines[2:]])
        if late is not None:
            mat[3, 1] = late  # a row read late in the backwards order
        body = [f"{pt.level},{pt.element},{','.join(map(repr, row.tolist()))}"
                for pt, row in zip(space.points(), mat)][::-1]
        want = CoarseEmbeddingMap(space, math.inf, mat.shape[1], mat)
        f = self.read(tmp_path, space, lines[:2] + body)
        assert f.matrix().dtype == want.matrix().dtype
        assert f.matrix().tobytes() == want.matrix().tobytes()

    def test_rows_in_any_order(self, tmp_path, dumped):
        space, lines = dumped
        body = lines[2:]
        random.Random(7).shuffle(body)
        f = self.read(tmp_path, space, lines[:2] + body)
        want = self.read(tmp_path, space, lines)
        assert f.matrix().dtype == want.matrix().dtype == np.int8
        assert np.array_equal(f.matrix(), want.matrix())
        assert list(cli._embedding_lines(f)) == lines

    def test_first_missing_point_in_point_order(self, tmp_path, dumped):
        space, lines = dumped
        # L2:5 and L1:3 are dropped, and the rows are listed backwards
        body = [ln for ln in lines[2:] if not ln.startswith(("2,5,", "1,3,"))][::-1]
        with pytest.raises(SpecFormatError, match=r"map.csv: table missing point L1:3$"):
            self.read(tmp_path, space, lines[:2] + body)

    def test_duplicate_row_in_any_order(self, tmp_path, dumped):
        space, lines = dumped
        body = lines[2:][::-1] + [lines[2]]
        with pytest.raises(SpecFormatError, match=r"line 31: duplicate row for point L0:0$"):
            self.read(tmp_path, space, lines[:2] + body)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_line_numbers_follow_splitlines(self, tmp_path, dumped, newline):
        """A file separator ends a logical line, and a form feed inside a row splits
        it in two; messages number the logical lines of the whole text's splitlines."""
        space, lines = dumped
        body = lines[2:]
        body[1] += "\x1c"  # one more, empty, logical line
        body[4] = body[4].replace(",", ",\x0c", 1)  # "<level>," then the rest of the row
        text = newline.join(lines[:2] + body) + newline
        path = tmp_path / "map.csv"
        path.write_bytes(text.encode())
        line = text.splitlines().index(body[4].split("\x0c")[0]) + 1
        assert line == 2 + 4 + 2  # the header lines, the rows before, the separator's line
        with pytest.raises(SpecFormatError, match=rf"map.csv, line {line}: row has 2 fields"):
            cli._read_embedding_csv(path, space)

    def test_huge_dim_allocates_nothing(self, tmp_path, dumped):
        # a (28, 10^11) float64 matrix would be 22 TB
        space, _ = dumped
        tracemalloc.start()
        try:
            for rows, message in (
                ([], r"table missing point L0:0$"),
                (["0,0,1,2"], r"line 3: row has 4 fields, expected 100000000002$"),
            ):
                with pytest.raises(SpecFormatError, match=message):
                    self.read(tmp_path, space, ["# p=inf dim=100000000000", "level,element", *rows])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_negative_dim_is_a_bad_header(self, chains, tmp_path, capsys):
        path = tmp_path / "map.csv"
        path.write_text("# p=inf dim=-1\nlevel,element\n5\n")
        argv = ["profile", "--chain", chains["dyadic"], "--embedding", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: bad header: dim must be >= 0, got -1\n"

    @pytest.mark.parametrize("zero, dtype", [("-0", np.float64), ("0", np.int8)])
    def test_negative_zero_is_held_in_float64(self, tmp_path, dumped, zero, dtype):
        space, lines = dumped
        lines = list(lines)
        fields = lines[2].split(",")  # the row of L0:0, whose own coordinate is 0
        assert fields[2] == "0"
        fields[2] = zero
        lines[2] = ",".join(fields)
        matrix = self.read(tmp_path, space, lines).matrix()
        assert matrix.dtype == dtype
        assert np.signbit(matrix[0, 0]) == (zero == "-0")

    @pytest.mark.parametrize(
        "text", ["2", " 2 ", "+2", "2.", "2.0e0", "0_2", "\u0662", "2e", "0x2", "2__0", "2.0.0", ""]
    )
    def test_number_spellings_are_those_of_float(self, tmp_path, dumped, text):
        space, lines = dumped
        lines = list(lines)
        fields = lines[4].split(",")  # L0:2, at distance 2 from L0:0
        assert fields[2] == "2"
        fields[2] = text
        lines[4] = ",".join(fields)
        try:
            want = float(text)
        except ValueError:
            with pytest.raises(SpecFormatError, match="line 5: bad number in row"):
                self.read(tmp_path, space, lines)
        else:
            assert self.read(tmp_path, space, lines).matrix()[2, 0] == want == 2

    @pytest.fixture
    def line_dump(self, tmp_path):
        # the first three levels of the line Z/64..Z/1024: 448 points, and 448 columns
        chain = tmp_path / "line.json"
        chain.write_text(json.dumps(
            {"ambient": {"family": "free_abelian", "rank": 1},
             "levels": [{"kind": "cyclic", "moduli": [2**k]} for k in range(6, 9)]}
        ))
        out = tmp_path / "linf"
        main(["profile", "--chain", str(chain), "--embedding", "linf", "--out", str(out),
              "--dump-map"])
        return assemble_box_space(load_chain(chain)), out / "embedding.csv"

    def test_reading_back_the_line_holds_one_matrix(self, line_dump):
        space, path = line_dump
        n = space.point_count()
        space.points()  # the cached points list is made outside the count
        tracemalloc.start()
        try:
            f = cli._read_embedding_csv(path, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.matrix().dtype == np.int16
        assert list(cli._embedding_lines(f)) == path.read_text().splitlines()
        # the file is read a line at a time into a matrix held in the narrowest exact
        # dtype of the rows so far (int8, then int16 from a row that needs it), which
        # the map takes with no copy: a float64 matrix (8 n^2), a dict of row vectors
        # stacked into a second matrix, or the file's text would not fit
        assert peak < n * n * (1 + 2) + path.stat().st_size / 8

    def test_dumping_the_line_streams_its_rows(self, line_dump, tmp_path):
        space, path = line_dump
        f = cli._read_embedding_csv(path, space)
        again = tmp_path / "again.csv"
        tracemalloc.start()
        try:
            cli._write_lines(again, cli._embedding_lines(f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.read_bytes() == path.read_bytes()
        # a few rows in flight, not the list of lines nor their joined text
        assert peak < path.stat().st_size / 8


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

    def test_precheck_capped_at_the_largest_served_scale(self, chains, capsys, monkeypatch):
        """(Z/4..Z/16)^2 has isometry radii 3, 5 and 9, so no level serves past
        r = 4; the precheck on the action walked the ambient ball of radius 2r."""
        depths = []
        check = fibration._check_action

        def spy(chain, action, r_max, *args):
            depths.append(r_max)
            # an uncapped walk of 8 * 10^12 tuples would exhaust the memory first
            assert r_max <= 4, f"precheck depth {r_max}"
            return check(chain, action, r_max, *args)

        monkeypatch.setattr(fibration, "_check_action", spy)
        code = main(["fce-verify", "--chain", chains["torus"], "--r", "1000000", "--p", "1"])
        out = capsys.readouterr().out
        assert code == 0 and depths == [4]
        assert "no witness sets at this scale; both conditions hold vacuously" in out.splitlines()

    @pytest.mark.parametrize(
        "command, reach",
        [("fce-verify --r 1000000 --p 1", 46), ("fce-verify --r 3 --p 2", 4),
         ("forge --mode ultra --r 2 --p 2", 3), ("forge --mode ultra --r 4 --p 2", 5)],
    )
    def test_default_controls_capped_at_what_is_read(
        self, chains, capsys, monkeypatch, command, reach
    ):
        """(Z/4..Z/16)^2 has diameter 46: the default controls stop there however
        large r is, and reach length 3, ultra's ball, however small."""
        samples = []
        build = cli.norm_equivalence_controls

        def spy(distances, rank, p):
            samples.append(len(distances))
            return build(distances, rank, p)

        monkeypatch.setattr(cli, "norm_equivalence_controls", spy)
        assert main([*command.split(), "--chain", chains["torus"]]) == 0
        assert samples == [reach + 1]
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "mode, r",
        [(mode, r) for mode in ("fce-verify --p 1", "fce-verify --p 2") for r in CAPPED_SCALES]
        # ultra mode needs a top scale of 2 or more
        + [("forge --mode ultra --p 2", r) for r in (*CAPPED_SCALES[1:], 4)],
    )
    def test_capped_controls_keep_every_report(self, chains, tmp_path, capsys, monkeypatch, mode, r):
        # the oracle is the uncapped range up to max(r + 1, 2); ultra mode past
        # r = 4 exhausts the chain, with the same error either way
        argv = [*mode.split(), "--chain", chains["torus"], "--r", str(r)]
        outputs = []
        for reach in (None, max(r + 1, 2)):
            if reach is not None:
                build = cli.norm_equivalence_controls
                monkeypatch.setattr(
                    cli, "norm_equivalence_controls",
                    lambda distances, rank, p: build(range(reach + 1), rank, p),
                )
            out = tmp_path / str(reach)
            code = main([*argv, "--out", str(out)])
            files = {path.name: path.read_bytes() for path in out.glob("*")}
            captured = capsys.readouterr()
            outputs.append((code, captured.out.replace(str(out), "OUT"), captured.err, files))
        assert outputs[0] == outputs[1]

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
        # every command that resolves an embedding holds --p to the one it fixes
        for command in (
            ["forge", "--mode", "averaged", "--level", "0", "--embedding", embedding],
            ["profile", "--embedding", embedding],
            ["fce-verify", "--fibration", f"trivial:{embedding}", "--r", "2"],
        ):
            out = tmp_path / command[0]
            code = main([*command, "--chain", chains["dyadic"], "--p", "2", "--out", str(out)])
            assert code == 2, command
            err = capsys.readouterr().err
            assert err == f"error: --p 2 disagrees with p=inf of embedding {embedding!r}\n"
            assert not out.exists()
            assert main([*command, "--chain", chains["dyadic"], "--p", "inf"]) == 0, command
            capsys.readouterr()

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

    def test_fce_mode_on_a_relabelled_table(self, tmp_path):
        # Z/16 relabelled by a -> 5a + 2, so that the identity is element 2: its
        # cocycle.csv is that of Z/16 with every element and block relabelled
        label = [(5 * a + 2) % 16 for a in range(16)]
        mult = [[0] * 16 for _ in range(16)]
        for a, b in itertools.product(range(16), repeat=2):
            mult[label[a]][label[b]] = label[(a + b) % 16]
        table = {"kind": "table", "mult": mult, "identity": 2, "gen_images": [label[1]]}
        rows = {}
        for name, level in (("cyclic", {"kind": "cyclic", "moduli": [16]}), ("table", table)):
            chain = tmp_path / f"{name}.json"
            chain.write_text(json.dumps({"ambient": DEEP["ambient"], "levels": [level]}))
            out = tmp_path / name
            args = ["forge", "--chain", str(chain), "--mode", "fce", "--r", "4", "--p", "1"]
            assert main([*args, "--out", str(out)]) == 0
            rows[name] = (out / "cocycle.csv").read_text().splitlines()
        assert rows["table"][:2] == rows["cyclic"][:2]
        moved = [line.split(",") for line in rows["cyclic"][2:]]
        moved = [(label[int(g)], label[int(z)], v) for g, z, v in moved]
        assert rows["table"][2:] == [f"{g},{z},{v}" for g, z, v in sorted(moved)]

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


    @pytest.mark.parametrize(
        "mode, flags",
        [
            ("averaged", ["--embedding", "linf", "--level", "1"]),
            ("fce", ["--r", "4", "--p", "1"]),
            ("lift", ["--r", "4", "--p", "1"]),
            ("ultra", ["--r", "4", "--p", "1"]),
        ],
    )
    def test_lines_are_built_only_to_write_or_replay(
        self, chains, tmp_path, monkeypatch, capsys, mode, flags
    ):
        args = ["forge", "--chain", chains["deep"], "--mode", mode, *flags]
        assert main([*args, "--out", str(tmp_path)]) == 0
        capsys.readouterr()

        def unreachable(*args):
            raise AssertionError("CSV lines built with nowhere to go")

        for name in ("_cocycle_lines", "_lift_lines", "_family_lines"):
            monkeypatch.setattr(cli, name, unreachable)
        assert main(args) == 0
        assert capsys.readouterr().out == (tmp_path / "report.txt").read_text()


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


# the benchmark's six command lines (torus, overlap-all, sl2) on the benchmark_chains fixture
BENCHMARK_COMMANDS = [
    "fce-verify --chain {torus} --fibration translation --r 2 --controls {controls}",
    "forge --chain {torus} --mode lift --r 2 --out {out}",
    "fce-verify --chain {line} --fibration trivial:linf --subsets all --r 5",
    "build --chain {sl2} --out {out}",
    "profile --chain {sl2} --embedding linf --out {out}",
    "spectral --chain {sl2} --out {out}",
]

FULL_PARSER = cli._build_parser()


def parse_both(argv):
    """``cli._parse(argv)`` and the full argparse parser's outcome for ``argv``, each as
    ``vars()`` with floats by ``repr`` (so a NaN equals a NaN), or argparse's exit code."""

    def comparable(args):
        return {k: repr(v) if isinstance(v, float) else v for k, v in vars(args).items()}

    fast = cli._parse(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            full = comparable(FULL_PARSER.parse_args(argv))
    except SystemExit as exc:
        full = exc.code
    return (None if fast is None else comparable(fast)), full


@st.composite
def command_lines(draw):
    """argv from subcommand names, every flag with values in both spellings, abbreviations,
    help flags and ``--``: the named subcommand's own flags are drawn more often, and its
    required flags lead half the lines, so that some lines parse."""
    every = sorted({flag for _, _, table in cli._SUBCOMMANDS.values() for flag in table})
    every += ["--emb", "--tol"]
    values = ["x", "2", "0", "-1", "1e-9", "-1e-9", "nan", "inf", "0.3", "all", "lift", "nope", ""]
    words = [*cli._SUBCOMMANDS, "warp", "-h", "--help", "--", "--dump-map=1", *every, *values]
    name = draw(st.sampled_from([*cli._SUBCOMMANDS, "warp"]))
    own = cli._SUBCOMMANDS.get(name, (None, None, {}))[2]
    argv = [] if draw(st.integers(0, 9)) == 0 else [name]
    if argv and draw(st.booleans()):
        for flag, spec in own.items():
            if spec.get("required"):
                argv += [flag, draw(st.sampled_from(["x", "2", "lift"]))]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 3))
        if kind == 3:
            argv.append(draw(st.sampled_from([*own, *words])))
            continue
        flag = draw(st.sampled_from(list(own) if own and kind < 2 else every))
        value = draw(st.sampled_from(values))
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    return argv


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

    @pytest.mark.parametrize("command", ["fce-verify --r 2", "forge --mode fce", "profile"])
    def test_negative_tolerance_exits_two(self, chains, capsys, command):
        # under a negative tolerance equal values would fail the sandwich
        # check and pass the overlap check, whatever numpy's isclose does
        argv = [*command.split(), "--chain", chains["dyadic"], "--tolerance=-1e-9"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("argument --tolerance: tolerance must not be negative, got -1e-9\n")

    def test_unparsable_tolerance_keeps_the_float_message(self, chains, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["forge", "--chain", chains["dyadic"], "--mode", "fce", "--tolerance", "tiny"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("argument --tolerance: invalid float value: 'tiny'\n")

    @pytest.mark.parametrize(
        "argv, where",
        [
            ("profile --embedding cycle-plane --p nan", "argument --p"),
            ("forge --mode lift --r 2 --p nan", "argument --p"),
            ("fce-verify --r 2 --p nan", "argument --p"),
            ("profile --embedding {csv}", "{csv}: bad header"),
        ],
    )
    def test_nan_p_exits_two(self, chains, tmp_path, capsys, argv, where):
        # NaN is not >= 1: refused as input, not carried on into an internal error
        csv = tmp_path / "embedding.csv"
        rows = [f"0,{x},{x}" for x in range(4)] + [f"1,{x},{x}" for x in range(8)]
        csv.write_text("\n".join(["# p=nan dim=1", "level,element,c_1", *rows]) + "\n")
        argv = [*argv.format(csv=csv).split(), "--chain", chains["line"]]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"{where.format(csv=csv)}: norm exponent must be >= 1, got nan\n")

    @pytest.mark.parametrize(
        "argv",
        [
            "",
            "--help",
            "-h",
            *(f"{name} --help" for name in cli._SUBCOMMANDS),
            *cli._SUBCOMMANDS,
            "warp",
            "--bogus build",
            "profile --chain x --bogus",
            "forge --chain x --mode nope",
            "spectral --chain x --epsilon 0.5",
            "profile --chain build --p inf",
            "build --chain x --out",
            "build --chain -1e-9",
            "build --chain=-1e-9",
            "profile --chain x --dump-map=1",
            "spectral --chain x --chain y --epsilon=nan",
        ],
    )
    def test_parser_for_the_named_subcommand_acts_as_the_full_one(self, argv):
        # the fast parser reads the named subcommand's flags alone; argparse is the oracle
        fast, full = parse_both(argv.split())
        assert fast is None or fast == full

    @given(command_lines())
    @settings(max_examples=1000, deadline=None)
    def test_fast_parser_agrees_with_argparse(self, argv):
        fast, full = parse_both(argv)
        assert fast is None or fast == full

    @pytest.mark.parametrize("command", BENCHMARK_COMMANDS)
    def test_benchmark_command_lines_take_the_fast_path(self, benchmark_chains, command):
        fast, full = parse_both(command.format(**benchmark_chains, out="out").split())
        assert fast is not None
        assert fast == full

    def test_benchmark_commands_load_no_argparse(self, benchmark_chains, tmp_path):
        # every command's main in one process, then whether argparse or gettext was loaded
        script = (
            "import contextlib, io, sys\n"
            "from boxlab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv.split()) for argv in sys.argv[1:]]\n"
            "print(codes, 'argparse' in sys.modules, 'gettext' in sys.modules)\n"
        )
        argvs = [
            command.format(**benchmark_chains, out=tmp_path / str(i))
            for i, command in enumerate(BENCHMARK_COMMANDS)
        ]
        result = subprocess.run(
            [sys.executable, "-c", script, *argvs], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{[0] * len(BENCHMARK_COMMANDS)} False False\n"

    def test_module_entry_point(self, chains):
        result = subprocess.run(
            [sys.executable, "-m", "boxlab.cli", "build", "--chain", chains["dyadic"]],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "isometry radius 9" in result.stdout


class TestExitCodes:
    """Bad input exits 2 with its message; a fault inside the program exits 3."""

    @pytest.fixture(scope="class")
    def inputs(self, chains, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        paths = dict(chains)
        one = {"ambient": {"family": "free_abelian", "rank": 1},
               "levels": [{"kind": "cyclic", "moduli": [1]}]}
        for name, data in (("one", one), ("sl2", sl2_chain_spec(1))):
            paths[name] = str(root / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(data))
        paths["decreasing"] = str(root / "decreasing.csv")
        Path(paths["decreasing"]).write_text("t,rho_minus,rho_plus\n0,0,0\n1,2,2\n2,1,1\n")
        # rho_plus 0, 5, 2, 3, ...: fce-verify used to pass with it where profile exits 2
        paths["upper_dip"] = str(root / "upper_dip.csv")
        rows = "".join(f"{t},{t},{5 if t == 1 else t}\n" for t in range(9))
        Path(paths["upper_dip"]).write_text("t,rho_minus,rho_plus\n" + rows)
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
            (
                "fce-verify --chain {line} --fibration trivial:linf --r 3 --controls {upper_dip}",
                "rho_plus samples are not nondecreasing",
            ),
            (
                "profile --chain {line} --controls {upper_dip}",
                "rho_plus samples are not nondecreasing",
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
    """Small chains for the benchmark commands: SL2(Z/3), SL2(Z/9), (Z/4, Z/8)^2 and Z/2, Z/4,
    and the rank-2 norm-equivalence controls at p = 2 up to t = 3."""
    root = tmp_path_factory.mktemp("benchmark_chains")
    paths = {"controls": str(root / "controls.csv")}
    rows = [f"{t},{t * 2**-0.5!r},{t}" for t in range(4)]
    Path(paths["controls"]).write_text("\n".join(["t,rho_minus,rho_plus", *rows]) + "\n")
    for name, data in (
        ("sl2", sl2_chain_spec(1)),
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
        "fce-verify --chain {torus} --fibration translation --r 2 --controls {controls}",
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
    """``run`` is the process entry: ``main``, flushed streams, then an exit without teardown."""

    # what the console script's wrapper does
    SCRIPT = "import sys; from boxlab.cli import run; sys.exit(run())"
    # the console script's wrapper and ``python -m boxlab.cli``, as child argv prefixes
    ENTRIES = {"script": ["-c", SCRIPT], "module": ["-m", "boxlab.cli"]}
    # both entries with verify_fce broken, for an internal error in a fresh process;
    # runpy.run_module with run_name "__main__" is what ``python -m`` does
    BROKEN = (
        "import boxlab.fibration\n"
        "def broken(*args, **kwargs):\n"
        "    raise ValueError('broken verifier')\n"
        "boxlab.fibration.verify_fce = broken\n"
    )
    BROKEN_ENTRIES = {
        "script": ["-c", BROKEN + SCRIPT],
        "module": ["-c", BROKEN + "import runpy; runpy.run_module('boxlab.cli', run_name='__main__')"],
    }

    @pytest.fixture(scope="class")
    def inputs(self, chains, tmp_path_factory):
        """The CLI chains, and controls that every pair of the torus at r=3 violates."""
        paths = dict(chains)
        paths["tight"] = str(tmp_path_factory.mktemp("tight") / "tight.csv")
        rows = "".join(f"{t},{2 * t},{2 * t}\n" for t in range(20))
        Path(paths["tight"]).write_text("t,rho_minus,rho_plus\n" + rows)
        return paths

    @staticmethod
    def buffered_env():
        """This environment with block-buffered standard streams, as a plain shell gives."""
        return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

    # a failing check that prints about 400 KB of witnesses
    LONG = "fce-verify --chain {torus} --r 3 --controls {tight}"

    @pytest.mark.parametrize("entry", ["script", "module"])
    def test_stdout_is_complete_to_a_file_and_a_pipe(self, inputs, tmp_path, capsys, entry):
        argv = self.LONG.format(**inputs).split()
        assert main(argv) == 1
        want = capsys.readouterr().out.encode()
        assert len(want) > 1 << 18
        command = [sys.executable, *self.ENTRIES[entry], *argv]
        piped = subprocess.run(command, capture_output=True, env=self.buffered_env())
        assert (piped.returncode, piped.stdout, piped.stderr) == (1, want, b"")
        with open(tmp_path / "stdout.txt", "wb") as fh:
            to_file = subprocess.run(
                command, stdout=fh, stderr=subprocess.PIPE, env=self.buffered_env()
            )
        assert (to_file.returncode, to_file.stderr) == (1, b"")
        assert (tmp_path / "stdout.txt").read_bytes() == want

    @pytest.mark.parametrize("entry", ["script", "module"])
    @pytest.mark.parametrize(
        "argv, code, err",
        [
            ("build --chain {dyadic}", 0, ""),
            ("spectral --chain {deep} --epsilon 0.5", 1, ""),
            ("build --chain {dyadic}.missing", 2, "error: [Errno 2] No such file or directory"),
            ("build", 2, "usage: boxlab build"),
            ("fce-verify --chain {dyadic} --r 2", 3, "Traceback (most recent call last):"),
        ],
        ids=["pass", "fail", "bad-input", "usage", "internal"],
    )
    def test_exit_codes(self, inputs, capsys, entry, argv, code, err):
        argv = argv.format(**inputs).split()
        prefix = (self.BROKEN_ENTRIES if code == 3 else self.ENTRIES)[entry]
        child = subprocess.run(
            [sys.executable, *prefix, *argv], capture_output=True, text=True, env=self.buffered_env()
        )
        assert child.returncode == code
        assert child.stderr.startswith(err)
        if code == 3:
            assert child.stderr.endswith("ValueError: broken verifier\n")
        elif code != 2:
            try:
                assert main(argv) == code
            finally:
                assert child.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("entry", ["script", "module"])
    @pytest.mark.parametrize(
        "argv, code, err",
        [
            # the buffered report fails at the flush after main, as the interpreter's exit would
            ("build --chain {dyadic}", 120, ""),
            # a report larger than the buffer fails inside main, which reports it
            (LONG, 2, "error: [Errno 32] Broken pipe\n"),
        ],
        ids=["short", "long"],
    )
    def test_closed_pipe_exits_without_a_traceback(self, inputs, entry, argv, code, err):
        read, write = os.pipe()
        os.close(read)
        try:
            child = subprocess.run(
                [sys.executable, *self.ENTRIES[entry], *argv.format(**inputs).split()],
                stdout=write,
                stderr=subprocess.PIPE,
                env=self.buffered_env(),
            )
        finally:
            os.close(write)
        assert (child.returncode, child.stderr.decode()) == (code, err)

    @pytest.mark.parametrize("entry", ["script", "module"])
    def test_files_are_fully_written(self, chains, tmp_path, capsys, entry):
        # 126 points: distances.csv holds 7875 rows
        argv = ["build", "--chain", chains["deep"], "--out", str(tmp_path / "child")]
        child = subprocess.run(
            [sys.executable, *self.ENTRIES[entry], *argv], capture_output=True, env=self.buffered_env()
        )
        assert child.returncode == 0
        assert main([*argv[:-1], str(tmp_path / "main")]) == 0
        written = {p.name: p.read_bytes() for p in (tmp_path / "main").iterdir()}
        assert len(written["distances.csv"].splitlines()) == 1 + 126 * 125 // 2
        assert {p.name: p.read_bytes() for p in (tmp_path / "child").iterdir()} == written
        assert child.stdout.replace(b"child", b"main") == capsys.readouterr().out.encode()

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

    def test_run_freezes_the_import(self):
        # a stubbed main reports the freeze count it runs under: run, which owns
        # its process, freezes what the import left, and main (below) does not
        script = (
            "import gc\n"
            "from boxlab import cli\n"
            "print(gc.get_freeze_count())\n"
            "cli.main = lambda argv: print(gc.get_freeze_count() > 0) or 0\n"
            "cli.run([])\n"
        )
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (child.returncode, child.stdout, child.stderr) == (0, "0\nTrue\n", "")

    def test_main_leaves_the_collector_alone(self, chains, capsys):
        before = gc.get_freeze_count()
        assert main(["build", "--chain", chains["dyadic"]]) == 0
        assert gc.get_freeze_count() == before
        assert gc.isenabled()
