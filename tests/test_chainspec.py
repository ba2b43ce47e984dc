"""Chain description files."""

import json

import pytest

import boxlab as bl
from boxlab.chainspec import MAX_POINTS
from boxlab.errors import SpecFormatError

GOOD = {
    "ambient": {"family": "free_abelian", "rank": 1},
    "levels": [
        {"kind": "cyclic", "moduli": [4]},
        {"kind": "cyclic", "moduli": [8]},
    ],
}


def test_parse_good_chain():
    chain = bl.parse_chain(GOOD)
    assert chain.level_count() == 2
    assert [q.order for q in chain.levels] == [4, 8]
    assert chain.radius(0) == 3


def test_parse_explicit_connecting_map():
    data = dict(GOOD)
    data["connecting_maps"] = [[0, 1, 2, 3, 0, 1, 2, 3]]
    chain = bl.parse_chain(data)
    assert chain.connecting_maps[0].tolist() == [0, 1, 2, 3, 0, 1, 2, 3]


def test_load_roundtrip(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(GOOD))
    chain = bl.load_chain(path)
    assert chain.level_count() == 2


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("ambient"),
        lambda d: d.pop("levels"),
        lambda d: d.update(levels=[]),
        lambda d: d.update(extra=1),
        lambda d: d["ambient"].pop("rank"),
        lambda d: d.update(levels=[{"kind": "nope"}]),
        lambda d: d.update(levels=[{"kind": "cyclic"}]),
        lambda d: d.update(connecting_maps="x"),
        lambda d: d.update(connecting_maps=[[0, 1]]),
    ],
)
def test_malformed_descriptions_rejected(mutate):
    data = json.loads(json.dumps(GOOD))
    mutate(data)
    with pytest.raises(SpecFormatError):
        bl.parse_chain(data)


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"ambient": {,}')
    with pytest.raises(SpecFormatError) as exc:
        bl.load_chain(path)
    msg = str(exc.value)
    assert "line" in msg and "column" in msg


def test_decreasing_radii_rejected():
    data = {
        "ambient": {"family": "free_abelian", "rank": 1},
        "levels": [{"kind": "cyclic", "moduli": [8]}, {"kind": "cyclic", "moduli": [4]}],
    }
    with pytest.raises(SpecFormatError):
        bl.parse_chain(data)


def test_unknown_family_rejected():
    data = json.loads(json.dumps(GOOD))
    data["ambient"]["family"] = "braid"
    with pytest.raises(SpecFormatError):
        bl.parse_chain(data)


def line(*moduli, rank=1):
    return {
        "ambient": {"family": "free_abelian", "rank": rank},
        "levels": [{"kind": "cyclic", "moduli": [m] * rank} for m in moduli],
    }


@pytest.mark.parametrize(
    "levels, level, total",
    [
        ([{"kind": "cyclic", "moduli": [64, 65]}], 0, 4160),
        ([{"kind": "cyclic", "moduli": [64]}, {"kind": "permutation", "degree": 5000}], 1, 5064),
        ([{"kind": "table", "mult": [[]] * 4000}, {"kind": "cyclic", "moduli": [97]}], 1, 4097),
    ],
)
def test_point_cap_counts_every_kind(levels, level, total):
    data = {"ambient": {"family": "free_abelian", "rank": 1}, "levels": levels}
    with pytest.raises(SpecFormatError) as exc:
        bl.parse_chain(data)
    assert str(exc.value) == (
        f"level {level} brings the chain to {total} points, above the cap of {MAX_POINTS}"
    )


@pytest.mark.parametrize(
    "data",
    # 1984 and 1344 points, and a chain of exactly the cap
    [line(1024, 512, 256, 128, 64), line(32, 16, 8, rank=2), line(4032, 64)],
)
def test_point_cap_admits_baseline_chains(data):
    # coarsest level last, so build_chain refuses the chain after it passed the cap
    with pytest.raises(SpecFormatError, match="orders decrease"):
        bl.parse_chain(data)
