"""Record classes: constructor signatures, value equality on the reports, no dataclasses."""

import ast
import copy
import importlib
import inspect
from pathlib import Path

import pytest

import boxlab as bl
from boxlab.boxspace import BoxPoint

MODULES = [
    "boxlab" if path.stem == "__init__" else f"boxlab.{path.stem}"
    for path in sorted(Path(bl.__file__).parent.glob("*.py"))
]

REQUIRED = inspect.Parameter.empty

# The constructor parameters of the dataclasses these classes used to be,
# in order; None stands for a default_factory that gave each instance a fresh
# list or dict.
SIGNATURES = {
    bl.BoxSpace: [("chain", REQUIRED), ("separations", REQUIRED), ("level_offsets", REQUIRED)],
    bl.AmbientGroup: [("family", REQUIRED), ("rank", REQUIRED)],
    bl.GroupChain: [("ambient", REQUIRED), ("levels", REQUIRED), ("connecting_maps", None)],
    bl.CoarseEmbeddingMap: [
        ("domain", REQUIRED), ("p", REQUIRED), ("dim", REQUIRED), ("table", REQUIRED),
    ],
    bl.ControlPair: [("rho_minus", REQUIRED), ("rho_plus", REQUIRED)],
    bl.CoarseReport: [
        ("passed", REQUIRED), ("tolerance", REQUIRED), ("pair_count", REQUIRED),
        ("witnesses", None), ("divergence_note", ""),
    ],
    bl.PnormReport: [
        ("block_count", REQUIRED), ("p", REQUIRED), ("scale", REQUIRED),
        ("combined_norm", REQUIRED), ("lower", REQUIRED), ("upper", REQUIRED),
        ("precondition_ok", REQUIRED), ("passed", REQUIRED),
    ],
    bl.FibredEmbedding: [
        ("space", REQUIRED), ("p", REQUIRED), ("dim", REQUIRED), ("section", REQUIRED),
        ("exclusion", REQUIRED), ("trivialization", REQUIRED), ("note", ""),
    ],
    # less the private per-element cache, which went with the scalar isometry path
    bl.ProperAction: [
        ("p", REQUIRED), ("dim", REQUIRED), ("rule", REQUIRED), ("label", ""),
    ],
    bl.FceReport: [
        ("passed", REQUIRED), ("r", REQUIRED), ("mode", REQUIRED), ("tolerance", REQUIRED),
        ("set_count", REQUIRED), ("excluded_count", REQUIRED), ("sandwich_pairs", REQUIRED),
        ("overlap_pairs", REQUIRED), ("vacuous_overlaps", REQUIRED),
        ("sandwich_witnesses", None), ("overlap_witnesses", None), ("notes", None),
    ],
    bl.QuotientCarrier: [("quotient", REQUIRED)],
    bl.LocalRepresentation: [
        ("carrier", REQUIRED), ("p", REQUIRED), ("dim", REQUIRED), ("r", REQUIRED),
        ("tau", REQUIRED), ("perm", None), ("signs", None),
    ],
    bl.LocalCocycle: [
        ("carrier", REQUIRED), ("p", REQUIRED), ("dim", REQUIRED), ("r", REQUIRED),
        ("values", REQUIRED), ("companion", REQUIRED), ("label", ""),
    ],
    bl.LiftedCocycle: [
        ("chain", REQUIRED), ("level", REQUIRED), ("base", REQUIRED), ("r", REQUIRED),
    ],
    bl.CocycleReport: [
        ("passed", REQUIRED), ("mode", REQUIRED), ("tolerance", REQUIRED),
        ("identity_checked", REQUIRED), ("representation_checked", REQUIRED),
        ("identity_witnesses", None), ("representation_witnesses", None),
    ],
    bl.CocycleFamily: [("chain", REQUIRED), ("members", REQUIRED)],
    bl.UltraReport: [("passed", REQUIRED), ("tolerance", REQUIRED), ("rows", REQUIRED)],
    bl.SpectralScan: [
        ("epsilon", REQUIRED), ("rows", REQUIRED), ("verdict", REQUIRED), ("notes", None),
    ],
}

x, y = BoxPoint(0, 0), BoxPoint(0, 1)
# one instance of each report record, every field given
REPORTS = [
    bl.ControlPair({0: 0.0, 1: 0.5}, {0: 0.0, 1: 1.0}),
    bl.CoarseReport(False, 1e-9, 3, [(x, y, 1, 2.0, 0.5, 1.0)], "divergence"),
    bl.PnormReport(4, 2.0, 2.0, 3.0, 1.0, 2.0, True, True),
    bl.FceReport(
        False, 2, "all", 1e-9, 3, 1, 4, 2, 1,
        [((x, y), x, y, 1, 2.0, 0.5, 1.0)], [((x, y), (x, y), x, y)], ["note"],
    ),
    bl.CocycleReport(False, "atol", 1e-9, 5, 5, [(1, 2, 0.5)], [(1, 2)]),
    bl.UltraReport(True, 1e-9, [((1,), 1, {2: 1.0}, True, True, True)]),
    bl.SpectralScan(1e-3, [(0, 4, 2, 0.5)], True, ["finite prefix only"]),
]


def _other(value):
    """A value of the same kind that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "!"
    if isinstance(value, list):
        return value + [value[0]]
    return {**value, 99: 99.0}


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda cls: cls.__name__)
def test_constructor_signature_is_kept(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


@pytest.mark.parametrize("report", REPORTS, ids=lambda r: type(r).__name__)
def test_report_equals_a_field_for_field_copy(report):
    fields = list(inspect.signature(type(report)).parameters)
    assert list(vars(report)) == fields
    twin = type(report)(**copy.deepcopy(vars(report)))
    assert twin == report and not twin != report
    assert repr(twin) == repr(report)
    for name in fields:
        values = {**copy.deepcopy(vars(report)), name: _other(vars(report)[name])}
        changed = type(report)(**values)
        assert changed != report and not changed == report, name
    assert report != object()
    with pytest.raises(TypeError):
        hash(report)


def test_report_repr_names_every_field():
    assert repr(bl.ControlPair({1: 1.0}, {1: 2.0})) == (
        "ControlPair(rho_minus={1: 1.0}, rho_plus={1: 2.0})"
    )
    assert repr(bl.CocycleReport(True, "exact", 0.0, 1, 1)) == (
        "CocycleReport(passed=True, mode='exact', tolerance=0.0, identity_checked=1,"
        " representation_checked=1, identity_witnesses=[], representation_witnesses=[])"
    )


def test_omitted_witness_lists_are_fresh_per_instance():
    pairs = [
        (bl.CoarseReport(True, 0.0, 1), bl.CoarseReport(True, 0.0, 1), ["witnesses"]),
        (
            bl.FceReport(True, 1, "balls", 0.0, 0, 0, 0, 0, 0),
            bl.FceReport(True, 1, "balls", 0.0, 0, 0, 0, 0, 0),
            ["sandwich_witnesses", "overlap_witnesses", "notes"],
        ),
        (
            bl.CocycleReport(True, "atol", 0.0, 0, 0),
            bl.CocycleReport(True, "atol", 0.0, 0, 0),
            ["identity_witnesses", "representation_witnesses"],
        ),
        (bl.SpectralScan(0.1, [], True), bl.SpectralScan(0.1, [], True), ["notes"]),
    ]
    ambient = bl.AmbientGroup("free_abelian", 1)
    chains = (bl.GroupChain(ambient, []), bl.GroupChain(ambient, []))
    pairs.append((*chains, ["connecting_maps"]))
    for a, b, names in pairs:
        for name in names:
            mine, theirs = getattr(a, name), getattr(b, name)
            assert mine == theirs == type(mine)() and mine is not theirs, name


def test_ambient_group_is_an_immutable_value():
    a = bl.AmbientGroup("free", 2)
    assert a == bl.AmbientGroup("free", 2) and hash(a) == hash(bl.AmbientGroup("free", 2))
    assert a != bl.AmbientGroup("free", 3) and a != bl.AmbientGroup("free_abelian", 2)
    assert a != ("free", 2)
    assert len({a, bl.AmbientGroup("free", 2)}) == 1
    assert repr(a) == "AmbientGroup(family='free', rank=2)"
    with pytest.raises(AttributeError, match="cannot assign to field 'rank'"):
        a.rank = 3
    with pytest.raises(AttributeError, match="cannot delete field 'family'"):
        del a.family
    assert (a.family, a.rank) == ("free", 2)
    with pytest.raises(ValueError, match="unknown ambient family 'cyclic'"):
        bl.AmbientGroup("cyclic", 1)
    with pytest.raises(ValueError, match="ambient rank must be positive, got 0"):
        bl.AmbientGroup("free", 0)


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda cls: cls.__name__)
def test_only_reports_and_the_ambient_compare_by_value(cls):
    by_value = {type(r) for r in REPORTS} | {bl.AmbientGroup}
    assert (cls.__eq__ is object.__eq__) == (cls not in by_value)


@pytest.mark.parametrize("name", MODULES)
def test_no_dataclasses(name):
    module = importlib.import_module(name)
    classes = [c for c in vars(module).values() if isinstance(c, type) and c.__module__ == name]
    assert not [c.__name__ for c in classes if hasattr(c, "__dataclass_fields__")]
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and not node.level
    }
    assert "dataclasses" not in imported
