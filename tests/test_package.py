"""The package's public names: each module's ``__all__`` lists its own, and
``boxlab`` re-exports their union."""

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import boxlab as bl
from boxlab import errors

# the modules the package re-exports, in the order of its star imports
MODULES = (
    "boxspace", "chainspec", "cocycles", "embedding", "errors", "fibration", "groups", "lpspace",
    "spectral",
)


def test_all_is_the_ordered_union_of_the_modules():
    modules = [importlib.import_module(f"boxlab.{name}") for name in MODULES]
    union = [name for module in modules for name in module.__all__]
    assert bl.__all__ == union
    # no name is declared by two modules, where one star import would shadow the other
    assert len(set(union)) == len(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(bl, name) is getattr(module, name), (module.__name__, name)


def test_every_module_but_the_cli_is_re_exported():
    stems = {path.stem for path in Path(bl.__file__).parent.glob("*.py")}
    assert stems == {*MODULES, "__init__", "cli"}


def test_groups_names_are_public():
    # declared public by groups, exported at package level once its __all__ was
    assert {
        "FREE", "FREE_ABELIAN", "EXPLICIT_CHAIN_LIMIT", "MAX_POINTS", "reduce_word",
        "ambient_mult", "ambient_identity", "ambient_from_letters",
    } <= set(bl.__all__)


def test_errors_all_lists_every_error_class():
    classes = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.BoxlabError)
    }
    assert set(errors.__all__) == classes
    assert len(errors.__all__) == len(classes)
    # the __future__ import is not a public name
    assert "annotations" not in bl.__all__


def test_the_package_does_not_import_the_cli():
    child = subprocess.run(
        [sys.executable, "-c", "import sys, boxlab; print('boxlab.cli' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert child.stdout.strip() == "False"
