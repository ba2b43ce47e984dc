"""Importing the package: the cyclic collector is paused while numpy and boxlab
load, and the caller's collector state comes back as it was.  Each test imports
boxlab in a fresh interpreter."""

import json
import subprocess
import sys

import pytest

# runs before the import under test: lists the generation of each collection
# that finishes from the package's first submodule on, which is where the
# package's own code begins; before it, finding and reading the package's
# __init__ may or may not fill the young generation, as the caller left it
COUNT = """\
import gc, json, sys
collections = []
gc.callbacks.append(
    lambda phase, info: phase == "stop" and "boxlab.boxspace" in sys.modules
    and collections.append(info["generation"])
)
before = {}
"""

REPORT = """
state = {"enabled": gc.isenabled(), "frozen": gc.get_freeze_count(), "collections": collections}
print(json.dumps({**state, **before}))
"""

# a meta-path finder that refuses the package's last submodule, after numpy
# and every other submodule have loaded
REFUSE_SPECTRAL = """
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == "boxlab.spectral":
            raise ImportError("refused boxlab.spectral")
        return None

sys.meta_path.insert(0, Refuse())
"""


def fresh(script: str) -> dict:
    """The collector's state that ``script`` leaves, from a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, "-c", COUNT + script + REPORT], capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


@pytest.mark.parametrize("enabled", [True, False])
def test_import_runs_no_collection(enabled):
    # and leaves the collector enabled or disabled, as it found it
    state = fresh(("" if enabled else "gc.disable()\n") + "import boxlab")
    assert state == {"enabled": enabled, "frozen": 0, "collections": []}


def test_collections_are_counted():
    # the count is not vacuous: cycles made after the import are collected
    state = fresh("import boxlab\nfor _ in range(10000):\n    a = []; a.append(a)")
    assert state["enabled"] and state["collections"]


def test_command_line_module_runs_no_collection():
    assert fresh("import boxlab.cli")["collections"] == []


def test_frozen_caller_keeps_its_freeze_count():
    state = fresh("gc.freeze()\nbefore['frozen_before'] = gc.get_freeze_count()\nimport boxlab")
    assert state["enabled"] and state["frozen_before"] > 0
    # the import's objects are left young, for the next collection to walk once
    assert state["frozen"] == state["frozen_before"]


@pytest.mark.parametrize("enabled", [True, False])
def test_failed_import_restores_the_collector(enabled):
    script = ("" if enabled else "gc.disable()\n") + REFUSE_SPECTRAL + (
        "try:\n"
        "    import boxlab\n"
        "except ImportError as exc:\n"
        "    assert str(exc) == 'refused boxlab.spectral', exc\n"
        "    assert 'numpy' in sys.modules and 'boxlab' not in sys.modules\n"
        "else:\n"
        "    raise AssertionError('the import did not fail')\n"
    )
    state = fresh(script)
    assert state["enabled"] is enabled and state["frozen"] == 0


def test_no_collector_name_is_left_in_the_package():
    import boxlab

    assert [name for name in vars(boxlab) if "gc" in name.lower()] == []
