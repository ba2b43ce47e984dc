"""Chain description files.

A chain file is JSON with the shape documented in the README:

    {
      "ambient": {"family": "free_abelian", "rank": 1},
      "levels": [
        {"kind": "cyclic", "moduli": [2]},
        {"kind": "cyclic", "moduli": [4]}
      ],
      "connecting_maps": [[0, 1, 0, 1]]
    }

``connecting_maps`` is optional; when omitted the maps are inferred by
transporting breadth-first geodesic words and then validated.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import BoxlabError, SpecFormatError
from .groups import (
    MAX_POINTS, AmbientGroup, GroupChain, _check_point_cap, _field_fault, build_chain,
    build_quotient,
)

__all__ = ["parse_chain", "load_chain"]

_AMBIENT_FIELDS = ("family", "rank")


def _declared_order(spec) -> int:
    """The order a level spec declares; 0 when malformed, which build_quotient then reports."""
    try:
        if spec["kind"] == "cyclic":
            return math.prod(int(m) for m in spec["moduli"])
        return len(spec["mult"]) if spec["kind"] == "table" else int(spec["degree"])
    except (TypeError, KeyError, ValueError):
        return 0


def parse_chain(data) -> GroupChain:
    """Build a validated chain from parsed JSON data."""
    if not isinstance(data, dict):
        raise SpecFormatError(f"chain description must be an object, got {type(data).__name__}")
    unknown = set(data) - {"ambient", "levels", "connecting_maps"}
    if unknown:
        raise SpecFormatError(f"unknown chain fields {sorted(unknown)}")
    try:
        ambient_data = data["ambient"]
        level_specs = data["levels"]
    except KeyError as exc:
        raise SpecFormatError(f"chain description missing field {exc.args[0]!r}") from None
    if not isinstance(ambient_data, dict):
        raise SpecFormatError("'ambient' must be an object with 'family' and 'rank'")
    missing = [f for f in _AMBIENT_FIELDS if f not in ambient_data]
    if missing:
        raise SpecFormatError(f"'ambient' missing fields {missing}")
    if not isinstance(level_specs, list) or not level_specs:
        raise SpecFormatError("'levels' must be a non-empty list of quotient specs")
    fault = _field_fault(ambient_data["rank"], 0)
    if fault:
        raise SpecFormatError(f"bad ambient description: field 'rank': {fault}")
    try:
        ambient = AmbientGroup(str(ambient_data["family"]), int(ambient_data["rank"]))
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(f"bad ambient description: {exc}") from exc
    # the declared orders meet the cap before any level is built
    _check_point_cap((max(_declared_order(spec), 0) for spec in level_specs), SpecFormatError)
    levels = []
    for i, spec in enumerate(level_specs):
        try:
            levels.append(build_quotient(spec))
        except BoxlabError as exc:
            raise SpecFormatError(f"level {i}: {exc}") from exc
    maps = data.get("connecting_maps")
    if maps is not None:
        if not isinstance(maps, list):
            raise SpecFormatError("'connecting_maps' must be a list of index arrays")
        for i, m in enumerate(maps):
            # exactly int: a bool is an int to isinstance
            if not isinstance(m, list) or not set(map(type, m)) <= {int}:
                raise SpecFormatError(f"connecting map {i} must be a list of integers")
    try:
        return build_chain(ambient, levels, maps)
    except BoxlabError as exc:
        raise SpecFormatError(str(exc)) from exc


def load_chain(path) -> GroupChain:
    """Load a chain description from a JSON file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return parse_chain(data)
    except SpecFormatError as exc:
        raise SpecFormatError(f"{path}: {exc}") from exc
