"""Coarse disjoint union of the levels of a chain.

Levels keep their word metrics.  Consecutive identity elements are separated
by more than both neighbouring diameters, and cross-level distances route
through the identities, so any subset of diameter below the smallest
separation stays inside a single level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SpecFormatError
from .groups import GroupChain

__all__ = [
    "BoxPoint",
    "BoxSpace",
    "assemble_box_space",
    "box_distance",
    "format_point",
    "parse_point",
]


class BoxPoint(NamedTuple):
    level: int
    element: int


@dataclass
class BoxSpace:
    """Disjoint union of chain levels with separated identity baselines."""

    chain: GroupChain
    separations: tuple[int, ...]
    level_offsets: tuple[int, ...]

    def __post_init__(self):
        self._points: list[BoxPoint] | None = None
        self._matrix: np.ndarray | None = None

    def points(self) -> list[BoxPoint]:
        if self._points is None:
            self._points = [
                BoxPoint(i, x)
                for i, q in enumerate(self.chain.levels)
                for x in range(q.order)
            ]
        return self._points

    def point_count(self) -> int:
        return sum(q.order for q in self.chain.levels)

    def point_index(self, point: BoxPoint) -> int:
        return int(self.point_indices([point])[0])

    def point_indices(self, points) -> np.ndarray:
        """Indices into ``points()`` of many points; ValueError names the first stranger."""
        orders = np.array([q.order for q in self.chain.levels], dtype=np.int64)
        level, element = np.array(points, dtype=np.int64).reshape(-1, 2).T
        known = (0 <= level) & (level < len(orders))
        known[known] &= (0 <= element[known]) & (element[known] < orders[level[known]])
        if not known.all():
            k = int(np.argmin(known))
            stranger = BoxPoint(int(level[k]), int(element[k]))
            raise ValueError(f"{format_point(stranger)} is not a point of the space")
        return (np.cumsum(orders) - orders)[level] + element

    def identity_point(self, level: int) -> BoxPoint:
        return BoxPoint(level, self.chain.levels[level].identity)

    def contains(self, point: BoxPoint) -> bool:
        return 0 <= point.level < len(self.chain.levels) and 0 <= point.element < self.chain.levels[point.level].order

    def distance(self, x: BoxPoint, y: BoxPoint) -> int:
        return box_distance(self, x, y)

    def distance_matrix(self) -> np.ndarray:
        """Dense distance matrix over ``points()`` order.

        Diagonal blocks are the levels' Cayley matrices; across levels the
        entry is ``|x| + |off_i - off_j| + |y|``.
        """
        if self._matrix is None:
            levels = self.chain.levels
            orders = [q.order for q in levels]
            offset = np.repeat(np.array(self.level_offsets, dtype=np.int64), orders)
            length = np.concatenate([q.distance_from_identity() for q in levels])
            mat = offset[:, None] - offset
            np.abs(mat, out=mat)
            mat += length[:, None]
            mat += length
            start = 0
            for q in levels:
                end = start + q.order
                mat[start:end, start:end] = q.cayley_matrix()
                start = end
            self._matrix = mat
        return self._matrix

    def diameter(self) -> int:
        """Largest distance, without the matrix.

        Levels are vertex-transitive, so a point at distance ``diam_i`` from
        level i's identity exists; the farthest pair either lies in one
        level or joins such points of levels i < j through the identities.
        """
        diams = [q.diameter() for q in self.chain.levels]
        off = self.level_offsets
        pairs = itertools.combinations(range(len(diams)), 2)
        return max([*diams, *(diams[i] + off[j] - off[i] + diams[j] for i, j in pairs)])


def assemble_box_space(chain: GroupChain) -> BoxSpace:
    """Build the box space with separations one above the larger neighbour diameter."""
    diams = [q.diameter() for q in chain.levels]
    separations = tuple(
        max(diams[i], diams[i + 1]) + 1 for i in range(len(diams) - 1)
    )
    offsets = [0]
    for s in separations:
        offsets.append(offsets[-1] + s)
    return BoxSpace(chain, separations, tuple(offsets))


def box_distance(space: BoxSpace, x: BoxPoint, y: BoxPoint) -> int:
    """Distance in the box space; cross-level paths pass through the identities."""
    if not (space.contains(x) and space.contains(y)):
        raise ValueError(f"point {x if not space.contains(x) else y} outside the space")
    if x.level == y.level:
        return space.chain.levels[x.level].cayley_distance(x.element, y.element)
    if x.level > y.level:
        x, y = y, x
    qx = space.chain.levels[x.level]
    qy = space.chain.levels[y.level]
    gap = space.level_offsets[y.level] - space.level_offsets[x.level]
    return (
        qx.cayley_distance(x.element, qx.identity)
        + gap
        + qy.cayley_distance(qy.identity, y.element)
    )


def format_point(point: BoxPoint) -> str:
    return f"L{point.level}:{point.element}"


def parse_point(text: str) -> BoxPoint:
    if not text.startswith("L") or ":" not in text:
        raise SpecFormatError(f"bad point name {text!r}, expected L<level>:<element>")
    level_text, _, elem_text = text[1:].partition(":")
    try:
        return BoxPoint(int(level_text), int(elem_text))
    except ValueError:
        raise SpecFormatError(
            f"bad point name {text!r}, expected L<level>:<element>"
        ) from None
