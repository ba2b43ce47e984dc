"""Marked finite quotients of a finitely generated group and approximating chains.

Group elements are integers ``0..order-1``.  Each quotient kind defines its
group law once, as ``mult_many``/``inv_many`` over broadcast index arrays;
everything else here is built on those two methods.  Ambient elements are
encoded per family: reduced words as tuples of signed letters for free groups
(letter ``+k``/``-k`` is generator ``k-1`` or its inverse), integer coordinate
tuples for free abelian groups, and elements of the deepest level for chains
given without an ambient presentation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChainExhaustedError,
    ChainValidationError,
    InvalidGroupError,
    NonStabilizedLengthError,
)

__all__ = [
    "FREE",
    "FREE_ABELIAN",
    "EXPLICIT_CHAIN_LIMIT",
    "AmbientGroup",
    "MarkedQuotient",
    "CyclicQuotient",
    "TableQuotient",
    "GroupChain",
    "build_quotient",
    "build_chain",
    "reduce_word",
    "ambient_word_length",
    "ambient_mult",
    "ambient_identity",
    "ambient_from_letters",
    "ambient_sphere",
    "project_to_level",
    "r_isometric_radius",
    "select_level_for_r",
]

FREE = "free"
FREE_ABELIAN = "free_abelian"
EXPLICIT_CHAIN_LIMIT = "explicit_chain_limit"
_FAMILIES = (FREE, FREE_ABELIAN, EXPLICIT_CHAIN_LIMIT)

# entries of one (rows, order) block of the associativity check
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class AmbientGroup:
    """Marked group surjecting onto every level of a chain."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown ambient family {self.family!r}")
        if self.rank < 1:
            raise ValueError(f"ambient rank must be positive, got {self.rank}")


def reduce_word(word) -> tuple[int, ...]:
    """Freely reduce a word given as signed letters."""
    out: list[int] = []
    for letter in word:
        if letter == 0:
            raise ValueError("letter 0 is not a generator")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(int(letter))
    return tuple(out)


class MarkedQuotient:
    """Finite group marked by an ordered tuple of generator images.

    A quotient kind defines exactly two methods: ``mult_many(a, b)``, the
    product of element index arrays broadcast against each other like numpy
    operands, and ``inv_many(a)``, elementwise inversion.  Scalar ``mult`` and
    ``inv``, letter permutations, the word metric, Cayley matrices and
    validation are written once here on top of them.  The word metric is the
    right-multiplication Cayley metric for the symmetrized marking.
    """

    order: int
    identity: int
    gen_images: tuple[int, ...]

    def __init__(self, order: int, identity: int, gen_images):
        if order < 1:
            raise InvalidGroupError(f"order must be positive, got {order}")
        self.order = int(order)
        self.identity = int(identity)
        self.gen_images = tuple(int(g) for g in gen_images)
        if not 0 <= self.identity < self.order:
            raise InvalidGroupError(f"identity {identity} out of range")
        for g in self.gen_images:
            if not 0 <= g < self.order:
                raise InvalidGroupError(f"generator image {g} out of range")
        self._dist: np.ndarray | None = None
        self._parent: np.ndarray | None = None
        self._parent_letter: np.ndarray | None = None
        self._validated = False

    # -- group law ---------------------------------------------------------

    def mult_many(self, a, b) -> np.ndarray:
        raise NotImplementedError

    def inv_many(self, a) -> np.ndarray:
        raise NotImplementedError

    def mult(self, a: int, b: int) -> int:
        return int(self.mult_many(a, b))

    def inv(self, a: int) -> int:
        return int(self.inv_many(a))

    @property
    def rank(self) -> int:
        return len(self.gen_images)

    def elements(self) -> range:
        return range(self.order)

    def letters(self) -> tuple[int, ...]:
        """Symmetrized marking letters, ordered ``+1, -1, +2, -2, ...``."""
        out = []
        for k in range(1, self.rank + 1):
            out.extend((k, -k))
        return tuple(out)

    def letter_image(self, letter: int) -> int:
        g = self.gen_images[abs(letter) - 1]
        return g if letter > 0 else self.inv(g)

    def letter_perms(self) -> np.ndarray:
        """Right-multiplication permutations, one row per symmetrized letter."""
        images = np.array([self.letter_image(letter) for letter in self.letters()], dtype=np.int64)
        return self.mult_many(np.arange(self.order), images[:, None])

    # -- word metric -------------------------------------------------------

    def _run_bfs(self):
        # parent letters are kept as indices into ``letters()``
        perms = self.letter_perms()
        self._dist, self._parent, self._parent_letter, _ = _breadth_first(perms, self.identity)

    def distance_from_identity(self) -> np.ndarray:
        if self._dist is None:
            self._run_bfs()
        return self._dist

    def canonical_word(self, x: int) -> tuple[int, ...]:
        """Letters of the breadth-first geodesic from the identity to ``x``."""
        if self.distance_from_identity()[x] < 0:
            raise InvalidGroupError(f"element {x} not generated by the marking")
        out = []
        while x != self.identity:
            out.append(self.letters()[self._parent_letter[x]])
            x = int(self._parent[x])
        out.reverse()
        return tuple(out)

    def evaluate_word(self, word) -> int:
        x = self.identity
        for letter in word:
            x = self.mult(x, self.letter_image(letter))
        return x

    def cayley_matrix(self, xs=None, ys=None) -> np.ndarray:
        """Word distances ``D[i, j] = |xs[i]^-1 ys[j]|``; ``None`` stands for every element."""
        every = np.arange(self.order)
        xs = every if xs is None else np.asarray(xs, dtype=np.int64)
        ys = every if ys is None else np.asarray(ys, dtype=np.int64)
        out = self.distance_from_identity()[self.mult_many(self.inv_many(xs)[:, None], ys)]
        if (out < 0).any():
            raise InvalidGroupError("marking does not generate the group")
        return out

    def cayley_distance(self, x: int, y: int) -> int:
        return int(self.cayley_matrix([x], [y])[0, 0])

    def diameter(self) -> int:
        return int(self.cayley_matrix([self.identity]).max())

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check the group law and that the marking generates, exactly.

        Identity and inverses cost O(n).  Associativity is Light's test with
        the generator last: if right multiplication by the generator images
        alone reaches every element from the identity, and ``(xy)s = x(ys)``
        for every x, y and generator image s, the law is associative.  The
        elements c with ``(xa)c = x(ac)`` for all x, a contain the identity
        and are closed under products (Clifford and Preston, *The Algebraic
        Theory of Semigroups* I, 1961, section 1.2), and every element is a
        product of generator images.  Each block of rows of the table is
        built once and compared for every generator by two gathers; a
        failure names the first (x, y, s) in that order.

        Kinds whose construction proves the law skip this: cyclic products
        (``CyclicQuotient.validate``) and permutation actions regular on the
        base point's orbit (``_quotient_from_permutations`` marks them
        validated).  The tests hold this check on both as the oracle.
        """
        if self._validated:
            return
        n, e = self.order, self.identity
        idx = np.arange(n)
        for side, law in (("left", self.mult_many(e, idx)), ("right", self.mult_many(idx, e))):
            bad = np.flatnonzero(law != idx)
            if bad.size:
                raise InvalidGroupError(f"identity fails on the {side} at {bad[0]}")
        bad = np.flatnonzero(self.mult_many(idx, self.inv_many(idx)) != e)
        if bad.size:
            raise InvalidGroupError(f"element {bad[0]} has no inverse")
        gens = np.array(self.gen_images, dtype=np.int64)
        right = self.mult_many(idx, gens[:, None])  # x -> xs, one row per generator image
        reached = _breadth_first(right, e)[0]
        if (reached < 0).any():
            missing = int(np.flatnonzero(reached < 0)[0])
            raise InvalidGroupError(
                f"generators do not generate: element {missing} unreachable"
            )
        rows = max(1, _BLOCK_ENTRIES // n)
        for start in range(0, n, rows):
            block = self.mult_many(idx[start : start + rows, None], idx)  # xy
            bad = [r[block] != block[:, r] for r in right]  # (xy)s against x(ys)
            if any(b.any() for b in bad):
                i, y, k = map(int, np.argwhere(np.stack(bad, axis=-1))[0])
                x, s = start + i, int(gens[k])
                raise InvalidGroupError(
                    f"associativity fails at ({x}, {y}, {s}):"
                    f" ({x}{y}){s} = {right[k, block[i, y]]}, {x}({y}{s}) = {block[i, right[k, y]]}"
                )
        self._validated = True


class CyclicQuotient(MarkedQuotient):
    """Product of cyclic groups ``Z/m_1 x ... x Z/m_k`` marked by unit vectors.

    Element ``x`` has mixed-radix digits ``(x // w_k) % m_k``, the first
    coordinate weighing most.
    """

    def __init__(self, moduli):
        self.moduli = tuple(int(m) for m in moduli)
        if not self.moduli:
            raise InvalidGroupError("empty modulus list")
        if any(m < 1 for m in self.moduli):
            raise InvalidGroupError(f"moduli must be positive, got {self.moduli}")
        order = math.prod(self.moduli)
        self._weights = []
        w = order
        for m in self.moduli:
            w //= m
            self._weights.append(w)
        gen_images = [w if m > 1 else 0 for m, w in zip(self.moduli, self._weights)]
        super().__init__(order, 0, gen_images)

    def digits(self, x) -> np.ndarray:
        """Coordinates of ``x`` along the moduli, in a new last axis."""
        x = np.asarray(x)
        return np.stack([(x // w) % m for m, w in zip(self.moduli, self._weights)], axis=-1)

    # One coordinate at a time, so that no (..., rank) digit stack is built.
    # ``a // w`` is the digit at ``w`` plus a multiple of its modulus.

    def mult_many(self, a, b) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
        for m, w in zip(self.moduli, self._weights):
            # digits on the operands' own shapes; their sum is below 2m, so
            # one subtraction replaces a remainder on the broadcast shape
            digit = np.asarray(a // w % m + b // w % m)
            np.subtract(digit, m, out=digit, where=digit >= m)
            digit *= w
            out += digit
        return out

    def inv_many(self, a) -> np.ndarray:
        a = np.asarray(a)
        out = np.zeros(a.shape, dtype=np.int64)
        for m, w in zip(self.moduli, self._weights):
            out += (-(a // w) % m) * w
        return out

    def validate(self) -> None:
        """Nothing to check beyond the moduli, which ``__init__`` checked.

        The mixed-radix law is a group, generated by the unit vectors, by
        construction; the tests hold Light's test on it as the oracle.
        """


class TableQuotient(MarkedQuotient):
    """Marked group given by an explicit multiplication table."""

    def __init__(self, table, identity: int, gen_images):
        arr = np.asarray(table, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidGroupError(f"table must be square, got shape {arr.shape}")
        super().__init__(arr.shape[0], identity, gen_images)
        if arr.min() < 0 or arr.max() >= self.order:
            raise InvalidGroupError("multiplication table entry out of range")
        self.table = arr
        self._inv_table: np.ndarray | None = None

    def mult_many(self, a, b) -> np.ndarray:
        return self.table[a, b]

    def inv_many(self, a) -> np.ndarray:
        if self._inv_table is None:
            hits = self.table == self.identity
            counts = hits.sum(axis=1)
            bad = np.flatnonzero(counts != 1)
            if bad.size:
                raise InvalidGroupError(f"element {bad[0]} has {counts[bad[0]]} inverses")
            self._inv_table = hits.argmax(axis=1)
        return self._inv_table[a]


def _breadth_first(perms: np.ndarray, start: int):
    """Breadth-first search from ``start`` along the edges ``x -> perms[l, x]``.

    One layer at a time; a point reached by several edges keeps the first in
    frontier-major, letter-minor order, as a queue-driven search would.
    Returns distances (-1 where unreached), parents, parent-letter indices
    into ``perms`` and the points in discovery order.
    """
    letters, n = perms.shape
    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    parent_letter = np.zeros(n, dtype=np.int64)
    dist[start] = 0
    layers = [np.array([start], dtype=np.int64)]
    while layers[-1].size:
        frontier = layers[-1]
        reached = perms[:, frontier].T.ravel()  # edge e leaves frontier[e // letters]
        fresh = np.flatnonzero(dist[reached] < 0)
        _, first = np.unique(reached[fresh], return_index=True)
        edges = np.sort(fresh[first])
        found = reached[edges]
        dist[found] = len(layers)
        parent[found] = frontier[edges // letters]
        parent_letter[found] = edges % letters
        layers.append(found)
    return dist, parent, parent_letter, np.concatenate(layers)


def _quotient_from_permutations(degree: int, gens, base: int) -> TableQuotient:
    """Regular representation of a permutation action, simply transitive on an orbit.

    ``table[i]`` is the breadth-first word ``w_i`` of the i-th orbit point,
    acting on the orbit; ``w_0`` is the identity and ``w_i`` takes the base to
    the i-th point.  If ``s w_i = w_j`` on the orbit for every generator ``s``
    and every i, where j is the point ``s`` sends the i-th point to (one array
    comparison per generator), the set W of words is closed under the
    generators, and so, being finite, under their inverses.  Then W is the
    group the generators induce on the orbit; its n members send the base to
    n distinct points, so the action is regular and ``table[i, j]``, the index
    of ``w_i w_j``, is W's multiplication table.  Associativity, identity,
    inverses and generation hold by construction, and the quotient is returned
    validated.  Otherwise the first edge (point i, letter l), in search order,
    whose ``l w_i`` differs from ``w_{l(i)}`` at a point found before the edge
    is reported.

    There always is one.  Suppose every edge agrees with its end at the points
    found before it, and let ``f_k(i) = w_i(p_k)``, column k of the table; the
    edge (i, l) agrees at ``p_k`` exactly when ``f_k`` commutes with l at i.
    By induction on k, each ``f_k`` commutes with every letter at every point,
    which is the comparison above.  ``f_0`` is the identity.  If ``p_k`` was
    found from a point ``q > 0`` by a letter l, then ``p_a = l(p_0)`` was found
    earlier, and ``f_k = f_q f_a``: ``f_q`` commutes with the action and takes
    ``p_0`` to ``p_q``, so ``f_q(w_i(p_a)) = w_i l(p_q) = w_i(p_k)``.  If
    ``p_k`` was found from ``p_0``, every edge out of another point was
    searched after it, so ``f_k`` commutes with every letter away from
    ``p_0``, and at ``p_0`` with each l that moves it (through the edge from
    ``l(p_0)`` by the inverse letter).  Then ``f_k`` is injective: walk from
    ``x != y`` with ``f_k(x) = f_k(y)`` by the letters of a shortest path from
    x to ``p_0``; the two walks stay apart and keep equal images until one
    reaches ``p_0``, where the other is at some ``z != p_0`` with ``f_k(z) =
    f_k(p_0)``.  The image of the orbit without ``p_0`` would then be closed
    under every letter, hence the whole orbit, with one point too few.  So
    ``l f_k`` and ``f_k l`` are bijections that agree away from ``p_0``, and
    at ``p_0`` too.
    """
    letters = []
    for i, p in enumerate(gens):
        arr = np.asarray(p, dtype=np.int64)
        if arr.shape != (degree,) or sorted(arr.tolist()) != list(range(degree)):
            raise InvalidGroupError(f"generator {i} is not a permutation of degree {degree}")
        letters += [arr, np.argsort(arr)]
    if not 0 <= base < degree:
        raise InvalidGroupError(f"base point {base} out of range")
    letters = np.array(letters, dtype=np.int64).reshape(-1, degree)
    # the word of an orbit point takes the base to it, so the orbit search runs on the points
    dist, parent, letter, orbit = _breadth_first(letters, base)
    n, k = len(orbit), len(letters)
    # positions in int32: half the memory of the table and of the check's temporaries
    position = np.full(degree, -1, dtype=np.int32)
    position[orbit] = np.arange(n)
    moves = position[letters[:, orbit]]  # letter l sends orbit[i] to orbit[moves[l, i]]
    # table[i]: the breadth-first word of orbit[i] acting on the orbit, in positions
    table = np.empty((n, n), dtype=np.int32)
    table[0] = np.arange(n)
    for d in range(1, int(dist.max()) + 1):
        i = np.flatnonzero(dist[orbit] == d)
        table[i] = moves[letter[orbit[i], None], table[position[parent[orbit[i]]]]]
    if not all((move[table] == table[move]).all() for move in moves[::2]):
        # not regular: the first (orbit point, letter) edge, taken in search
        # order, whose word differs from its end's on the orbit points found
        # before the edge; the docstring shows there is one
        tree_edges = position[parent[orbit[1:]]] * k + letter[orbit[1:]]
        failure = None
        for l, move in enumerate(moves):
            known = 1 + np.searchsorted(tree_edges, np.arange(n) * k + l)
            differs = move[table] != table[move]
            first = np.where(differs.any(axis=1), differs.argmax(axis=1), n)
            bad = np.flatnonzero(first < known)
            if bad.size and (failure is None or bad[0] < failure[0]):
                failure = (bad[0], orbit[move[bad[0]]])
        raise InvalidGroupError(
            f"orbit of {base} is not simply transitive:"
            f" two words differ on the orbit at point {failure[1]}"
        )
    quotient = TableQuotient(table, 0, moves[::2, 0])
    quotient._validated = True
    return quotient


def build_quotient(spec) -> MarkedQuotient:
    """Build and validate a marked quotient from a description mapping.

    Recognized kinds: ``cyclic`` (field ``moduli``), ``table`` (fields
    ``mult``, ``identity``, ``gen_images``) and ``permutation`` (fields
    ``degree``, ``gens``, ``base``).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidGroupError(f"quotient spec must be a mapping with a 'kind', got {spec!r}")
    kind = spec["kind"]
    known = {
        "cyclic": ("moduli",),
        "table": ("mult", "identity", "gen_images"),
        "permutation": ("degree", "gens", "base"),
    }
    if kind not in known:
        raise InvalidGroupError(f"unknown quotient kind {kind!r}")
    missing = [f for f in known[kind] if f not in spec]
    if missing:
        raise InvalidGroupError(f"quotient spec of kind {kind!r} missing fields {missing}")
    if kind == "cyclic":
        q: MarkedQuotient = CyclicQuotient(spec["moduli"])
    elif kind == "table":
        q = TableQuotient(spec["mult"], spec["identity"], spec["gen_images"])
    else:
        q = _quotient_from_permutations(spec["degree"], spec["gens"], spec["base"])
    q.validate()
    return q


# -- ambient elements -------------------------------------------------------


def ambient_identity(chain: "GroupChain"):
    family = chain.ambient.family
    if family == FREE:
        return ()
    if family == FREE_ABELIAN:
        return (0,) * chain.ambient.rank
    return chain.levels[-1].identity


def ambient_mult(chain: "GroupChain", g, h):
    family = chain.ambient.family
    if family == FREE:
        return reduce_word(tuple(g) + tuple(h))
    if family == FREE_ABELIAN:
        return tuple(a + b for a, b in zip(g, h))
    return chain.levels[-1].mult(g, h)


def ambient_from_letters(chain: "GroupChain", word):
    """Ambient element spelled by signed letters."""
    family = chain.ambient.family
    if family == FREE:
        return reduce_word(word)
    if family == FREE_ABELIAN:
        vec = [0] * chain.ambient.rank
        for letter in word:
            vec[abs(letter) - 1] += 1 if letter > 0 else -1
        return tuple(vec)
    return chain.levels[-1].evaluate_word(word)


def ambient_word_length(chain: "GroupChain", g) -> int:
    """Word length of an ambient element.

    Closed form for free and free abelian families.  For a chain limit the
    element lives in the deepest level and the value must agree on the last
    two levels, otherwise the length has not stabilized.
    """
    family = chain.ambient.family
    if family == FREE:
        return len(reduce_word(g))
    if family == FREE_ABELIAN:
        if len(g) != chain.ambient.rank:
            raise ValueError(f"expected {chain.ambient.rank} coordinates, got {len(g)}")
        return sum(abs(int(c)) for c in g)
    values = [
        int(chain.levels[i].distance_from_identity()[project_to_level(chain, g, i)])
        for i in range(len(chain.levels))
    ]
    if len(values) < 2:
        raise NonStabilizedLengthError(
            f"single-level chain cannot certify a word length (deepest value {values[-1]})",
            last_values=tuple(values),
        )
    if values[-1] != values[-2]:
        raise NonStabilizedLengthError(
            f"word length did not stabilize: last two levels give {values[-2]} and {values[-1]}",
            last_values=(values[-2], values[-1]),
        )
    return values[-1]


def _next_sphere(chain: "GroupChain", rows: np.ndarray):
    """The ambient sphere one letter further out than the sphere ``rows``.

    A sphere is held as integer rows: signed letters for free words,
    coordinates for free abelian vectors.  Returns the new rows, each row's
    parent row and its letter's index into ``letters()``, in the order of
    ``ambient_sphere``: free words parent-major, letter-minor; vectors
    lexicographically by their absolute values, then by their signs,
    positive before negative, coordinate by coordinate.
    """
    rank = chain.ambient.rank
    letters = np.array(chain.levels[0].letters(), dtype=np.int64)
    if chain.ambient.family == FREE:
        # every letter that does not cancel the last one; the empty word has none
        last = rows[:, -1:] if rows.shape[1] else np.zeros((len(rows), 1), dtype=np.int64)
        parent, step = np.nonzero(last != -letters)
        return np.column_stack([rows[parent], letters[step]]), parent, step
    # each vector once, from the parent that shortens its first nonzero coordinate
    coord, sign = np.abs(letters) - 1, np.sign(letters)
    nonzero = rows != 0
    first = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), rank)
    parent, step = np.nonzero((coord <= first[:, None]) & (rows[:, coord] * sign >= 0))
    out = rows[parent]
    out[np.arange(len(out)), coord[step]] += sign[step]
    order = np.lexsort(np.vstack([(out < 0).T[::-1], np.abs(out).T[::-1]]))
    return out[order], parent[order], step[order]


def ambient_sphere(chain: "GroupChain", radius: int) -> list:
    """All ambient elements of word length exactly ``radius`` (free families only)."""
    if chain.ambient.family not in (FREE, FREE_ABELIAN):
        raise ValueError("sphere enumeration needs a free or free abelian ambient")
    rows = np.array([ambient_identity(chain)], dtype=np.int64)
    for _ in range(radius):
        rows = _next_sphere(chain, rows)[0]
    return [tuple(row) for row in rows.tolist()]


def project_to_level(chain: "GroupChain", g, level: int) -> int:
    """Image of an ambient element in the given level."""
    family = chain.ambient.family
    if family == EXPLICIT_CHAIN_LIMIT:
        return int(chain.composed_map_to(level)[g])
    if family == FREE_ABELIAN:
        # spelled coordinate by coordinate; the generator images commute
        g = [k if c > 0 else -k for k, c in enumerate(g, start=1) for _ in range(abs(c))]
    return chain.levels[level].evaluate_word(g)


# -- chains -----------------------------------------------------------------


@dataclass
class GroupChain:
    """Nested sequence of marked quotients of one ambient group.

    ``connecting_maps[i]`` sends level ``i+1`` onto level ``i`` and is stored
    as an index array.
    """

    ambient: AmbientGroup
    levels: list[MarkedQuotient]
    connecting_maps: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self._radius_cache: dict[int, int] = {}
        self._composed: dict[int, np.ndarray] = {}
        self.validation_note = (
            "radius growth checked on the available levels only; the chain is"
            " finite-scale evidence for an asymptotic property"
        )

    def level_count(self) -> int:
        return len(self.levels)

    def composed_map_to(self, level: int) -> np.ndarray:
        """Index array sending the deepest level onto ``level``."""
        if level not in self._composed:
            comp = np.arange(self.levels[-1].order)
            for i in range(len(self.levels) - 2, level - 1, -1):
                comp = self.connecting_maps[i][comp]
            self._composed[level] = comp
        return self._composed[level]

    def radius(self, level: int) -> int:
        if level not in self._radius_cache:
            self._radius_cache[level] = _compute_radius(self, level)
        return self._radius_cache[level]


def infer_connecting_map(upper: MarkedQuotient, lower: MarkedQuotient) -> np.ndarray:
    """Transport of breadth-first geodesic words from ``upper`` to ``lower``.

    Filled one breadth-first layer at a time: the word of ``x`` is the word
    of its parent followed by one letter.
    """
    dist = upper.distance_from_identity()
    perms = lower.letter_perms()
    out = np.empty(upper.order, dtype=np.int64)
    out[upper.identity] = lower.identity
    for d in range(1, upper.diameter() + 1):
        layer = np.flatnonzero(dist == d)
        out[layer] = perms[upper._parent_letter[layer], out[upper._parent[layer]]]
    return out


def _validate_connecting_map(
    phi: np.ndarray, upper: MarkedQuotient, lower: MarkedQuotient, index: int
) -> None:
    """Check that ``phi`` is a surjective homomorphism keeping the marking.

    With ``phi(e) = e'``, the identity ``phi(xs) = phi(x)s'`` for every x and
    letter s gives ``phi(xy) = phi(x)phi(y)`` by induction on the word length
    of y: one array comparison over the letters.
    """
    if phi.shape != (upper.order,):
        raise ChainValidationError(
            f"connecting map {index} has {phi.shape[0]} entries, expected {upper.order}"
        )
    if phi.min() < 0 or phi.max() >= lower.order:
        raise ChainValidationError(f"connecting map {index} has out-of-range values")
    if phi[upper.identity] != lower.identity:
        raise ChainValidationError(
            f"connecting map {index} sends the identity to {int(phi[upper.identity])},"
            f" expected {lower.identity}"
        )
    if not np.bincount(phi, minlength=lower.order).all():
        raise ChainValidationError(f"connecting map {index} is not surjective")
    for k, (gu, gl) in enumerate(zip(upper.gen_images, lower.gen_images)):
        if int(phi[gu]) != gl:
            raise ChainValidationError(
                f"connecting map {index} sends generator image {k} to"
                f" {int(phi[gu])}, expected {gl}"
            )
    bad = phi[upper.letter_perms()] != lower.letter_perms()[:, phi]
    if bad.any():
        x, letter = map(int, np.argwhere(bad.T)[0])
        s = upper.letter_image(upper.letters()[letter])
        raise ChainValidationError(
            f"connecting map {index} is not a homomorphism at ({x}, {s})"
        )


def build_chain(
    ambient: AmbientGroup,
    levels,
    connecting_maps=None,
    *,
    check_radii: bool = True,
) -> GroupChain:
    """Assemble and validate a chain; connecting maps are inferred when omitted."""
    levels = list(levels)
    if not levels:
        raise ChainValidationError("a chain needs at least one level")
    for i, q in enumerate(levels):
        q.validate()
        if q.rank != ambient.rank:
            raise ChainValidationError(
                f"level {i} has {q.rank} generator images, ambient rank is {ambient.rank}"
            )
        if ambient.family == FREE_ABELIAN:
            for a, b in itertools.combinations(q.gen_images, 2):
                if q.mult(a, b) != q.mult(b, a):
                    raise ChainValidationError(
                        f"level {i}: generator images do not commute under an abelian ambient"
                    )
    for i in range(len(levels) - 1):
        if levels[i].order > levels[i + 1].order:
            raise ChainValidationError(
                f"orders decrease from level {i} ({levels[i].order})"
                f" to level {i + 1} ({levels[i + 1].order})"
            )
    if connecting_maps is None:
        maps = [
            infer_connecting_map(levels[i + 1], levels[i]) for i in range(len(levels) - 1)
        ]
    else:
        maps = [np.asarray(m, dtype=np.int64) for m in connecting_maps]
        if len(maps) != len(levels) - 1:
            raise ChainValidationError(
                f"expected {len(levels) - 1} connecting maps, got {len(maps)}"
            )
    for i, phi in enumerate(maps):
        _validate_connecting_map(phi, levels[i + 1], levels[i], i)
    chain = GroupChain(ambient, levels, maps)
    if check_radii:
        radii = [chain.radius(i) for i in range(len(levels))]
        for i in range(len(radii) - 1):
            if radii[i] > radii[i + 1]:
                raise ChainValidationError(
                    f"isometry radii decrease from level {i} ({radii[i]})"
                    f" to level {i + 1} ({radii[i + 1]})"
                )
    return chain


# -- locality radius --------------------------------------------------------


def _compute_radius(chain: GroupChain, level: int) -> int:
    """Largest r such that the quotient map preserves all pairs closer than r.

    Equals 1 + the largest D at which every ambient pair at distance <= D
    keeps its distance in the quotient; by left-invariance only pairs at the
    identity are checked.  For a chain-limit ambient the value is certified
    only as far as word lengths have stabilized.
    """
    quotient = chain.levels[level]
    dist = quotient.distance_from_identity()
    family = chain.ambient.family
    if family in (FREE, FREE_ABELIAN):
        # each sphere's images are its parents' images times one letter
        perms = quotient.letter_perms()
        rows = np.array([ambient_identity(chain)], dtype=np.int64)
        images = np.array([quotient.identity])
        D = 0
        while True:
            D += 1
            rows, parent, step = _next_sphere(chain, rows)
            images = perms[step, images[parent]]
            if (dist[images] != D).any():
                return D
    deepest = chain.levels[-1]
    lengths = deepest.distance_from_identity()
    if len(chain.levels) >= 2:
        prev = chain.levels[-2]
        prev_map = chain.connecting_maps[-1]
        stable = prev.distance_from_identity()[prev_map] == lengths
    else:
        stable = np.zeros(deepest.order, dtype=bool)
    stable[deepest.identity] = True
    proj = chain.composed_map_to(level)
    max_len = int(lengths.max())
    D = 0
    while True:
        D += 1
        if ((~stable) & (lengths <= D)).any():
            return D
        if (dist[proj[stable & (lengths == D)]] != D).any():
            return D
        if D >= max_len:
            return D + 1


def r_isometric_radius(chain: GroupChain, level: int) -> int:
    """Largest r such that subsets of ambient diameter below r embed isometrically."""
    if not 0 <= level < len(chain.levels):
        raise ValueError(f"level {level} out of range")
    return chain.radius(level)


def select_level_for_r(chain: GroupChain, r: int, exclude_below: int = 0) -> int:
    """Smallest level index at least ``exclude_below`` whose radius reaches ``r``."""
    if r < 1:
        raise ValueError(f"locality radius must be positive, got {r}")
    best: int | None = None
    for i in range(exclude_below, len(chain.levels)):
        rad = chain.radius(i)
        best = rad if best is None else max(best, rad)
        if rad >= r:
            return i
    raise ChainExhaustedError(
        f"chain exhausted for r={r}: deepest achieved radius is {best}",
        deepest_radius=best,
    )
