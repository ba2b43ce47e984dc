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
    "MAX_POINTS",
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
    "select_level_for_r",
]

FREE = "free"
FREE_ABELIAN = "free_abelian"
EXPLICIT_CHAIN_LIMIT = "explicit_chain_limit"
_FAMILIES = (FREE, FREE_ABELIAN, EXPLICIT_CHAIN_LIMIT)

# Total points a chain may hold over all its levels.  The box metric is dense,
# so this bounds it at 4096^2 entries.
MAX_POINTS = 4096

# entries of one block of a table-sized check, gather or batch of pairs, so
# that no temporary grows with the square of a level's order or point count
_BLOCK_ENTRIES = 1 << 16


class AmbientGroup:
    """Marked group surjecting onto every level of a chain; immutable, equal by value."""

    def __init__(self, family: str, rank: int):
        if family not in _FAMILIES:
            raise ValueError(f"unknown ambient family {family!r}")
        if rank < 1:
            raise ValueError(f"ambient rank must be positive, got {rank}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not AmbientGroup:
            return NotImplemented
        return (self.family, self.rank) == (other.family, other.rank)

    def __hash__(self) -> int:
        return hash((self.family, self.rank))

    def __repr__(self) -> str:
        return f"AmbientGroup(family={self.family!r}, rank={self.rank!r})"


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
        self._layers: list[np.ndarray] = []
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
        # parent letters are kept as indices into ``letters()``, and the layers for the tree walks
        search = _breadth_first(self.letter_perms(), self.identity)
        self._dist, self._parent, self._parent_letter, self._layers = search

    def distance_from_identity(self) -> np.ndarray:
        """Word lengths, -1 at the elements that the marking does not reach."""
        if self._dist is None:
            self._run_bfs()
        return self._dist

    def _word_lengths(self) -> np.ndarray:
        """``distance_from_identity`` of a marking that generates; any other is refused."""
        dist = self.distance_from_identity()
        if dist.min() < 0:
            raise InvalidGroupError("marking does not generate the group")
        return dist

    def _along_words(self, root, step) -> np.ndarray:
        """A value per element, carried along breadth-first words: ``root`` at the identity, then
        a layer at a time ``step(values at the parents, indices into letters() of the edges)``."""
        self._word_lengths()
        root = np.asarray(root)
        out = np.empty((self.order, *root.shape), dtype=root.dtype)
        out[self.identity] = root
        for layer in self._layers[1:]:
            out[layer] = step(out[self._parent[layer]], self._parent_letter[layer])
        return out

    def evaluate_word(self, word) -> int:
        x = self.identity
        for letter in word:
            x = self.mult(x, self.letter_image(letter))
        return x

    def cayley_matrix(self, xs=None, ys=None) -> np.ndarray:
        """Word distances ``D[i, j] = |xs[i]^-1 ys[j]|``; ``None`` stands for every element."""
        xs = np.arange(self.order) if xs is None else np.asarray(xs, dtype=np.int64)
        inverses = self.inv_many(xs)
        if ys is None:
            products = self._left_rows(inverses)
        else:
            products = self.mult_many(inverses[:, None], np.asarray(ys, dtype=np.int64))
        return self._word_lengths()[products]

    def _left_rows(self, a: np.ndarray) -> np.ndarray:
        """``a[i] y`` for every element y, one row per entry of ``a``."""
        return self.mult_many(a[:, None], np.arange(self.order))

    def cayley_distance(self, x: int, y: int) -> int:
        return int(self.cayley_matrix([x], [y])[0, 0])

    def diameter(self) -> int:
        return int(self._word_lengths().max())

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
    """Marked group given by an explicit multiplication table, held as int32.

    ``mult_many`` and ``inv_many`` return int64, as for every quotient kind.
    """

    def __init__(self, table, identity: int, gen_images):
        arr = np.asarray(table, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidGroupError(f"table must be square, got shape {arr.shape}")
        super().__init__(arr.shape[0], identity, gen_images)
        if arr.min() < 0 or arr.max() >= self.order:
            raise InvalidGroupError("multiplication table entry out of range")
        self.table = arr.astype(np.int32)
        self._inv_table: np.ndarray | None = None

    @classmethod
    def _trusted(
        cls, table: np.ndarray, identity: int, gen_images, inverse: np.ndarray
    ) -> "TableQuotient":
        """A validated quotient over an int32 table whose construction proves the group
        law, with the int64 array of its inverses, which the construction also gives."""
        q = cls.__new__(cls)
        MarkedQuotient.__init__(q, len(table), identity, gen_images)
        q.table, q._inv_table, q._validated = table, inverse, True
        return q

    def mult_many(self, a, b) -> np.ndarray:
        return self.table[a, b].astype(np.int64)

    def inv_many(self, a) -> np.ndarray:
        # a table from outside is scanned for its inverses, and the scan is its check
        if self._inv_table is None:
            hits = self.table == self.identity
            counts = hits.sum(axis=1)
            bad = np.flatnonzero(counts != 1)
            if bad.size:
                raise InvalidGroupError(f"element {bad[0]} has {counts[bad[0]]} inverses")
            self._inv_table = hits.argmax(axis=1)
        return self._inv_table[a]

    def _left_rows(self, a: np.ndarray) -> np.ndarray:
        return self.table[a]  # a row gather, not a broadcast (len(a), order) index


def _breadth_first(perms: np.ndarray, start: int):
    """Breadth-first search from ``start`` along the edges ``x -> perms[l, x]``.

    One layer at a time; a point reached by several edges keeps the first in
    frontier-major, letter-minor order, as a queue-driven search would.
    Returns distances (-1 where unreached), parents, parent-letter indices
    into ``perms`` and the layers, the points at each distance in discovery
    order.
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
    return dist, parent, parent_letter, layers[:-1]


def _quotient_from_permutations(degree: int, gens, base: int) -> TableQuotient:
    """Regular representation of a permutation action, simply transitive on an orbit.

    ``table[i]`` is the breadth-first word ``w_i`` of the i-th orbit point
    ``p_i``, acting on the orbit; ``w_0`` is the identity and ``w_i`` takes the
    base ``p_0`` to ``p_i``.  Filling the table is the only pass over n^2
    entries.  Let ``f_k(i) = w_i(p_k)``, column k of the table; it is defined
    along the search tree by ``f_k(p_0) = p_k`` and ``f_k(l(q)) = l(f_k(q))``.

    Regularity is certified by the centralizer.  Let ``f_s`` be ``f_k`` at
    ``p_k = s(p_0)``, for each generator s.  If every ``f_s`` commutes with
    every generator, it commutes with the group G the generators induce on the
    orbit, so ``f_s(g(p_0)) = g(f_s(p_0))`` and ``f_s`` maps the orbit onto
    itself: it lies in the centralizer C of G.  The ``f_s`` then reach the
    whole orbit from ``p_0``, so C is transitive: by induction on m, ``s_1 ...
    s_m(p_0) = s_1(F(p_0)) = F(s_1(p_0)) = F(f_{s_1}(p_0))``, where ``F =
    f_{s_m} ... f_{s_2}`` lies in C, and every point is such an image.  An h
    in G that fixes ``p_0`` then fixes every ``c(p_0) = c(h(p_0)) =
    h(c(p_0))``, c in C, which is every point: G acts regularly.  (G lies in
    the centralizer of C, and the centralizer of a transitive group is
    semiregular: Dixon and Mortimer, *Permutation Groups*, 1996, Theorem
    4.2A.)  Its n members send the base to n distinct points, so they are the
    words, and ``table[i, j]``, the index of ``w_i w_j``, is G's
    multiplication table.  Associativity, identity, inverses and generation
    hold by construction, and the quotient is returned validated.  If G is
    regular, ``f_s`` is right multiplication by s, which commutes with G; so
    the certificate passes exactly when G is regular.  It reads O(n k^2)
    entries for k generators.

    Inverses follow the tree as well: from ``w_c = l w_q`` for a point c found
    from q by the letter l, ``w_c^-1 = w_q^-1 l^-1``, the right multiplication
    by ``l^-1`` of ``w_q``'s inverse.  Right multiplication by s is ``f_s``, and
    by ``s^-1`` its inverse permutation.

    When the certificate fails, the first edge (point i, letter l), in search
    order, whose ``l w_i`` differs from ``w_{l(i)}`` at a point found before
    the edge is reported.  There always is one.  Suppose every edge agrees
    with its end at the points found before it; the edge (i, l) agrees at
    ``p_k`` exactly when ``f_k`` commutes with l at i.  By induction on k,
    each ``f_k`` commutes with every letter at every point, so ``s w_i =
    w_{s(i)}`` for every generator s and every i: the set W of words is
    closed under the generators, and so, being finite, under their inverses,
    and W is the group G with n members, acting regularly, which the
    certificate would have passed.  For the induction: ``f_0`` is the
    identity.  If ``p_k`` was found from a point ``q > 0`` by a letter l, then
    ``p_a = l(p_0)`` was found earlier, and ``f_k = f_q f_a``: ``f_q`` commutes
    with the action and takes ``p_0`` to ``p_q``, so ``f_q(w_i(p_a)) = w_i
    l(p_q) = w_i(p_k)``.  If ``p_k`` was found from ``p_0``, every edge out of
    another point was searched after it, so ``f_k`` commutes with every letter
    away from ``p_0``, and at ``p_0`` with each l that moves it (through the
    edge from ``l(p_0)`` by the inverse letter).  Then ``f_k`` is injective:
    walk from ``x != y`` with ``f_k(x) = f_k(y)`` by the letters of a shortest
    path from x to ``p_0``; the two walks stay apart and keep equal images
    until one reaches ``p_0``, where the other is at some ``z != p_0`` with
    ``f_k(z) = f_k(p_0)``.  The image of the orbit without ``p_0`` would then
    be closed under every letter, hence the whole orbit, with one point too
    few.  So ``l f_k`` and ``f_k l`` are bijections that agree away from
    ``p_0``, and at ``p_0`` too.
    """
    letters = []
    for i, p in enumerate(gens):
        arr = np.asarray(p, dtype=np.int64)
        # a range check, then one count per point: a permutation hits every point
        inside = arr.shape == (degree,) and (not degree or 0 <= arr.min() <= arr.max() < degree)
        if not inside or not np.bincount(arr, minlength=degree).all():
            raise InvalidGroupError(f"generator {i} is not a permutation of degree {degree}")
        letters += [arr, np.argsort(arr)]
    if not 0 <= base < degree:
        raise InvalidGroupError(f"base point {base} out of range")
    letters = np.array(letters, dtype=np.int64).reshape(-1, degree)
    # the word of an orbit point takes the base to it, so the orbit search runs on the points
    _, parent, letter, layers = _breadth_first(letters, base)
    orbit = np.concatenate(layers)
    n, k = len(orbit), len(letters)
    # positions in int32: half the memory of the table and of the check's temporaries
    position = np.full(degree, -1, dtype=np.int32)
    position[orbit] = np.arange(n)
    moves = position[letters[:, orbit]]  # letter l sends orbit[i] to orbit[moves[l, i]]
    # table[i]: the breadth-first word of orbit[i] acting on the orbit, in
    # positions.  The orbit lists its points layer by layer, so each layer is
    # a run of rows, gathered a block at a time from its parents' rows, built
    # before it, by flat indices into ``moves`` straight into the table
    table = np.empty((n, n), dtype=np.int32)
    table[0] = np.arange(n)
    rows = max(1, _BLOCK_ENTRIES // n)
    cuts = np.cumsum([len(layer) for layer in layers]).tolist()
    runs = list(zip(cuts[:-1], cuts[1:]))  # the rows of each layer past the base's
    for first, last in runs:
        for start in range(first, last, rows):
            stop = min(start + rows, last)
            points = orbit[start:stop]
            flat = table[position[parent[points]]]
            flat += (letter[points] * n).astype(np.int32)[:, None]
            np.take(moves.ravel(), flat, out=table[start:stop], mode="clip")
    gen_images = moves[::2, 0]
    right = table.T[gen_images]  # f_s for each generator s, one row each
    regular = all(np.array_equal(move[f], f[move]) for f in right for move in moves[::2])
    if not regular:
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
    # steps[l] is right multiplication by the inverse of letter l
    steps = np.empty((k, n), dtype=np.int64)
    steps[1::2] = right
    steps[np.arange(0, k, 2)[:, None], right] = np.arange(n)
    inverse = np.zeros(n, dtype=np.int64)
    for layer, (first, last) in zip(layers[1:], runs):
        inverse[first:last] = steps[letter[layer], inverse[position[parent[layer]]]]
    return TableQuotient._trusted(table, 0, gen_images, inverse)


def _field_fault(value, depth: int) -> str:
    """Why ``value`` is not ``depth`` nested lists around integers, '' if it is.

    Depth 0 is an integer, 1 a list of them and 2 a rectangular list of lists
    of them.  A float or a bool is refused, not truncated, though Python
    counts a bool as an int.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iu" and value.ndim == depth:
            return ""
        value = value.tolist()
    if not isinstance(value, (list, tuple)):
        if depth:
            return f"{value!r} is not a list{' of lists' if depth > 1 else ''}"
        ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        return "" if ok else f"{value!r} is not an integer"
    if not depth:
        return f"{value!r} is not an integer"
    if depth == 1 and set(map(type, value)) <= {int}:  # the common case, at C speed
        return ""
    fault = next(filter(None, (_field_fault(entry, depth - 1) for entry in value)), "")
    if not fault and depth == 2:
        k = next((k for k, row in enumerate(value) if len(row) != len(value[0])), 0)
        if k:
            fault = f"row {k} has length {len(value[k])}, row 0 has length {len(value[0])}"
    return fault


def build_quotient(spec) -> MarkedQuotient:
    """Build and validate a marked quotient from a description mapping.

    Recognized kinds: ``cyclic`` (field ``moduli``), ``table`` (fields
    ``mult``, ``identity``, ``gen_images``) and ``permutation`` (fields
    ``degree``, ``gens``, ``base``).  Each field holds an integer, a list of
    them or a rectangular list of such lists, as ``_field_fault`` checks.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidGroupError(f"quotient spec must be a mapping with a 'kind', got {spec!r}")
    kind = spec["kind"]
    # each field's depth of nested lists
    known = {
        "cyclic": {"moduli": 1},
        "table": {"mult": 2, "identity": 0, "gen_images": 1},
        "permutation": {"degree": 0, "gens": 2, "base": 0},
    }
    if kind not in known:
        raise InvalidGroupError(f"unknown quotient kind {kind!r}")
    missing = [f for f in known[kind] if f not in spec]
    if missing:
        raise InvalidGroupError(f"quotient spec of kind {kind!r} missing fields {missing}")
    for field, depth in known[kind].items():
        fault = _field_fault(spec[field], depth)
        if fault:
            raise InvalidGroupError(f"field {field!r}: {fault}")
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


def _ambient_spheres(chain: "GroupChain", radius: int) -> list[list]:
    """The ambient spheres 0..``radius`` in ``ambient_sphere`` order, from one walk."""
    if chain.ambient.family not in (FREE, FREE_ABELIAN):
        raise ValueError("sphere enumeration needs a free or free abelian ambient")
    spheres = [np.array([ambient_identity(chain)], dtype=np.int64)]
    for _ in range(radius):
        spheres.append(_next_sphere(chain, spheres[-1])[0])
    return [[tuple(row) for row in rows.tolist()] for rows in spheres]


def ambient_sphere(chain: "GroupChain", radius: int) -> list:
    """All ambient elements of word length exactly ``radius`` (free families only)."""
    return _ambient_spheres(chain, radius)[-1]


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


class GroupChain:
    """Nested sequence of marked quotients of one ambient group.

    ``connecting_maps[i]`` sends level ``i+1`` onto level ``i`` and is stored
    as an index array.
    """

    def __init__(
        self,
        ambient: AmbientGroup,
        levels: list[MarkedQuotient],
        connecting_maps: list[np.ndarray] | None = None,
    ):
        self.ambient, self.levels = ambient, levels
        self.connecting_maps = [] if connecting_maps is None else connecting_maps
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
        if not 0 <= level < len(self.levels):
            raise ValueError(f"level {level} out of range")
        if level not in self._radius_cache:
            self._radius_cache[level] = _compute_radius(self, level)
        return self._radius_cache[level]


def infer_connecting_map(upper: MarkedQuotient, lower: MarkedQuotient) -> np.ndarray:
    """Transport of breadth-first geodesic words from ``upper`` to ``lower``.

    The word of ``x`` is the word of its parent followed by one letter.
    """
    perms = lower.letter_perms()
    return upper._along_words(np.int64(lower.identity), lambda x, letter: perms[letter, x])


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


def _check_point_cap(orders, error) -> None:
    """Raise ``error`` at the first level whose running total of points passes MAX_POINTS."""
    for i, total in enumerate(itertools.accumulate(orders)):
        if total > MAX_POINTS:
            raise error(
                f"level {i} brings the chain to {total} points, above the cap of {MAX_POINTS}"
            )


def build_chain(ambient: AmbientGroup, levels, connecting_maps=None) -> GroupChain:
    """Assemble and validate a chain of at most MAX_POINTS points; omitted maps are inferred."""
    levels = list(levels)
    if not levels:
        raise ChainValidationError("a chain needs at least one level")
    _check_point_cap((q.order for q in levels), ChainValidationError)
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
    family = chain.ambient.family
    if family == FREE_ABELIAN and isinstance(quotient, CyclicQuotient):
        # a vector keeps its length exactly when every coordinate is at most
        # half its modulus, so the shortest to fail has m // 2 + 1 in one coordinate
        return min(m // 2 for m in quotient.moduli) + 1
    if family in (FREE, FREE_ABELIAN):
        return _sphere_radius(chain, level)
    dist = quotient.distance_from_identity()
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


def _sphere_radius(chain: GroupChain, level: int) -> int:
    """The radius of a level under a free or free abelian ambient, walking its spheres.

    Each sphere's images are its parents' images times one letter; the walk
    stops at the first sphere with an image closer to the identity than D.
    """
    quotient = chain.levels[level]
    dist = quotient.distance_from_identity()
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


def select_level_for_r(chain: GroupChain, r: int, exclude_below: int = 0) -> int:
    """Smallest level index at least ``exclude_below`` whose radius reaches ``r``."""
    if r < 1:
        raise ValueError(f"locality radius must be positive, got {r}")
    if not 0 <= exclude_below < len(chain.levels):
        bound = "at least 0" if exclude_below < 0 else f"below the level count {len(chain.levels)}"
        raise ValueError(f"exclude_below must be {bound}, got {exclude_below}")
    searched = range(exclude_below, len(chain.levels))
    for i in searched:
        if chain.radius(i) >= r:
            return i
    best = max(chain.radius(i) for i in searched)
    raise ChainExhaustedError(
        f"chain exhausted for r={r}: deepest achieved radius is {best}",
        deepest_radius=best,
    )
