"""Spectral gap diagnostics for quotient chains.

The walk operator averages over the symmetrized generating letters; its
second-largest eigenvalue measures expansion of the level.  Chains whose gaps
stay bounded away from zero are expander-like, which is the obstruction
regime for coarse embeddings; cyclic-style chains show the opposite, gaps
collapsing as the levels grow.
"""

from __future__ import annotations

import numpy as np

from .embedding import _Record
from .errors import InvalidArgumentError
from .groups import MAX_POINTS, GroupChain, MarkedQuotient

__all__ = [
    "DENSE_LIMIT",
    "SpectralScan",
    "averaging_matrix",
    "laplacian_gap",
    "expander_scan",
    "write_gap_csv",
]

# no chain holds a larger level; see ``build_chain``
DENSE_LIMIT = MAX_POINTS


def averaging_matrix(q: MarkedQuotient) -> np.ndarray:
    """Transition matrix of the uniform walk on the marking letters.

    Letters come in inverse pairs, so the matrix is symmetric and its
    spectrum is real.  Stored dense; use only up to DENSE_LIMIT elements.
    """
    perms = q.letter_perms()
    if not len(perms):
        raise ValueError("quotient has no marking letters")
    A = np.zeros((q.order, q.order))
    rows = np.arange(q.order)
    for perm in perms:
        # a permutation repeats no target, so one fancy-index add per letter
        # sums as ``np.add.at`` does, letter by letter
        A[rows, perm] += 1.0
    A /= len(perms)
    return A


def _cyclic_element(q: MarkedQuotient, perms: np.ndarray) -> tuple[int, int]:
    """The element of largest order among the letters and their pairwise products, and its order.

    Ties go to the smallest element.  An order is read by walking one
    right-multiplication column from the identity back to it.
    """
    images = perms[:, q.identity]  # e s = s
    candidates = sorted(set(images.tolist()) | set(perms[:, images].ravel().tolist()))
    columns = q.mult_many(np.arange(q.order), np.array(candidates)[:, None]).tolist()
    best, best_order = q.identity, 1
    for g, step in zip(candidates, columns):
        x, order = step[q.identity], 1
        while x != q.identity:
            x, order = step[x], order + 1
        if order > best_order:
            best, best_order = g, order
            if order == q.order:
                break
    return best, best_order


def _cosets(q: MarkedQuotient, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The right cosets of the subgroup generated by ``h``, in O(order) integers.

    Returns the coset representatives c (each coset's least element, in
    ascending order) and, for every element x, the index of its coset and
    the power a with x = h^a c.
    """
    step = q.mult_many(h, np.arange(q.order)).tolist()  # x -> h x
    coset, power, reps = [-1] * q.order, [0] * q.order, []
    for c in range(q.order):
        if coset[c] < 0:
            x, a = c, 0
            while coset[x] < 0:
                coset[x], power[x] = len(reps), a
                x, a = step[x], a + 1
            reps.append(c)
    return np.array(reps), np.array(coset), np.array(power)


def _block_spectra(q: MarkedQuotient) -> tuple[np.ndarray, int]:
    """Eigenvalues of the averaging operator's character blocks 0..m//2, and m.

    Left multiplication by an element h of order m commutes with the walk,
    so the walk splits into m blocks, one per character j of the subgroup
    generated by h.  Block j acts on the right cosets of that subgroup:
    B_j[c, c'] = (1/k) sum of w^(j a) over the k letters s with c s = h^a c',
    w = exp(2 pi i / m).  Blocks j and m - j are complex conjugates with the
    same spectrum, so only j <= m // 2 are solved, in one stacked
    ``eigvalsh``.  Row j of the result holds block j's eigenvalues.
    """
    perms = q.letter_perms()
    if not len(perms):
        raise ValueError("quotient has no marking letters")
    h, m = _cyclic_element(q, perms)
    reps, coset, power = _cosets(q, h)
    # the m-th roots of unity, w^(m - a) the exact conjugate of w^a
    angles = 2.0 * np.pi / m * np.arange(m // 2 + 1)
    half = np.cos(angles) + 1j * np.sin(angles)
    roots = np.concatenate([half, half[1 : (m + 1) // 2][::-1].conj()])
    js = np.arange(m // 2 + 1)
    blocks = np.zeros((len(js), len(reps), len(reps)), dtype=complex)
    rows = np.arange(len(reps))
    for targets in perms[:, reps]:
        # a letter permutes the cosets, so no (row, column) repeats within one letter
        blocks[:, rows, coset[targets]] += roots[np.multiply.outer(js, power[targets]) % m]
    blocks /= len(perms)
    return np.linalg.eigvalsh(blocks), m


def _spectrum(q: MarkedQuotient) -> np.ndarray:
    """Every eigenvalue of the averaging operator, ascending, from its character blocks."""
    w, m = _block_spectra(q)
    # blocks 0 < j < m - j stand for their conjugates m - j too
    return np.sort(np.concatenate([w.ravel(), w[1 : (m + 1) // 2].ravel()]))


def laplacian_gap(q: MarkedQuotient) -> float:
    """1 minus the second-largest eigenvalue of the averaging operator.

    The spectrum is solved as small Hermitian blocks over a cyclic subgroup
    (``_block_spectra``), at a cost of about order^3 / m^2 for a subgroup of
    order m; on a cyclic level every block is 1 x 1, the character formula.
    The trivial quotient has no second eigenvalue; by convention its gap is
    2.0, the largest value any quotient could approach.
    """
    if q.order == 1:
        return 2.0
    if q.order > DENSE_LIMIT:
        raise ValueError(
            f"order {q.order} exceeds the dense eigensolve limit {DENSE_LIMIT}"
        )
    return float(1.0 - _spectrum(q)[-2])


class SpectralScan(_Record):
    """Per-level gaps and an expansion verdict at one threshold."""

    def __init__(self, epsilon: float, rows: list, verdict: bool, notes: list[str] | None = None):
        # a row is (level, order, degree, gap)
        self.epsilon, self.rows, self.verdict = epsilon, rows, verdict
        self.notes = [] if notes is None else notes

    def to_text(self) -> str:
        lines = [f"spectral scan at epsilon {self.epsilon:g}"]
        for level, order, degree, gap in self.rows:
            lines.append(f"  level {level}: order {order}, degree {degree}, gap {gap:.12g}")
        if self.verdict:
            lines.append(f"verdict: PASS (every computed gap >= {self.epsilon:g})")
        else:
            lines.append(f"verdict: FAIL (some computed gap < {self.epsilon:g})")
        lines.extend(self.notes)
        return "\n".join(lines)


def expander_scan(chain: GroupChain, epsilon: float) -> SpectralScan:
    """Gap per level against a fixed threshold.

    Every level is solved; one past DENSE_LIMIT raises ``laplacian_gap``'s
    ValueError.  The verdict covers the finite prefix only; no statement about
    deeper levels is implied.
    """
    if not epsilon > 0:
        raise InvalidArgumentError(f"threshold must be positive, got {epsilon}")
    rows = [(i, q.order, len(q.letters()), laplacian_gap(q)) for i, q in enumerate(chain.levels)]
    verdict = not any(gap < epsilon for *_, gap in rows)
    notes = ["finite prefix only: the verdict covers the listed levels"]
    return SpectralScan(epsilon=epsilon, rows=rows, verdict=verdict, notes=notes)


def write_gap_csv(scan: SpectralScan, path) -> None:
    """Rows level,order,degree,gap, then a verdict comment line."""
    lines = ["level,order,degree,gap"]
    for level, order, degree, gap in scan.rows:
        lines.append(f"{level},{order},{degree},{gap:.12g}")
    lines.append(
        f"# verdict: {'PASS' if scan.verdict else 'FAIL'} at epsilon {scan.epsilon:.12g}"
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
