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
from .groups import GroupChain, MarkedQuotient

__all__ = [
    "DENSE_LIMIT",
    "SpectralScan",
    "averaging_matrix",
    "laplacian_gap",
    "expander_scan",
    "write_gap_csv",
]

DENSE_LIMIT = 4096


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


def laplacian_gap(q: MarkedQuotient) -> float:
    """1 minus the second-largest eigenvalue of the averaging operator.

    The trivial quotient has no second eigenvalue; by convention its gap is
    2.0, the largest value any quotient could approach.
    """
    if q.order == 1:
        return 2.0
    if q.order > DENSE_LIMIT:
        raise ValueError(
            f"order {q.order} exceeds the dense eigensolve limit {DENSE_LIMIT}"
        )
    w = np.linalg.eigvalsh(averaging_matrix(q))
    return float(1.0 - w[-2])


class SpectralScan(_Record):
    """Per-level gaps and an expansion verdict at one threshold."""

    def __init__(self, epsilon: float, rows: list, verdict: bool, notes: list[str] | None = None):
        # a row is (level, order, degree, gap or None)
        self.epsilon, self.rows, self.verdict = epsilon, rows, verdict
        self.notes = [] if notes is None else notes

    def to_text(self) -> str:
        lines = [f"spectral scan at epsilon {self.epsilon:g}"]
        for level, order, degree, gap in self.rows:
            shown = f"{gap:.12g}" if gap is not None else "skipped"
            lines.append(f"  level {level}: order {order}, degree {degree}, gap {shown}")
        if self.verdict:
            lines.append(f"verdict: PASS (every computed gap >= {self.epsilon:g})")
        else:
            lines.append(f"verdict: FAIL (some computed gap < {self.epsilon:g})")
        lines.extend(self.notes)
        return "\n".join(lines)


def expander_scan(chain: GroupChain, epsilon: float) -> SpectralScan:
    """Gap per level against a fixed threshold.

    Levels beyond the dense eigensolve limit are skipped with a notice and do
    not affect the verdict.  The verdict covers the finite prefix only; no
    statement about deeper levels is implied.
    """
    if not epsilon > 0:
        raise InvalidArgumentError(f"threshold must be positive, got {epsilon}")
    rows = []
    notes = ["finite prefix only: the verdict covers the listed levels"]
    verdict = True
    for i, q in enumerate(chain.levels):
        degree = len(q.letters())
        if q.order > DENSE_LIMIT:
            rows.append((i, q.order, degree, None))
            notes.append(
                f"level {i} skipped: order {q.order} exceeds the dense limit {DENSE_LIMIT}"
            )
            continue
        gap = laplacian_gap(q)
        rows.append((i, q.order, degree, gap))
        if gap < epsilon:
            verdict = False
    return SpectralScan(epsilon=epsilon, rows=rows, verdict=verdict, notes=notes)


def write_gap_csv(scan: SpectralScan, path) -> None:
    """Rows level,order,degree,gap, then a verdict comment line."""
    lines = ["level,order,degree,gap"]
    for level, order, degree, gap in scan.rows:
        shown = f"{gap:.12g}" if gap is not None else "skipped"
        lines.append(f"{level},{order},{degree},{shown}")
    lines.append(
        f"# verdict: {'PASS' if scan.verdict else 'FAIL'} at epsilon {scan.epsilon:.12g}"
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
