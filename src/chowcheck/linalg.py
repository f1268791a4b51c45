"""Minimal exact linear algebra over Fraction: rref, rank, solving.

Matrices are lists of row lists and are handled densely; the graded pieces
this package works with are small enough that simplicity beats cleverness.
The one sparse eliminator, `SparseEchelon`, keeps rows as dicts keyed by
monomials and serves rank counts and degreewise span membership.
"""

from __future__ import annotations

from fractions import Fraction


def rref(matrix):
    """Row-reduce a copy of `matrix`; returns (rows, pivot_columns).

    Deterministic: pivots are the first nonzero entry scanning rows in
    order, columns left to right.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def solve_linear(matrix, rhs):
    """One solution of matrix * x = rhs, or None when inconsistent.

    Free variables are set to zero.
    """
    if not matrix:
        return None if any(rhs) else []
    ncols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = rref(aug)
    for row in rows:
        if any(row[:-1]):
            continue
        if row[-1]:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        if c == ncols:
            return None  # pivot in the augmented column
        x[c] = rows[i][-1]
    return x


def independent_rows(matrix):
    """Indices of a maximal independent subset, scanning rows in order."""
    if not matrix:
        return []
    kept = []
    basis = []  # reduced rows so far
    for idx, row in enumerate(matrix):
        vec = list(row)
        for pivot_col, brow in basis:
            if vec[pivot_col]:
                f = vec[pivot_col]
                vec = [a - f * b for a, b in zip(vec, brow)]
        pivot = None
        for c, v in enumerate(vec):
            if v:
                pivot = c
                break
        if pivot is None:
            continue
        pv = vec[pivot]
        vec = [v / pv for v in vec]
        basis.append((pivot, vec))
        kept.append(idx)
    return kept


class SparseEchelon:
    """Incremental echelon form of sparse vectors given as {key: Fraction} dicts.

    Keys only need to be mutually comparable; elimination pivots on the
    largest key of each row, and each stored pivot row is monic.  The
    number of pivot rows is the rank of everything added so far.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    def __len__(self):
        return len(self.pivots)

    def reduce(self, row) -> dict:
        """Eliminate pivots from the top of a copy of `row`.

        The result is empty exactly when `row` lies in the span; otherwise
        its largest key is not a pivot.
        """
        row = {k: v for k, v in row.items() if v}
        pivots = self.pivots
        while row:
            lead = max(row)
            prow = pivots.get(lead)
            if prow is None:
                break
            c = row.pop(lead)
            for k, v in prow.items():
                if k == lead:
                    continue
                nv = row.get(k, Fraction(0)) - c * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
        return row

    def add(self, row) -> bool:
        """Add `row` to the span; True when it was not already in it."""
        row = self.reduce(row)
        if not row:
            return False
        lead = max(row)
        c = row[lead]
        self.pivots[lead] = {k: v / c for k, v in row.items()}
        return True


def sparse_rank(rows) -> int:
    """Rank of a set of sparse vectors given as {key: Fraction} dicts."""
    echelon = SparseEchelon()
    for row in rows:
        echelon.add(row)
    return len(echelon)
