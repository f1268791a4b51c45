"""Exact sparse linear algebra over Fraction: one incremental eliminator.

Vectors are {key: Fraction} dicts, keyed by monomials or by any other
mutually comparable keys.  `SparseEchelon` keeps an echelon form of
everything added to it; ranks, independent subsets and linear solves are
all read off it.
"""

from __future__ import annotations

from fractions import Fraction


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
    """Rank of a set of sparse vectors."""
    echelon = SparseEchelon()
    for row in rows:
        echelon.add(row)
    return len(echelon)


def independent_rows(rows) -> list:
    """Indices of a maximal independent subset, scanning rows in order."""
    echelon = SparseEchelon()
    return [i for i, row in enumerate(rows) if echelon.add(row)]


def solve_linear(columns, rhs):
    """Coefficients x with sum(x[j] * columns[j]) == rhs, or None when there
    are none.

    Every column that lies in the span of the columns before it gets 0, so
    the answer is unique.  Each column carries a tag key (0, j) below all of
    its own keys (1, k); after elimination a column's tags record it as a
    combination of the independent columns, and a column whose own keys all
    cancel is dependent and is not kept.
    """
    echelon = SparseEchelon()
    for j, col in enumerate(columns):
        row = {(1, k): v for k, v in col.items()}
        row[(0, j)] = Fraction(1)
        row = echelon.reduce(row)
        if max(row)[0]:
            echelon.add(row)
    left = echelon.reduce({(1, k): v for k, v in rhs.items()})
    if left and max(left)[0]:
        return None
    return [-left.get((0, j), Fraction(0)) for j in range(len(columns))]
