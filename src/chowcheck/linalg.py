"""Exact sparse linear algebra over Q: one incremental, fraction-free eliminator.

Vectors are {key: int or Fraction} dicts, keyed by monomials or by any
other mutually comparable keys.  `SparseEchelon` keeps an echelon form of
everything added to it; ranks, independent subsets and linear solves are
all read off it.  Inside, rows are integer and elimination scales by gcd
cofactors (Bareiss, Math. Comp. 22, 1968), as `groebner._reduce` does for
polynomials; `Fraction` appears only in what `reduce` returns.  An int
row goes in as it is, so the packed integer rows of `groebner.ImageRows`
(ranked, and solved over by `solve_linear`) need no `Fraction` round
trip."""

from __future__ import annotations

import math
from fractions import Fraction


class SparseEchelon:
    """Incremental echelon form of sparse vectors given as {key: int or
    Fraction} dicts.

    Keys only need to be mutually comparable; elimination pivots on the
    largest key of each row, and each stored pivot row is a primitive
    integer row.  An int row goes in as it is (its denominators are all
    1); a Fraction row is first scaled by the lcm of its denominators.  The
    number of pivot rows is the rank of everything added so far.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    def __len__(self):
        return len(self.pivots)

    def _reduce(self, row) -> tuple:
        """(rest, den): the integer top-reduction of `row` and the positive
        integer with rest == den * (row minus a combination of pivots)."""
        den = math.lcm(*(v.denominator for v in row.values()))
        row = {k: v.numerator * (den // v.denominator) for k, v in row.items() if v}
        pivots = self.pivots
        while row:
            lead = max(row)
            prow = pivots.get(lead)
            if prow is None:
                break
            c = row.pop(lead)
            g = math.gcd(c, prow[lead])
            s, t = prow[lead] // g, c // g
            if s != 1:
                for k in row:
                    row[k] *= s
                den *= s
            for k, v in prow.items():
                if k == lead:
                    continue
                nv = row.get(k, 0) - t * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
        return row, den

    def reduce(self, row) -> dict:
        """Eliminate pivots from the top of a copy of `row`.

        The result is empty exactly when `row` lies in the span; otherwise
        its largest key is not a pivot.
        """
        rest, den = self._reduce(row)
        return {k: Fraction(v, den) for k, v in rest.items()}

    def add(self, row) -> bool:
        """Add `row` to the span; True when it was not already in it."""
        rest, _ = self._reduce(row)
        if rest:
            g = math.gcd(*rest.values())
            self.pivots[max(rest)] = {k: v // g for k, v in rest.items()}
        return bool(rest)


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
