"""Independent oracles the tests check the engine against."""

from fractions import Fraction
from itertools import product

from chowcheck.groebner import Ideal, buchberger, standard_monomials
from chowcheck.polyarith import MonomialOrder, Polynomial, VarTable, mono_div


def _echelon(columns, rhs) -> tuple:
    """Plain Gaussian elimination on one sparse Fraction equation per key,
    unlike the fraction-free echelon of `chowcheck.linalg`: column by
    column, the shortest unused equation holding y[j] is scaled to make
    its coefficient 1 and cleared from every unused one.  The right-hand side
    sits in each equation under the key None.  Returns the pivot equation
    of each pivot column and the equations left unused."""
    equations = {}
    for j, col in [*enumerate(columns), (None, rhs)]:
        for k, v in col.items():
            if v:
                equations.setdefault(k, {})[j] = Fraction(v)
    unused, pivots = list(equations.values()), {}
    for j in range(len(columns)):
        holding = [i for i, eq in enumerate(unused) if j in eq]
        if not holding:
            continue
        at = min(holding, key=lambda i: len(unused[i]))
        eq = unused.pop(at)
        eq = pivots[j] = {i: v / eq[j] for i, v in eq.items()}
        for other in unused:
            c = other.get(j)
            if not c:
                continue
            for i, v in eq.items():
                left = other.get(i, 0) - c * v
                if left:
                    other[i] = left
                else:
                    other.pop(i, None)
    return pivots, unused


def solve_fractions(columns, rhs):
    """Coefficients y with sum(y[j] * columns[j]) == rhs, or None when there
    are none: `_echelon`, then back substitution.  A column without a pivot
    depends on the columns before it and gets 0, so the answer is unique."""
    pivots, unused = _echelon(columns, rhs)
    if any(None in eq for eq in unused):
        return None
    y = [Fraction(0)] * len(columns)
    for j in sorted(pivots, reverse=True):
        y[j] = pivots[j].get(None, 0) - sum(v * y[i] for i, v in pivots[j].items()
                                            if i is not None and i != j)
    return y


def rank_fractions(vectors) -> int:
    """Rank of {key: number} vectors, the pivot count of `_echelon`."""
    return len(_echelon(vectors, {})[0])


def pair_rank_from_scratch(alpha, killed, degree):
    """The pair-image rank as a plain loop: for each tag monomial of the
    degree, its full alpha image beside its image in the free ring of the
    tags not `killed` (itself, or zero when it has a killed tag), then one
    `rank_fractions`."""
    table = alpha.source.table
    rows = []
    for m in standard_monomials(Ideal(table, ()), degree, MonomialOrder.wgrevlex(table.weights)):
        row = {("A",) + k: v for k, v in alpha(Polynomial(table, {m: Fraction(1)})).terms.items()}
        if not any(e for e, n in zip(m, table.names) if n in killed):
            row[("C",) + m] = Fraction(1)
        rows.append(row)
    return rank_fractions(rows)


def total_degree(f) -> int:
    """The largest number of factors in a monomial of f, -1 for zero."""
    return max(map(sum, f.terms), default=-1)


def leading_coefficient(f, order):
    return f.terms[f.leading_monomial(order)]


def brute_force_member(f, gens, slack: int = 2):
    """Certify membership by solving for cofactors of bounded degree.

    Searches for a_i with deg(a_i * g_i) <= deg(f) + slack such that
    f = sum a_i g_i.  Returns True when such a combination exists; False is
    inconclusive (membership may still hold with larger cofactors).
    """
    ctx = f.context
    if f.is_zero():
        return True
    d = total_degree(f) + slack
    columns = []
    for g in gens:
        if g.is_zero():
            continue
        bound = d - total_degree(g)
        if bound < 0:
            continue
        for m in _monomials_up_to(len(ctx), bound):
            columns.append({tuple(map(sum, zip(gm, m))): gc for gm, gc in g.terms.items()})
    return solve_fractions(columns, f.terms) is not None


def _monomials_up_to(n: int, d: int):
    if n == 0:
        yield ()
        return
    for e in range(d + 1):
        for rest in _monomials_up_to(n - 1, d - e):
            yield (e,) + rest


def block_elimination(I, drop):
    """I intersected with Q[kept variables] by one block order, the textbook
    way (Cox-Little-O'Shea, IVA 3.1): the dropped variables moved to the
    front, one Buchberger run under wgrevlex on them, then on the kept
    ones, and the basis elements free of the dropped variables.  No
    `Subalgebra` and no identified variables, unlike `eliminate`."""
    ctx = I.context
    dropped = [n for n in ctx.names if n in drop]
    kept = [n for n in ctx.names if n not in drop]
    wd = tuple(ctx.weight(n) for n in dropped)
    wk = tuple(ctx.weight(n) for n in kept)
    moved = VarTable(dropped + kept, wd + wk)
    table = VarTable(kept, wk)
    order = MonomialOrder.block(len(wd), MonomialOrder.wgrevlex(wd), MonomialOrder.wgrevlex(wk))
    basis = buchberger([g.rename(moved) for g in I.gens], order)
    return Ideal(table, [g.rename(table) for g in basis if not g.support_names() & set(dropped)])


def kernel_by_elimination(source, images, target, target_ideal=None):
    """Kernel of Q[source] -> Q[target]/target_ideal from the textbook graph.

    Every target variable is renamed apart (to _t0, _t1, ...) and eliminated
    from the full graph ideal: the target relations and s - image(s) for
    every source variable s, none identified with a target variable, by
    `block_elimination`, not by the `Subalgebra` under test.
    """
    apart = {v: f"_t{i}" for i, v in enumerate(target.names)}
    graph = VarTable(tuple(apart.values()) + source.names,
                     target.weights + source.weights)
    gens = [g.rename(graph, apart) for g in target_ideal.gens] if target_ideal else []
    for name in source.names:
        image = images[name]
        if not isinstance(image, Polynomial):
            image = Polynomial.constant(target, image)
        gens.append(Polynomial.variable(graph, name) - image.rename(graph, apart))
    return block_elimination(Ideal(graph, gens), list(apart.values()))


def count_standard_monomials(I, order):
    """Count the standard monomials of I one by one, or None when there are
    infinitely many (some variable has no pure power among the leading
    monomials): the box below the smallest pure powers is walked in full
    and every point is tested against every leading monomial."""
    lms = [g.leading_monomial(order) for g in I.groebner(order)]
    bounds = []
    for i in range(len(I.context)):
        powers = [m[i] for m in lms if not any(m[:i] + m[i + 1:])]
        if not powers:
            return None
        bounds.append(min(powers))
    return sum(1 for m in product(*(range(b) for b in bounds))
               if not any(mono_div(m, lm) is not None for lm in lms))


def gf2_rank_of_lists(rows):
    """Rank over GF(2) of equal-length 0/1 lists by the textbook elimination:
    column by column, a row with a 1 there is swapped up among the rows not
    yet used and added to every other row with a 1 there."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                rows[i] = [a ^ b for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


def transport_correction(alpha, killed, extra):
    """The correction that lifts `extra` across the fiber square, found the
    plain way: every tag monomial of its degree with a `killed` tag, the
    alpha normal form of each in Fraction coefficients, one `solve_fractions`
    against the alpha image of the naive lift.  None when there is none."""
    table = alpha.source.table
    naive = extra.rename(table)
    candidates = [m for m in standard_monomials(Ideal(table, ()), naive.weighted_degree(),
                                                MonomialOrder.wgrevlex(table.weights))
                  if any(m[i] for i, n in enumerate(table.names) if n in killed)]
    images = [alpha(Polynomial(table, {m: Fraction(1)})).terms for m in candidates]
    sol = solve_fractions(images, alpha(naive).terms)
    if sol is None:
        return None
    return Polynomial(table, {m: c for m, c in zip(candidates, sol) if c})
