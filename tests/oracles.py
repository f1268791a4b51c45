"""Independent oracles the tests check the engine against."""

from fractions import Fraction
from itertools import product

from chowcheck.groebner import Ideal, buchberger, standard_monomials
from chowcheck.linalg import solve_linear
from chowcheck.polyarith import MonomialOrder, Polynomial, VarTable, mono_div, mono_mul


def brute_force_member(f, gens, slack: int = 2):
    """Certify membership by solving for cofactors of bounded degree.

    Searches for a_i with deg(a_i * g_i) <= deg(f) + slack such that
    f = sum a_i g_i.  Returns True when such a combination exists; False is
    inconclusive (membership may still hold with larger cofactors).
    """
    ctx = f.context
    if f.is_zero():
        return True
    d = f.total_degree() + slack
    columns = []
    for g in gens:
        if g.is_zero():
            continue
        bound = d - g.total_degree()
        if bound < 0:
            continue
        for m in _monomials_up_to(len(ctx), bound):
            columns.append({mono_mul(gm, m): gc for gm, gc in g.terms.items()})
    return solve_linear(columns, f.terms) is not None


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


def transport_correction(alpha, beta, extra):
    """The correction that lifts `extra` across the fiber square, found the
    plain way: every tag monomial of its degree with a tag beta kills, the
    alpha normal form of each in Fraction coefficients, one `solve_linear`
    against the alpha image of the naive lift.  None when there is none."""
    table = alpha.source.table
    killed = set(beta.killed_names())
    naive = extra.rename(table)
    candidates = [m for m in standard_monomials(Ideal(table, ()), naive.weighted_degree(),
                                                MonomialOrder.wgrevlex(table.weights))
                  if any(m[i] for i, n in enumerate(table.names) if n in killed)]
    images = [alpha(Polynomial(table, {m: Fraction(1)})).terms for m in candidates]
    sol = solve_linear(images, alpha(naive).terms)
    if sol is None:
        return None
    return Polynomial(table, {m: c for m, c in zip(candidates, sol) if c})
