"""Independent oracles the tests check the engine against."""

from chowcheck.linalg import solve_linear
from chowcheck.polyarith import mono_mul


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
