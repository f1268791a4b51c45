"""Finite signed-permutation actions, Reynolds averaging, invariant rings."""

from fractions import Fraction

import pytest

from chowcheck.chowpipeline import STRATUM_FILES, SignConvention, Stratum, StratumSpec
from chowcheck.exprparser import parse_polynomial
from chowcheck.groebner import Ideal, Subalgebra, subalgebra_member
from chowcheck import invariants
from chowcheck.invariants import (
    GroupAction,
    InvariantError,
    algebra_generators,
    invariant_basis,
    invariant_presentation,
    molien_series,
)
from chowcheck.polyarith import Polynomial, VarTable
from oracles import total_degree


def swap_action():
    table = VarTable(["t1", "t2"])
    return table, GroupAction(table, [{"t1": "t2", "t2": "t1"}])


def signed_pair_action():
    """(t1, t2, r) -> (t2, t1, -r): the two-node stratum symmetry."""
    table = VarTable(["t1", "t2", "r"])
    return table, GroupAction(table, [{"t1": "t2", "t2": "t1", "r": "-r"}])


def s3_action():
    table = VarTable(["w1", "w2", "w3"])
    return table, GroupAction(
        table,
        [
            {"w1": "w2", "w2": "w1", "w3": "w3"},
            {"w1": "w2", "w2": "w3", "w3": "w1"},
        ],
    )


def test_group_closure_and_order():
    _, c2 = swap_action()
    assert c2.order == 2
    _, s3 = s3_action()
    assert s3.order == 6
    _, signed = signed_pair_action()
    assert signed.order == 2


def test_group_generator_validation():
    table = VarTable(["x", "y"], [1, 2])
    with pytest.raises(InvariantError):
        GroupAction(table, [{"x": "y", "y": "x"}])  # weights differ
    with pytest.raises(InvariantError):
        GroupAction(VarTable(["x", "y"]), [{"x": "y"}])  # not total
    with pytest.raises(InvariantError):
        GroupAction(VarTable(["x", "y"]), [{"x": "y", "y": "y"}])  # not bijective


def test_action_is_a_ring_map():
    table, s3 = s3_action()
    f = parse_polynomial("w1^2*w2 - w3", table)
    g = parse_polynomial("w1 + 2*w2*w3", table)
    for element in s3.elements:
        act = lambda h: s3.act(element, h)  # noqa: E731
        assert act(f * g) == act(f) * act(g)
        assert act(f + g) == act(f) + act(g)


def test_signed_action_tracks_parity():
    table, signed = signed_pair_action()
    r = Polynomial.variable(table, "r")
    flip = next(e for e in signed.elements if signed.act(e, r) == -r)
    assert signed.act(flip, r**2) == r**2
    t1 = Polynomial.variable(table, "t1")
    assert signed.act(flip, t1 * r) == -(Polynomial.variable(table, "t2") * r)


def test_reynolds_laws():
    table, signed = signed_pair_action()
    probes = [
        parse_polynomial("t1^2*r + t2", table),
        parse_polynomial("r^3 - t1*t2*r", table),
        parse_polynomial("t1 + t2 + r", table),
    ]
    for f in probes:
        rf = signed.reynolds(f)
        assert signed.reynolds(rf) == rf  # projector
        assert signed.is_invariant(rf)  # lands in the invariants
        assert signed.transfer(f) == signed.order * rf  # transfer = |G| R
    inv = parse_polynomial("t1*t2", table)
    assert signed.reynolds(inv) == inv  # identity on invariants


def test_invariant_basis_dimensions_c2():
    _, c2 = swap_action()
    # symmetric polynomials in two letters: dims 1, 1, 2, 2, 3 in degrees 0..4
    assert [len(invariant_basis(c2, d)) for d in range(5)] == [1, 1, 2, 2, 3]


@pytest.mark.parametrize("name", STRATUM_FILES)
def test_molien_series_counts_the_invariants_of_each_stratum(name):
    spec = StratumSpec.load(name)
    action = GroupAction(spec.table, spec.group_specs)
    molien = molien_series(action)
    top = action.order + 2
    assert [molien.dim(d) for d in range(top + 1)] == [len(invariant_basis(action, d))
                                                       for d in range(top + 1)]


def test_molien_series_of_the_signed_swap():
    # 1/2 (1/(1-t)^3 + 1/((1-t^2)(1+t))): dims 1, 1, 4, 4, 9, 9
    _, signed = signed_pair_action()
    molien = molien_series(signed)
    assert [molien.dim(d) for d in range(6)] == [1, 1, 4, 4, 9, 9]
    assert molien.dim(-1) == 0


def test_invariant_presentation_names_the_first_degree_off_the_molien_series(
        monkeypatch):
    # the one relation z1^2*z4 + z3^2 - 2*z2*z4 lives in degree 4; without
    # it the presentation has one dimension too many there
    _, signed = signed_pair_action()
    kernel = Subalgebra.kernel
    monkeypatch.setattr(Subalgebra, "kernel",
                        lambda self: Ideal(self.tag_table, kernel(self).gens[1:]))
    with pytest.raises(InvariantError, match=r"in degree 4: dimension 10 presented, "
                                             r"9 invariant"):
        invariant_presentation(signed)


def test_algebra_generators_c2_swap():
    table, c2 = swap_action()
    gens = algebra_generators(c2)
    expected = [
        parse_polynomial("t1 + t2", table),
        parse_polynomial("t1^2 + t2^2", table),
    ]
    named = lambda fs: Subalgebra(table, [(f"z{i+1}", f) for i, f in enumerate(fs)])  # noqa: E731
    for f in expected:
        assert subalgebra_member(f, named(gens)) is not None
    for f in gens:
        assert subalgebra_member(f, named(expected)) is not None


def test_algebra_generators_signed_pair():
    """The sign flip pairs the odd powers of r with the alternating letters."""
    table, signed = signed_pair_action()
    gens = algebra_generators(signed)
    degs = sorted(map(total_degree, gens))
    assert degs == [1, 2, 2, 2]  # Noether bound |G| = 2
    for g in gens:
        assert signed.is_invariant(g)


def test_algebra_generators_sweep_only_degrees_the_molien_series_leaves_open(
        monkeypatch):
    # S3 invariants have Molien dimensions 1, 1, 2, 3, 4, 5, 7: the power
    # sums of degrees 1-3 fill degrees 4-6, so those are never swept, and
    # the 2 + 3 candidates of degrees 2 and 3 are each tested once
    calls = {"invariant_basis": 0, "subalgebra_member": 0}
    for name in calls:
        inner = getattr(invariants, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(invariants, name, counted)
    _, s3 = s3_action()
    gens = algebra_generators(s3)
    assert [str(g) for g in gens] == ["w1 + w2 + w3", "w1^2 + w2^2 + w3^2",
                                      "w1^3 + w2^3 + w3^3"]
    assert calls == {"invariant_basis": 3, "subalgebra_member": 5}


def test_invariant_presentation_principal_kernel():
    table, signed = signed_pair_action()
    pres = invariant_presentation(signed)
    assert pres.table.weights == (1, 2, 2, 2)
    rels = pres.relations.groebner(pres.order)
    assert len(rels) == 1
    # z3^2 = z4*(2*z2 - z1^2) in the canonical generators
    expected = parse_polynomial("z3^2 - z4*(2*z2 - z1^2)", pres.table)
    assert pres.relations.member(expected)
    assert [str(r) for r in rels] == ["z1^2*z4 + z3^2 - 2*z2*z4"]


def test_invariant_presentation_rejects_insufficient_generators():
    table, c2 = swap_action()
    only_linear = Subalgebra(table, [("z1", parse_polynomial("t1 + t2", table))])
    with pytest.raises(InvariantError):
        invariant_presentation(c2, only_linear)


def test_invariant_presentation_rejects_non_invariant():
    table, c2 = swap_action()
    with pytest.raises(InvariantError):
        invariant_presentation(c2, Subalgebra(table, [
            ("z1", parse_polynomial("t1", table)),
            ("z2", parse_polynomial("t1*t2", table)),
        ]))


def test_s3_power_sums_generate():
    table, s3 = s3_action()
    power_sums = Subalgebra(table, [
        ("p1", parse_polynomial("w1 + w2 + w3", table)),
        ("p2", parse_polynomial("w1^2 + w2^2 + w3^2", table)),
        ("p3", parse_polynomial("w1^3 + w2^3 + w3^3", table)),
    ])
    pres = invariant_presentation(s3, power_sums)
    assert pres.is_free()
    assert pres.table.weights == (1, 2, 3)


@pytest.mark.parametrize("weights, generator, gens, degrees, relations", [
    # y^2 lies in degree 6 = |G| * 3, past the unweighted bound |G|
    ({"y": 3}, {"y": "-y"}, ["y^2"], (6,), []),
    ({"x": 1, "y": 2}, {"x": "-x", "y": "-y"}, ["x^2", "x*y", "y^2"], (2, 3, 4),
     ["z2^2 - z1*z3"]),
], ids=["y3", "x1-y2"])
def test_weighted_actions_sweep_through_the_weighted_noether_bound(
        weights, generator, gens, degrees, relations):
    action = GroupAction(VarTable(list(weights), list(weights.values())), [generator])
    assert [str(g) for g in algebra_generators(action)] == gens
    pres = invariant_presentation(action)
    assert pres.table.weights == degrees
    assert [str(r) for r in pres.relations.gens] == relations


def test_supplied_generators_never_run_the_generator_sweep(monkeypatch):
    def refuse(action):
        raise AssertionError("the generator sweep ran")

    monkeypatch.setattr(invariants, "algebra_generators", refuse)
    monkeypatch.setattr(invariants, "_generator_span", refuse)
    table, s3 = s3_action()
    power_sums = Subalgebra(table, [
        (f"p{k}", parse_polynomial(f"w1^{k} + w2^{k} + w3^{k}", table)) for k in (1, 2, 3)])
    assert invariant_presentation(s3, power_sums).is_free()
    stratum = Stratum(StratumSpec.load("gamma2.stratum"), SignConvention())
    assert list(stratum.ring.table.names) == stratum.ring_names
