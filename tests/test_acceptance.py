"""Acceptance gate: one test (one pass/fail line under pytest -v) per
shipped criterion.

Every expected value below is frozen from an independent oracle or from
the source text; the timed criteria use generous desk-scale budgets.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from test_properties import brute_force_oracle_cases

from chowcheck.exprparser import parse_polynomial
from chowcheck.groebner import (
    Ideal,
    Subalgebra,
    buchberger,
    ideal_equal,
    ideal_quotient,
    map_kernel,
    subalgebra_member,
    zero_dimensional,
)
from chowcheck.invariants import GroupAction, algebra_generators
from chowcheck.polyarith import MonomialOrder, Polynomial, VarTable

SRC = Path(__file__).resolve().parents[1] / "src"

CLASS_WEIGHTS = {"k1": 1, "k2": 2, "g2": 2, "g3p": 3, "g3pp": 3,
                 "q": 4, "r": 4, "s": 5, "t": 5, "u": 6}


def parse_all(texts, table):
    return [parse_polynomial(t, table) for t in texts]


def test_criterion_01_swap_invariants_span_the_power_sums():
    t0 = perf_counter()
    table = VarTable(["t1", "t2"])
    action = GroupAction(table, [{"t1": "t2", "t2": "t1"}])
    computed = algebra_generators(action)
    stated = parse_all(["t1 + t2", "t1^2 + t2^2"], table)
    # same subalgebra, both directions
    for f in stated:
        span = Subalgebra(table, [(f"z{i + 1}", g) for i, g in enumerate(computed)])
        assert subalgebra_member(f, span) is not None
    for g in computed:
        span = Subalgebra(table, [(f"e{i + 1}", f) for i, f in enumerate(stated)])
        assert subalgebra_member(g, span) is not None
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 1: swap invariant generators ({elapsed:.3f}s)")


def test_criterion_02_two_node_kernel_claim_and_zero_fiber(claim_rows):
    t0 = perf_counter()
    psi = VarTable(["t1", "t2", "r"])
    u_table = VarTable(["u1", "u2", "u3", "u4"], [1, 2, 2, 2])
    images = parse_all(
        ["t1 + t2", "t1^2 + t2^2", "r*(t1 - t2)", "r^2"], psi)
    kernel = map_kernel(u_table, dict(zip(u_table.names, images)), target=psi)
    stated = Ideal(u_table, parse_all(["u3^2 - u4*(2*u2 - u1^2)"], u_table))
    assert len(kernel.groebner(MonomialOrder.grevlex())) == 1  # principal
    assert ideal_equal(kernel, stated)

    # the transcribed relation claims pass under the default convention
    assert claim_rows["two-node-invariants-kernel"]["status"] == "PASS"
    assert claim_rows["two-node-x-presentation"]["status"] == "PASS"

    # the fiber over 0 is finite and supported at the origin only
    fiber = Ideal(psi, images)
    finite, count = zero_dimensional(fiber)
    assert finite is True and count == 3
    for name in psi.names:
        v = Polynomial.variable(psi, name)
        assert fiber.member(v ** 4)  # nilpotent, so the point is the origin
    assert claim_rows["two-node-zero-fiber"]["status"] == "PASS"
    elapsed = perf_counter() - t0
    assert elapsed < 2.0
    print(f"PASS criterion 2: two-node kernel + zero fiber ({elapsed:.3f}s)")


def test_criterion_03_two_tails_kernel_and_evaluations(claim_rows):
    t0 = perf_counter()
    v_table = VarTable(["v1", "v2", "v3", "v4"])
    u_table = VarTable(["u1", "u2", "u3", "u4", "u5"], [1, 1, 2, 2, 2])
    images = parse_all(
        ["v1 + v2", "v3 + v4", "v1^2 + v2^2", "v3^2 + v4^2",
         "v1*v4 + v2*v3"], v_table)
    kernel = map_kernel(u_table, dict(zip(u_table.names, images)),
                        target=v_table)
    relation = parse_polynomial(
        "2*u3*u4 + 2*u1*u2*u5 - u2^2*u3 - u1^2*u4 - 2*u5^2", u_table)
    assert ideal_equal(kernel, Ideal(u_table, [relation]))

    composed = relation.substitute(
        dict(zip(u_table.names, images)), target=v_table)
    for point in [(1, 0, 0, 1), (1, 2, 3, 4)]:
        total = Fraction(0)
        for mono, coeff in composed.terms.items():
            value = Fraction(1)
            for exponent, coordinate in zip(mono, point):
                value *= Fraction(coordinate) ** exponent
            total += coeff * value
        assert total == 0
    assert claim_rows["two-tails-invariants-kernel"]["status"] == "PASS"
    assert claim_rows["two-tails-relation-eval-basic"]["status"] == "PASS"
    assert claim_rows["two-tails-relation-eval-generic"]["status"] == "PASS"
    elapsed = perf_counter() - t0
    assert elapsed < 2.0
    print(f"PASS criterion 3: two-tails kernel + evaluations ({elapsed:.3f}s)")


def test_criterion_04_displayed_restriction_kernel(claim_rows):
    t0 = perf_counter()
    source = VarTable(["k1", "k2", "g2", "q"], [1, 2, 2, 4])
    target = VarTable(["k1", "g2", "g3p"], [1, 2, 3])
    images = parse_all(
        ["k1", "k1^2 - 2*g2", "g2", "-g2*(k1^2 - 4*g2)"], target)
    kernel = map_kernel(source, dict(zip(source.names, images)),
                        target=target)
    stated = Ideal(source, parse_all(
        ["q + g2*(k1^2 - 4*g2)", "k2 + 2*g2 - k1^2"], source))
    assert ideal_equal(kernel, stated)
    assert claim_rows["chain-restriction-kernel-display"]["status"] == "PASS"
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 4: displayed restriction kernel ({elapsed:.3f}s)")


def test_criterion_05_pipeline_shape(artifacts, report_and_time):
    report, elapsed = report_and_time
    assert elapsed < 60.0

    stage1 = artifacts.stages[0]["result"]
    assert stage1.table.names == ("k1", "k2")
    assert stage1.table.weights == (1, 2)
    assert stage1.is_free()

    final = report["final"]
    assert len(final["generators"]) == 10
    rows = final["theorem_rows"]
    assert len(rows) == 11
    for row in rows:
        if row["status"] == "PASS":
            continue
        assert row["status"] == "FAIL"
        assert row["corrected"] is not None and row["corrected_ok"] is True
    print(f"PASS criterion 5: 10 generators, 11 rows, free stage 1 "
          f"({elapsed:.1f}s full run)")


def test_criterion_06_sign_incompatibility_is_detected(report):
    sweep = report["sign_search"]["incompatible-pair"]
    assert sorted(sweep["claims"]) == [
        "two-node-glued-relation", "two-node-glued-relation-restated"]
    assert sweep["jointly_satisfiable"] is False
    assert sweep["all_pass_conventions"] == []
    assert sweep["best_pass_count"] == 1  # each printing passes somewhere

    from chowcheck.chowpipeline import emit_report
    text = emit_report(report, format="text")
    assert "incompatible-pair" in text
    assert "no single sign convention satisfies all of them" in text
    print("PASS criterion 6: the two printings of the degree-8 relation "
          "are jointly unsatisfiable over all 16 conventions")


def test_criterion_07_everything_is_weighted_homogeneous(artifacts, report):
    checked = 0
    sweeps = [g for stage in artifacts.stages
              for g in stage["result"].relations.gens]
    final = artifacts.final
    sweeps += list(final.relations.gens)
    sweeps += list(final.relations.groebner(final.order))
    sweeps += list(artifacts.minimal)
    for g in sweeps:
        degrees = set()
        for mono in g.terms:
            degrees.add(sum(e * CLASS_WEIGHTS[name]
                            for e, name in zip(mono, g.context.names)))
        assert len(degrees) == 1, f"inhomogeneous relation: {g}"
        checked += 1
    assert checked >= 4 + 11  # at least the stage relations and the theorem
    print(f"PASS criterion 7: {checked} relations weighted-homogeneous "
          f"under the class weights")


def test_criterion_08_property_suites_and_membership_oracle():
    # the randomized oracle loop (>= 200 cases, zero disagreements)
    ran, agreements = brute_force_oracle_cases()
    assert ran >= 200 and agreements == ran

    # deterministic spot checks of each law family
    table = VarTable(["x", "y", "z"])
    f = parse_polynomial("x^2*y - 3*z + 1/2*x", table)
    action = GroupAction(table, [{"x": "y", "y": "x", "z": "-z"}])
    rf = action.reynolds(f)
    assert action.reynolds(rf) == rf
    assert action.is_invariant(rf)
    assert action.transfer(f) == action.order * rf

    gens = parse_all(["x*y - z^2", "x^2 + y*z"], table)
    gb = buchberger(gens, MonomialOrder.grevlex())
    assert buchberger(gb, MonomialOrder.grevlex()) == gb

    I = Ideal(table, gens)
    probe = f * gens[0] + gens[1]
    assert I.member(probe, MonomialOrder.lex()) == I.member(
        probe, MonomialOrder.grevlex()) is True

    colon = ideal_quotient(I, f)
    for g in colon.gens:
        assert I.member(g * f)
    print(f"PASS criterion 8: property laws + membership oracle "
          f"({ran} random cases, {agreements} agreements)")


def test_criterion_09_graded_certification_through_degree_12(artifacts):
    for label in ("Gamma3p", "Gamma3pp"):
        info = artifacts.stage(label)["info"]
        assert info["certified_through"] >= 12
        rows = [r for r in info["surjectivity"] if r["degree"] <= 12]
        assert [r["degree"] for r in rows] == list(range(13))
        for row in rows:
            assert row["certified"] is True
            assert row["pair_rank"] == row["fiber_dim"] == row["quotient_dim"]
    print("PASS criterion 9: generator sets certified degree by degree "
          "through 12 on both three-node stages")


def test_criterion_10_machine_reports_are_byte_identical(tmp_path):
    outputs = []
    codes = []
    for seed in ("0", "1"):
        out = tmp_path / f"report-{seed}.json"
        # the child imports chowcheck from this checkout, installed or not
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "chowcheck", "verify-paper",
             "--format", "machine", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        codes.append(proc.returncode)
        outputs.append(out.read_bytes())
    assert codes == [1, 1]  # discrepancies are expected and reported
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])  # well-formed
    print(f"PASS criterion 10: byte-identical machine reports "
          f"({len(outputs[0])} bytes)")
