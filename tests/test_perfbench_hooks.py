"""The benchmark's traced run wraps chowcheck functions by name.

Building its layer probe installs every wrap, so a renamed or deleted
function, method or module that the benchmark traces fails here instead of
only when `perfbench/run.py --trace 1` is run.  The machine report is held
to the digest the benchmark checks, so a change to its bytes fails here too.
"""

import hashlib
import pathlib
import sys
import time

from chowcheck import groebner, linalg
from chowcheck.chowpipeline import emit_report

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_layer_probe_installs_and_restores_every_wrap(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    originals = (groebner.buchberger, linalg.solve_linear)
    probe = run.LayerProbe(time.perf_counter)
    try:
        assert groebner.buchberger is not originals[0]
        assert linalg.solve_linear is not originals[1]
    finally:
        probe.tracer.restore()
    assert (groebner.buchberger, linalg.solve_linear) == originals


def test_setup_probe_loads_the_data_in_a_fresh_interpreter(monkeypatch):
    # the benchmark's set-up time imports chowcheck and loads every data
    # file by name in a child interpreter; a renamed loader fails here
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    monkeypatch.setattr(run, "ROOT", PERFBENCH.parent)
    monkeypatch.setattr(run, "SRC", PERFBENCH.parent / "src")
    (elapsed,) = run.measure_setup(1)
    assert elapsed > 0


def test_machine_report_matches_the_benchmark_digest(report, monkeypatch):
    # the digest lives once, in perfbench/run.py; `report` is verify_paper()
    # at the default convention and dmax 12, as the paper workload runs it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    text = emit_report(report, "machine")
    assert hashlib.sha256(text.encode()).hexdigest() == run.PAPER_SHA256
