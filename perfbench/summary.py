"""Run every workload untraced and traced, print all metrics and the tracing overhead.

Run from the repository root:

    python3 perfbench/summary.py --seed 1 --seconds 30 [--write perfbench/baseline.json]

Each run is a fresh interpreter (perfbench/run.py).  The tracing overhead
of a workload is its traced wall_s minus its untraced wall_s.  --write
records the numbers with the machine they were taken on and the line count
of src/chowcheck/*.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper", "sweep", "adhoc")


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--write", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    record = {}
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        overhead = (traced["metrics"]["trace.wall_s"]["value"]
                    - plain["metrics"]["wall_s"]["value"])
        print(f"== {workload}")
        for result in (plain, traced):
            print(f"fail_frac = {result['failed'] / result['attempted']:.6g} "
                  f"({result['failed']} of {result['attempted']}), "
                  f"correct = {result['correct']}")
            for name, m in result["metrics"].items():
                print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(f"tracing overhead = {overhead:.6g} s")
        record[workload] = {
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "fail_frac": plain["failed"] / plain["attempted"],
            "tracing_overhead_s": overhead,
        }

    if args.write:
        sources = sorted(Path("src/chowcheck").glob("*.py"))
        doc = {
            "seed": args.seed,
            "seconds": args.seconds,
            "machine": {"cores": os.cpu_count(),
                        "python": platform.python_version(),
                        "implementation": platform.python_implementation()},
            "src_chowcheck_py_lines": sum(len(p.read_text().splitlines())
                                          for p in sources),
            "workloads": record,
        }
        Path(args.write).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
