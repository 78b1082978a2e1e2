#!/usr/bin/env python3
"""Run every workload untraced and then traced, and print the summaries.

    python3 perfbench/report.py [--seed 7] [--seconds 40] [--workload NAME]

Per workload this prints wall_s, setup_s and peak_rss_mb with their units
and sample counts, fail_frac, the correctness-gate result, every per-layer
metric of the traced runs, the tracing overhead and the provenance.  Each
run is its own run.py process, so peak_rss_mb is the workload's own.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    for name in args.workload or list(WORKLOADS):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"run.py failed on {name}:\n{proc.stderr}")
            summary = proc.stdout.splitlines()[:-1]
            correct = json.loads(proc.stdout.splitlines()[-1])["correct"]
            print("\n".join(summary))
            print(f"  correct = {correct}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
