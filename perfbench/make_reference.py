#!/usr/bin/env python3
"""Regenerate reference.json: the final-state a, Y and lambda_g of every
input variant of every workload.

    python3 perfbench/make_reference.py [--workload NAME ...]
    python3 perfbench/make_reference.py --tolerances

Regenerate only at a commit whose results are trusted, because the gate
compares every later run against this file.  --tolerances instead prints,
for variant 0 of each workload, the two figures the gate's tolerances sit
between: the change in the final state when w(0) moves by 1e-9, and the
grid error estimated from the run at half the grid, |f(n/2) - f(n)| / 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from run import Runner, import_krflow
from gate import FINAL_KEYS, REFERENCE_PATH, check_structure, final_state
from workloads import N_VARIANTS, WORKLOADS


def reference_of(workload, variant: int) -> dict[str, float]:
    runner = Runner(workload, variant, reference={})
    _, code = runner.execute(runner.spec_path, runner.out_dir)
    problems, rows = check_structure(workload, runner.out_dir, code)
    if code is None or problems:
        sys.exit(f"{workload.name} variant {variant}: "
                 f"{runner.last_output}{problems}")
    return final_state(rows)


def tolerance_figures(workload) -> tuple[list[float], list[float]]:
    import numpy as np
    from numpy.polynomial import legendre
    from krflow import loads
    from krflow.flow import run
    from krflow.geometry import conformal_metric, normalize_volume
    from krflow.harness import initial_metric

    def final(wl, dw=0.0):
        spec = loads(wl.spec_text(0, "unused"))
        metric = initial_metric(spec)
        if dw:
            p2 = legendre.legval(metric.grid.cos_nodes, [0.0, 0.0, 1.0])
            metric = normalize_volume(
                conformal_metric(metric.grid, metric.w + dw * p2))
        s = run(spec.flow, metric).states[-1]
        return np.array([s.funcs.a, s.funcs.Y, s.lambda_g])

    base = final(workload)
    perturbed = np.abs(final(workload, 1e-9) - base)
    half = dataclasses.replace(workload, grid_n=workload.grid_n // 2)
    grid_err = np.abs(final(half) - base) / 3.0
    return perturbed.tolist(), grid_err.tolist()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--tolerances", action="store_true")
    args = p.parse_args(argv)
    if not import_krflow():
        return 2
    names = args.workload or list(WORKLOADS)
    if args.tolerances:
        for name in names:
            perturbed, grid_err = tolerance_figures(WORKLOADS[name])
            for k, d, g in zip(FINAL_KEYS, perturbed, grid_err):
                print(f"{name:15s} {k:9s} dw=1e-9: {d:.2e}  grid: {g:.2e}",
                      flush=True)
        return 0
    ref = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() \
        else {}
    for name in names:
        ref[name] = {str(v): reference_of(WORKLOADS[name], v)
                     for v in range(N_VARIANTS)}
        REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"{name}: {N_VARIANTS} variants", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
