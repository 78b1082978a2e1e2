"""Correctness gate for the artifacts of one `krflow run`.

A run passes when it completed (exit code 0 or 1: a failed monitor check
is a completed run, so the verdict set is not gated), its timeseries has
the fixed columns and one row per recorded state, every row keeps the
structural identities, and the final-state a, Y and lambda_g match the
stored reference of the workload's input variant.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import CLASS_TOL, VOL_TOL, Workload, band_tol

TIMESERIES_COLUMNS = (
    "t", "dt", "volume", "diam", "K_min", "K_max", "a", "Y", "Z", "osc_u",
    "c0_u_minus_a", "grad_u_c0", "lambda_g", "holo_band_min",
    "holo_band_max", "class_residual", "phi_c0")

FINAL_KEYS = ("a", "Y", "lambda_g")

# Absolute tolerance on the final-state a, Y and lambda_g, per workload:
# the geometric mean, rounded, of the change a 1e-9 move of w(0) makes (an
# accepted change of time integrator moves w by about that much) and of
# the O(h^2) grid error of the workload's grid.  `make_reference.py
# --tolerances` prints both figures; NOTES.md lists them.
FINAL_TOL = {
    "flow_n256": {"a": 3e-12, "Y": 7e-12, "lambda_g": 1e-7},
    "spectrum_n1024": {"a": 5e-13, "Y": 3e-13, "lambda_g": 8e-8},
    "dense_n64": {"a": 8e-14, "Y": 1.5e-13, "lambda_g": 5e-7},
}

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def read_timeseries(path: Path) -> tuple[list[str], list[dict[str, float]]]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        rows = [dict(zip(header, map(float, rec))) for rec in reader]
    return header, rows


def final_state(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: rows[-1][k] for k in FINAL_KEYS}


def check_structure(workload: Workload, out_dir: Path,
                    exit_code: int) -> tuple[list[str], list[dict]]:
    """Every way the run's artifacts break the structural part of the
    gate (empty when they pass), and the timeseries rows."""
    if exit_code not in (0, 1):
        return [f"exit code {exit_code}"], []
    ts_path = out_dir / "timeseries.csv"
    if not ts_path.is_file() or not (out_dir / "report.txt").is_file():
        return ["timeseries.csv or report.txt missing"], []
    header, rows = read_timeseries(ts_path)
    if tuple(header) != TIMESERIES_COLUMNS:
        return [f"timeseries columns {header}"], []
    problems = []
    if len(rows) != workload.n_states:
        problems.append(f"{len(rows)} rows, expected {workload.n_states}")
    if not rows:
        return problems, rows
    vol_limit = VOL_TOL * 4.0 * math.pi
    holo_tol = band_tol(workload.grid_n)
    for i, row in enumerate(rows):
        if not all(math.isfinite(row[k]) for k in TIMESERIES_COLUMNS):
            problems.append(f"row {i}: non-finite value")
        if not abs(row["volume"] - 4.0 * math.pi) <= vol_limit:
            problems.append(f"row {i}: volume {row['volume']!r}")
        if not row["class_residual"] <= CLASS_TOL:
            problems.append(
                f"row {i}: class_residual {row['class_residual']!r}")
        for k in ("holo_band_min", "holo_band_max"):
            if not abs(row[k] - 1.0) <= holo_tol:
                problems.append(f"row {i}: {k} {row[k]!r}")
    if abs(rows[-1]["t"] - workload.t_end) > 1e-12:
        problems.append(f"final t {rows[-1]['t']!r}")
    return problems, rows


def check_run(workload: Workload, variant: int, out_dir: Path,
              exit_code: int, reference: dict) -> list[str]:
    """Every way the run breaks the gate; empty when it passes."""
    problems, rows = check_structure(workload, out_dir, exit_code)
    if not rows:
        return problems
    ref = reference.get(workload.name, {}).get(str(variant))
    if ref is None:
        return problems + [f"no reference for variant {variant}"]
    got = final_state(rows)
    for k in FINAL_KEYS:
        tol = FINAL_TOL[workload.name][k]
        if not abs(got[k] - ref[k]) <= tol:
            problems.append(f"final {k} {got[k]!r} off reference {ref[k]!r} "
                            f"by more than {tol:g}")
    return problems
