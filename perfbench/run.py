#!/usr/bin/env python3
"""Benchmark of `krflow run` on fixed workloads, end to end and per layer.

    python3 perfbench/run.py --workload flow_n256 --seed 7 --seconds 40 \
        --trace 0

Each run calls `krflow.cli.main(["run", <spec>])` in-process, so spec
parsing, the flow, the monitors, the artifact writers and the exit-code
mapping are all timed.  The load is a closed loop with one client: one run
at a time in this single process, with one BLAS thread whatever the
environment says.

A run repeats the workload while one more repetition still fits in
--seconds, counted from the start of the process.  --trace 0 reports the
end-to-end metrics: the median wall time of a warm run, the median set-up
time over fresh interpreters (import krflow, load_spec, initial_metric) and
the peak resident set of this process.  Both times are scaled to a
reference machine speed by a calibration load run after every sample
(calibrate.py); the raw times are printed as well.  --trace 1 alternates
traced and untraced runs and reports the per-layer metrics of the traced
ones (spans.py); the tracing overhead is printed.

Every run's artifacts pass through the correctness gate (gate.py).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the sample counts,
fail_frac, the gate result and the provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")  # relative to ROOT, so specs are path-free

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_SAMPLES = 7  # at least
MIN_RUNS = 3  # timed runs of --trace 0, even past --seconds

# Fresh-interpreter set-up: the work a user pays before the first step.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import krflow
from krflow.harness import initial_metric
initial_metric(krflow.load_spec({spec!r}))
print(repr(time.perf_counter() - t0))
"""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv, bench: dict):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Runs one workload variant, gates each run and keeps the tallies."""

    def __init__(self, workload, variant: int, reference: dict):
        self.workload = workload
        self.variant = variant
        self.reference = reference
        self.spec_path, self.out_dir = self._write_spec(workload)
        self.attempted = 0
        self.failures: list[str] = []
        self.exit_codes: dict[int, int] = {}
        self.digests: set[str] = set()
        self.artifact_sizes: set[int] = set()

    def _write_spec(self, workload) -> tuple[Path, Path]:
        WORK.mkdir(exist_ok=True)
        spec_path = WORK / f"{workload.name}.cfg"
        out_dir = WORK / workload.name
        spec_path.write_text(
            workload.spec_text(self.variant, out_dir.as_posix()))
        return spec_path, out_dir

    def execute(self, spec_path: Path, out_dir: Path
                ) -> tuple[float, int | None]:
        """One `krflow run` of a spec: its wall time and exit code, or
        None for the code when an exception escaped."""
        import krflow.cli
        for name in ("timeseries.csv", "report.txt"):
            (out_dir / name).unlink(missing_ok=True)
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = krflow.cli.main(["run", str(spec_path)])
        except Exception:
            code = None
            sink.write(traceback.format_exc(limit=3))
        wall = time.perf_counter() - t0
        self.last_output = sink.getvalue()
        return wall, code

    def _tally(self, code: int | None, problems: list[str]) -> bool:
        self.attempted += 1
        if code is None:
            self.failures.append("exception: " + self.last_output)
            return False
        self.exit_codes[code] = self.exit_codes.get(code, 0) + 1
        if problems:
            self.failures.append("; ".join(problems[:5]))
            return False
        return True

    def warm_up(self) -> None:
        """Run the same spec cut to three recorded states, so that lazy
        imports, LAPACK workspaces and allocator pools are ready before
        timing.  Its artifacts pass the structural part of the gate."""
        from gate import check_structure
        short = dataclasses.replace(
            self.workload, name=self.workload.name + "_warmup",
            t_end=2 * self.workload.record_dt)
        spec_path, out_dir = self._write_spec(short)
        _, code = self.execute(spec_path, out_dir)
        problems = check_structure(short, out_dir, code)[0] \
            if code is not None else []
        self._tally(code, problems)

    def run_once(self) -> tuple[float, int]:
        """One gated run; returns its wall time and artifact bytes."""
        from gate import check_run
        wall, code = self.execute(self.spec_path, self.out_dir)
        problems = check_run(self.workload, self.variant, self.out_dir, code,
                             self.reference) if code is not None else []
        if not self._tally(code, problems):
            return wall, 0
        ts_path = self.out_dir / "timeseries.csv"
        self.digests.add(hashlib.sha256(ts_path.read_bytes()).hexdigest())
        size = sum(f.stat().st_size for f in self.out_dir.iterdir())
        self.artifact_sizes.add(size)
        return wall, size

    def setup_time(self) -> float:
        """Set-up time of the workload in a fresh interpreter."""
        code = SETUP_CODE.format(src="src", spec=str(self.spec_path))
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        return float(out.stdout.strip().splitlines()[-1])


def measure(runner: Runner, deadline: float) -> dict:
    """Timed runs, each followed by a set-up sample, while one more round
    fits before the deadline, then set-up samples up to SETUP_SAMPLES.  The
    calibration load runs after every sample, and each sample is scaled by
    the two calibrations around it (calibrate.py)."""
    from calibrate import REFERENCE_S, calibrate, scale
    runner.warm_up()
    cals = [calibrate()]

    def sample(fn) -> tuple[float, float]:
        raw = fn()
        cals.append(calibrate())
        return raw, raw * scale(cals[-2:])

    walls, setups, rounds, setup_rounds = [], [], [], []
    while True:
        t0 = time.perf_counter()
        walls.append(sample(lambda: runner.run_once()[0]))
        t1 = time.perf_counter()
        setups.append(sample(runner.setup_time))
        t2 = time.perf_counter()
        rounds.append(t2 - t0)
        setup_rounds.append(t2 - t1)
        tail = max(0, SETUP_SAMPLES - len(setups) - 1) * statistics.median(
            setup_rounds)
        if len(walls) >= MIN_RUNS and (deadline - t2 < statistics.median(
                rounds) + tail):
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(sample(runner.setup_time))

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw_wall = statistics.median(r for r, _ in walls)
    raw_setup = statistics.median(r for r, _ in setups)
    return {
        "metrics": {
            "wall_s": statistics.median(s for _, s in walls),
            "setup_s": statistics.median(s for _, s in setups),
            "peak_rss_mb": rss_mb,
        },
        "samples": {"wall_s scaled": [s for _, s in walls],
                    "wall_s raw": [r for r, _ in walls],
                    "setup_s scaled": [s for _, s in setups],
                    "setup_s raw": [r for r, _ in setups],
                    "calibration": [sum(c.values()) for c in cals]},
        "summary": [
            f"raw medians: wall_s = {raw_wall:.6g} s, setup_s = "
            f"{raw_setup:.6g} s",
            f"calibration over {len(cals)} loads: " + ", ".join(
                f"{p} median {statistics.median(c[p] for c in cals):.4f} s "
                f"(reference {ref:g} s)" for p, ref in REFERENCE_S.items())],
        "unstable_counts": [],
    }


def measure_traced(runner: Runner, deadline: float) -> dict:
    """Traced and untraced runs in turn, at least two traced runs and one
    untraced, while one more run fits before the deadline."""
    from spans import Tracer, combine, installed, layer_metrics
    runner.warm_up()
    traced, traced_walls, untraced_walls = [], [], []
    while (len(traced) < 2 or not untraced_walls
           or deadline - time.perf_counter() > statistics.median(
               traced_walls + untraced_walls)):
        if len(traced) <= len(untraced_walls):
            with installed(Tracer()) as tracer:
                wall, size = runner.run_once()
            traced.append(layer_metrics(tracer, size))
            traced_walls.append(wall)
        else:
            untraced_walls.append(runner.run_once()[0])
    metrics, unstable = combine(traced)
    overhead = statistics.median(traced_walls) - statistics.median(
        untraced_walls)
    return {
        "metrics": metrics,
        "samples": {"traced_wall_s": traced_walls,
                    "untraced_wall_s": untraced_walls},
        "summary": [f"trace overhead = {overhead:+.4f} s (median traced minus "
                    "median untraced wall)",
                    f"flow.step_rejects = {metrics['flow.step_rejects']}"],
        "unstable_counts": unstable,
    }


def provenance(seed: int, variant: int) -> dict:
    import numpy
    import scipy
    from krflow import _kernels
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "backend": "numba" if _kernels.HAVE_NUMBA else "numpy",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        **{v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "variant": variant,
    }


def import_krflow() -> bool:
    """Import krflow from this checkout's sources, and nowhere else."""
    if not (SRC / "krflow" / "__init__.py").is_file():
        print(f"perfbench: no krflow sources under {SRC}", file=sys.stderr)
        return False
    os.chdir(ROOT)
    os.environ.pop("KRFLOW_WORKERS", None)
    # One BLAS thread, so that every run measures the same configuration:
    # a second OpenBLAS thread spins between calls and slows the main
    # thread (NOTES.md).
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import krflow
    if Path(krflow.__file__).resolve().parent != SRC / "krflow":
        print(f"perfbench: imported krflow from {krflow.__file__}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    bench = load_benchmark()
    args = parse_args(argv, bench)
    if not import_krflow():
        return 2
    from gate import load_reference
    from workloads import WORKLOADS, variant_of

    workload = WORKLOADS[args.workload]
    variant = variant_of(args.seed)
    runner = Runner(workload, variant, load_reference())
    deadline = STARTED + args.seconds
    if args.trace:
        result = measure_traced(runner, deadline)
        declared = bench["per_layer"]
    else:
        result = measure(runner, deadline)
        declared = bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    unstable = result["unstable_counts"]
    if len(runner.digests) > 1:
        unstable.append("timeseries.csv sha256")
    if len(runner.artifact_sizes) > 1:
        unstable.append("harness.artifact_bytes")
    print(f"workload {workload.name} (trace {args.trace})")
    for k, samples in result["samples"].items():
        print(f"  samples {k}: {len(samples)} "
              f"[{', '.join(f'{s:.4f}' for s in samples)}]")
    for k, unit in units.items():
        print(f"  {k} = {result['metrics'][k]:.6g} {unit}")
    for line in result["summary"]:
        print(f"  {line}")
    failed = len(runner.failures)
    print(f"  fail_frac = {failed}/{runner.attempted} = "
          f"{failed / runner.attempted:.3g} ratio, exit codes "
          f"{dict(sorted(runner.exit_codes.items()))}")
    print(f"  correctness gate: {'FAIL' if runner.failures else 'PASS'}")
    for msg in runner.failures[:3]:
        print(f"    {msg.strip()}")
    if unstable:
        print(f"  counts that did not repeat: {unstable}")
    print(f"  run took {time.perf_counter() - STARTED:.1f} s of "
          f"{args.seconds:g}")
    print("  provenance: " + ", ".join(
        f"{k}={v}" for k, v in provenance(args.seed, variant).items()))
    print(json.dumps({
        "correct": failed == 0 and not unstable,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": result["metrics"][k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
