"""Spans around the calls into each krflow layer, installed from outside.

The layer functions are bound with `from ... import`, so each wrapper is
installed at the name its caller looks up, not only in the defining
module.  A span records its name, its parent span and its duration; self
times and the share of redundant solves are computed from the parents.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager

from workloads import CHECK_IDS

# (module, attribute the caller looks up, span name)
PATCHES = (
    ("krflow.flow", "advance_rk4", "kernels.advance_rk4"),
    ("krflow.harness", "run", "flow.run"),
    ("krflow.flow", "make_state", "flow.make_state"),
    ("krflow.flow", "solve_ricci_potential", "potential.solve"),
    ("krflow.potential", "solve_ricci_potential", "potential.solve"),
    ("krflow.spectral", "solve_mode", "spectral.solve_mode"),
    ("krflow.spectral", "weighted_spectrum", "spectral.weighted_spectrum"),
    ("krflow.harness", "evaluate_trajectory", "monitors.evaluate_trajectory"),
    ("krflow.harness", "write_timeseries", "harness.write_timeseries"),
    ("krflow.harness", "write_report", "harness.write_report"),
)

SOLVES = {"potential.solve", "spectral.weighted_spectrum",
          "spectral.solve_mode"}

# Per-layer metrics that count work; they must repeat exactly.
COUNTS = ("kernels.rhs_evals", "flow.step_rejects", "flow.make_state.calls",
          "potential.solve.calls", "spectral.solve_mode.calls",
          "harness.artifact_bytes")


class Tracer:
    """Spans of one run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.durations: list[float] = []
        self.stack: list[int] = []
        self.rhs_evals = 0
        self.step_rejects = 0

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.durations.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float) -> None:
        self.durations[idx] = time.perf_counter() - t0
        # an exception can leave a check-id span open above this one
        del self.stack[self.stack.index(idx):]

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0)
        return traced

    def wrap_rk4(self, name, fn):
        """advance_rk4 returns (steps_done, ok): 4 RHS evaluations per
        completed step, plus the first stage of the step that failed."""
        traced = self.wrap(name, fn)

        def counted(*args, **kwargs):
            done, ok = traced(*args, **kwargs)
            self.rhs_evals += 4 * done + (0 if ok else 1)
            self.step_rejects += 0 if ok else 1
            return done, ok
        return counted

    def check_spans(self, checks):
        """Yield the check ids with one span open while each is evaluated,
        so work done inline for a check is charged to it."""
        for cid in checks:
            idx = self._open(f"monitors.{cid}")
            t0 = time.perf_counter()
            try:
                yield cid
            finally:
                self._close(idx, t0)

    def wrap_evaluate(self, name, fn):
        traced = self.wrap(name, fn)

        def evaluate(traj, checks, *args, **kwargs):
            spans = self.check_spans(checks)
            try:
                return traced(traj, spans, *args, **kwargs)
            finally:
                spans.close()
        return evaluate

    # -- derived quantities ------------------------------------------------

    def calls(self, name: str) -> int:
        return self.names.count(name)

    def total(self, name: str) -> float:
        return sum(d for n, d in zip(self.names, self.durations) if n == name)

    def _nearest(self, idx: int, names) -> int:
        """Closest ancestor of span idx whose name is in names, or -1."""
        p = self.parents[idx]
        while p != -1 and self.names[p] not in names:
            p = self.parents[p]
        return p

    def self_time(self, name: str, excluded) -> float:
        """Time in spans called name minus the time of their outermost
        descendant spans whose names are in excluded."""
        stop = set(excluded) | {name}
        covered = 0.0
        for idx, child in enumerate(self.names):
            if child in excluded:
                anc = self._nearest(idx, stop)
                if anc != -1 and self.names[anc] == name:
                    covered += self.durations[idx]
        return self.total(name) - covered

    def calls_under(self, name: str, ancestor: str) -> int:
        return sum(1 for idx, n in enumerate(self.names)
                   if n == name and self._nearest(idx, {ancestor}) != -1)


@contextmanager
def installed(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            if span == "kernels.advance_rk4":
                wrapper = tracer.wrap_rk4(span, fn)
            elif span == "monitors.evaluate_trajectory":
                wrapper = tracer.wrap_evaluate(span, fn)
            else:
                wrapper = tracer.wrap(span, fn)
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def layer_metrics(tr: Tracer, artifact_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, keyed by metric name."""
    rk4_s = tr.total("kernels.advance_rk4")
    n_states = tr.calls("flow.make_state")
    pot = tr.calls("potential.solve")
    modes = tr.calls("spectral.solve_mode")
    m = {
        "kernels.rhs_evals": tr.rhs_evals,
        "kernels.us_per_rhs": 1e6 * rk4_s / max(tr.rhs_evals, 1),
        "kernels.advance_rk4.s": rk4_s,
        "flow.run.self_s": tr.self_time(
            "flow.run", {"kernels.advance_rk4", "flow.make_state"}),
        "flow.step_rejects": tr.step_rejects,
        "flow.make_state.calls": n_states,
        "flow.make_state.self_s": tr.self_time("flow.make_state", SOLVES),
        "potential.solve.calls": pot,
        "potential.solve.us_per_call":
            1e6 * tr.total("potential.solve") / max(pot, 1),
        "potential.solve.redundant_frac": (pot - n_states) / max(pot, 1),
        "spectral.solve_mode.calls": modes,
        "spectral.solve_mode.ms_per_call":
            1e3 * tr.total("spectral.solve_mode") / max(modes, 1),
        "spectral.solve_mode.redundant_frac":
            (modes - tr.calls_under("spectral.solve_mode", "flow.make_state"))
            / max(modes, 1),
        "spectral.weighted_spectrum.self_s": tr.self_time(
            "spectral.weighted_spectrum", {"spectral.solve_mode"}),
        "monitors.evaluate_trajectory.self_s": tr.self_time(
            "monitors.evaluate_trajectory", SOLVES),
    }
    for cid in CHECK_IDS:
        m[f"monitors.{cid}.s"] = tr.total(f"monitors.{cid}")
    m["harness.write_timeseries.s"] = tr.total("harness.write_timeseries")
    m["harness.write_report.s"] = tr.total("harness.write_report")
    m["harness.artifact_bytes"] = artifact_bytes
    return m


def combine(runs: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Median of each metric over traced runs, and every count that did
    not repeat exactly between them."""
    merged = {k: runs[0][k] if k in COUNTS else
              statistics.median(r[k] for r in runs) for k in runs[0]}
    unstable = [k for k in COUNTS if len({r[k] for r in runs}) != 1]
    return merged, unstable
