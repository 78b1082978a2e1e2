"""The benchmark's workloads: fixed `krflow run` specs made from a seed.

The seed selects one of N_VARIANTS input variants (seed mod N_VARIANTS),
so that every seed maps to inputs whose final state has a stored
reference in reference.json.  The program sees only the spec text.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

N_VARIANTS = 16

# Every check id of the monitor suite; all workloads run all of them.
CHECK_IDS = (
    "weighted_poincare", "c0_vs_y", "y_decay", "c2_estimate",
    "z_derivative", "gradnorm_evolution", "eigenvalue_derivative",
    "bootstrap", "short_time", "kahler_class", "log_det", "bochner",
    "gradient_estimate")

# Tolerances written into every spec, so the gate and the program use the
# same values: the relative volume tolerance and the class-identity bound.
VOL_TOL = 1e-8
CLASS_TOL = 1e-6


def band_tol(grid_n: int) -> float:
    """Half-width of the holomorphic band around 1: 50 h^2, h = pi / n."""
    return 50.0 * (math.pi / grid_n) ** 2


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    grid_n: int
    t_end: float
    record_dt: float
    why: str
    l: int = 0

    @property
    def n_states(self) -> int:
        """Recorded states, t = 0 included, of a run that does not stop
        early."""
        return round(self.t_end / self.record_dt) + 1

    def scenario_lines(self, variant: int) -> list[str]:
        if self.scenario == "multi_mode":
            return [f"seed = {variant}", "decay_rate = 2.0",
                    "amplitude = 0.005"]
        # +-10% amplitude jitter around eps = 1e-2
        jitter = 2.0 * random.Random(variant).random() - 1.0
        return [f"l = {self.l}", f"eps = {1e-2 * (1.0 + 0.1 * jitter):.12g}"]

    def spec_text(self, variant: int, output_dir: str) -> str:
        lines = [f"scenario = {self.scenario}",
                 f"grid_n = {self.grid_n}",
                 f"output_dir = {output_dir}",
                 "", "[scenario]", *self.scenario_lines(variant),
                 "", "[flow]",
                 f"t_end = {self.t_end!r}",
                 f"record_dt = {self.record_dt!r}",
                 f"vol_tol = {VOL_TOL!r}",
                 f"class_tol = {CLASS_TOL!r}",
                 f"band_tol = {band_tol(self.grid_n)!r}",
                 "", "[monitors]",
                 "checks = " + ", ".join(CHECK_IDS)]
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload("flow_n256", "legendre_bump", 256, 1.0, 0.02,
             "the canonical trajectory: RK4 is ~90% of wall, so it shows "
             "kernel changes", l=2),
    Workload("spectrum_n1024", "legendre_bump", 1024, 0.002, 0.0005,
             "few states on a fine grid: the banded eigensolve is ~95% of "
             "wall", l=3),
    Workload("dense_n64", "multi_mode", 64, 1.0, 0.001,
             "1001 states on a coarse grid: per-call overhead of the "
             "per-state solves, monitors and writers dominates"),
)}


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS
