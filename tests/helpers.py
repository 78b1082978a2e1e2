"""Readers the tests share that the package itself does not need."""

import math

import numpy as np

from krflow.geometry import laplace_round
from krflow.potential import weighted_mean
from krflow.spectral import EigenData, Spectrum, pair_data


def eigen_data(spectrum: Spectrum, m: int, i: int) -> EigenData:
    """EigenData of the i-th pair of mode m."""
    return pair_data(spectrum.metric, m, float(spectrum.vals[m, i]),
                     spectrum.vecs[m, :, i])


def potential_residuals(u, metric) -> tuple[float, float]:
    """The residuals of a solved potential u of one metric: of the trace
    equation lap_round u = 2 (1 - K) e^{2w}, relative to max(1, sup
    e^{2w}), and of the normalization (1/V) int e^{-u} dv = 1."""
    e2w = metric.e2w
    rhs = 2.0 * (e2w - 1.0 + laplace_round(metric.grid, metric.w))
    pde = (np.max(np.abs(laplace_round(metric.grid, u.values) - rhs))
           / max(1.0, np.max(np.abs(e2w))))
    return float(pde), float(abs(weighted_mean(1.0, u.emu, metric) - 1.0))


def convergence_order(hs, residuals, floor: float = 1e-11):
    """Measured order between refinement rungs with a rounding floor.

    Residuals that sit below the floor at every rung count as converged
    (order reported as inf): identities preserved structurally by the
    scheme bottom out at rounding instead of shrinking smoothly.
    """
    hs = np.asarray(hs, dtype=float)
    rs = np.asarray(residuals, dtype=float)
    if np.all(rs <= floor):
        return math.inf
    orders = []
    for i in range(len(hs) - 1):
        if rs[i] <= floor or rs[i + 1] <= floor:
            continue
        orders.append(math.log(rs[i] / rs[i + 1])
                      / math.log(hs[i] / hs[i + 1]))
    if not orders:
        # dropped below the floor within one rung: faster than measurable
        return math.inf
    return float(min(orders))
