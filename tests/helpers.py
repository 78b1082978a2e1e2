"""Readers the tests share that the package itself does not need."""

import math

import numpy as np

from krflow.spectral import EigenData, Spectrum, pair_data


def eigen_data(spectrum: Spectrum, m: int, i: int) -> EigenData:
    """EigenData of the i-th pair of mode m."""
    return pair_data(spectrum.metric, m, float(spectrum.vals[m, i]),
                     spectrum.vecs[m, :, i])


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
