"""Readers the tests share that the package itself does not need, and the
plain reference kernels the flow's kernels are checked against."""

import math

import numpy as np

from krflow import _kernels
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


def flux_laplacian_ref(f, h, sfi, hs):
    flux = sfi * np.diff(f) / h
    out = np.empty_like(f)
    out[0] = flux[0]
    out[1:-1] = np.diff(flux)
    out[-1] = -flux[-1]
    out /= hs
    return out


def flux_potential_ref(w, e2w, h, sfi, hs, hs_sum):
    g = e2w - 1.0 + flux_laplacian_ref(w, h, sfi, hs)
    s = 2.0 * g * hs
    s -= (s.sum() / hs_sum) * hs
    flux = np.cumsum(s)[:-1]
    u0 = np.concatenate(([0.0], np.cumsum(h * flux / sfi)))
    return g, u0


def rhs_ref(w, h, q, sfi, hs, hs_sum):
    # phi's velocity u - a spelled out: u = u0 + log m, a its e^{-u} mean
    e2w = np.exp(2.0 * w)
    g, u0 = flux_potential_ref(w, e2w, h, sfi, hs, hs_sum)
    fw = 0.5 * g / e2w
    emu = np.exp(-u0)
    vol = np.sum(e2w * q)
    m = np.sum(emu * e2w * q) / vol
    logm = np.log(m)
    a = np.sum((u0 + logm) * emu * e2w * q) / (vol * m)
    fp = u0 + logm - a
    return fw, fp, 2 * np.pi * vol


def rk4_ref(w, phi, nsteps, dt, args):
    for _ in range(nsteps):
        k1w, k1p, _ = rhs_ref(w, *args)
        k2w, k2p, _ = rhs_ref(w + 0.5 * dt * k1w, *args)
        k3w, k3p, _ = rhs_ref(w + 0.5 * dt * k2w, *args)
        k4w, k4p, _ = rhs_ref(w + dt * k3w, *args)
        w += (dt / 6.0) * (k1w + 2.0 * (k2w + k3w) + k4w)
        phi += (dt / 6.0) * (k1p + 2.0 * (k2p + k3p) + k4p)


def kernel_args(grid):
    hs = grid.h * grid.sin_nodes
    return (grid.h, grid.quad_weights, grid.sin_flux[1:-1], hs,
            float(np.sum(hs)))


def extrapolated_ref(w, phi, nsteps, H, grid, vol_limit):
    """_kernels.advance_extrapolated as it was before its rows were stacked:
    each row of the tableau factors and steps alone, in turn, and a zero
    pivot ends the step at the row that meets it.  Returns (steps_done,
    ok).  It reads the kernel's routines and constants from the module at
    each call, so a patch of any of them reaches both."""
    n = w.shape[0]
    for s in range(nsteps):
        fw0, fp0, vol = _kernels._rhs_numpy(grid, w)
        if not abs(vol - _kernels.FOUR_PI) <= vol_limit:
            return s, False
        lo, di, up = _kernels.jacobian_bands(np.exp(-2.0 * w), 1.0 - 2.0 * fw0,
                                             grid.lap_bands)
        tab = []
        for j in range(1, _kernels.K_MAX + 1):
            hj = H / j
            dl, d, du, du2, ipiv, info = _kernels.dgttrf(
                -hj * lo, 1.0 - hj * di, -hj * up)
            if info != 0:
                return s, False
            y = np.concatenate((w, phi))
            yw, yp = y[:n], y[n:]
            fw, fp = fw0, fp0
            for i in range(j):
                if i:
                    fw, fp, _ = _kernels._rhs_numpy(grid, yw)
                yw += _kernels.dgttrs(dl, d, du, du2, ipiv, hj * fw)[0]
                yp += hj * fp
            t = y
            for k in range(1, j):
                tab[k - 1], t = t, t + (t - tab[k - 1]) * ((j - k) / k)
            tab.append(t)
            if (j >= 2 and np.max(np.abs(t - tab[-2]))
                    <= _kernels.EXTRAP_TOL):
                w[:] = t[:n]
                phi[:] = t[n:]
                break
        else:
            return s, False
    return nsteps, True
