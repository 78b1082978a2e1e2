"""Inner time-stepping kernels for the conformal flow.

The classical RK4 stage work is a handful of O(n) passes (curvature,
potential solve by cumulative fluxes, weighted averages), which is far too
little arithmetic to amortize per-step Python overhead on long runs.  The
kernels below advance whole recording segments in one call and are
compiled with numba when it is importable; the pure-numpy twin implements
the identical algorithm as a fallback.

Both advance (w, phi) in place for nsteps of size dt and stop early when
the volume drifts outside vol_limit, returning (steps_done, ok).
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        return wrap


TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi


@njit(cache=True)
def _rhs_jit(w, h, q, sfi, hs, hs_sum, fw, fp, e2w, lap, u0, emu):
    n = w.size
    for j in range(n):
        e2w[j] = np.exp(2.0 * w[j])
    prev = 0.0
    for j in range(n - 1):
        flx = sfi[j] * (w[j + 1] - w[j]) / h
        lap[j] = (flx - prev) / hs[j]
        prev = flx
    lap[n - 1] = -prev / hs[n - 1]
    # w-velocity 0.5 (1 - K) with K e^{2w} = 1 - lap(w)
    ssum = 0.0
    for j in range(n):
        g = e2w[j] - 1.0 + lap[j]
        fw[j] = 0.5 * g / e2w[j]
        ssum += 2.0 * g * hs[j]
    mu = ssum / hs_sum
    # potential by cumulative flux, zero-based at the first node
    F = 0.0
    acc = 0.0
    u0[0] = 0.0
    for j in range(n - 1):
        F += (2.0 * (e2w[j] - 1.0 + lap[j]) - mu) * hs[j]
        acc += h * F / sfi[j]
        u0[j + 1] = acc
    vol = 0.0
    msum = 0.0
    for j in range(n):
        emu[j] = np.exp(-u0[j])
        vol += e2w[j] * q[j]
        msum += emu[j] * e2w[j] * q[j]
    m = msum / vol
    logm = np.log(m)
    asum = 0.0
    for j in range(n):
        asum += (u0[j] + logm) * emu[j] * e2w[j] * q[j]
    a = asum / (vol * m)
    for j in range(n):
        fp[j] = u0[j] + logm - a
    return TWO_PI * vol


@njit(cache=True)
def _advance_rk4_jit(w, phi, nsteps, dt, h, q, sfi, hs, hs_sum, vol_limit):
    n = w.size
    k1w = np.empty(n); k2w = np.empty(n); k3w = np.empty(n); k4w = np.empty(n)
    k1p = np.empty(n); k2p = np.empty(n); k3p = np.empty(n); k4p = np.empty(n)
    wt = np.empty(n)
    e2w = np.empty(n); lap = np.empty(n); u0 = np.empty(n); emu = np.empty(n)
    for s in range(nsteps):
        vol = _rhs_jit(w, h, q, sfi, hs, hs_sum, k1w, k1p, e2w, lap, u0, emu)
        if np.abs(vol - FOUR_PI) > vol_limit:
            return s, False
        for j in range(n):
            wt[j] = w[j] + 0.5 * dt * k1w[j]
        _rhs_jit(wt, h, q, sfi, hs, hs_sum, k2w, k2p, e2w, lap, u0, emu)
        for j in range(n):
            wt[j] = w[j] + 0.5 * dt * k2w[j]
        _rhs_jit(wt, h, q, sfi, hs, hs_sum, k3w, k3p, e2w, lap, u0, emu)
        for j in range(n):
            wt[j] = w[j] + dt * k3w[j]
        _rhs_jit(wt, h, q, sfi, hs, hs_sum, k4w, k4p, e2w, lap, u0, emu)
        sixth = dt / 6.0
        for j in range(n):
            w[j] += sixth * (k1w[j] + 2.0 * (k2w[j] + k3w[j]) + k4w[j])
            phi[j] += sixth * (k1p[j] + 2.0 * (k2p[j] + k3p[j]) + k4p[j])
    return nsteps, True


def flux_potential(w, h, sfi, hs, hs_sum):
    """(e2w, g, u0) on raw arrays: g = e^{2w} - 1 + lap_round w, which is
    (1 - K) e^{2w}, and u0 the Ricci potential by cumulative flux, zero at
    the first node."""
    e2w = np.exp(2.0 * w)
    flx = sfi * np.diff(w) / h
    lap = np.empty_like(w)
    lap[0] = flx[0]
    lap[1:-1] = np.diff(flx)
    lap[-1] = -flx[-1]
    lap /= hs
    g = e2w - 1.0 + lap
    s = 2.0 * g * hs
    s -= (s.sum() / hs_sum) * hs
    flux = np.cumsum(s)[:-1]
    u0 = np.concatenate(([0.0], np.cumsum(h * flux / sfi)))
    return e2w, g, u0


def _rhs_numpy(w, h, q, sfi, hs, hs_sum):
    e2w, g, u0 = flux_potential(w, h, sfi, hs, hs_sum)
    fw = 0.5 * g / e2w
    emu = np.exp(-u0)
    vol = np.sum(e2w * q)
    m = np.sum(emu * e2w * q) / vol
    logm = np.log(m)
    a = np.sum((u0 + logm) * emu * e2w * q) / (vol * m)
    fp = u0 + logm - a
    return fw, fp, TWO_PI * vol


def _advance_rk4_numpy(w, phi, nsteps, dt, h, q, sfi, hs, hs_sum, vol_limit):
    for s in range(nsteps):
        k1w, k1p, vol = _rhs_numpy(w, h, q, sfi, hs, hs_sum)
        if abs(vol - FOUR_PI) > vol_limit:
            return s, False
        k2w, k2p, _ = _rhs_numpy(w + 0.5 * dt * k1w, h, q, sfi, hs, hs_sum)
        k3w, k3p, _ = _rhs_numpy(w + 0.5 * dt * k2w, h, q, sfi, hs, hs_sum)
        k4w, k4p, _ = _rhs_numpy(w + dt * k3w, h, q, sfi, hs, hs_sum)
        w += (dt / 6.0) * (k1w + 2.0 * (k2w + k3w) + k4w)
        phi += (dt / 6.0) * (k1p + 2.0 * (k2p + k3p) + k4p)
    return nsteps, True


def advance_rk4(w, phi, nsteps, dt, grid, vol_limit):
    """Advance (w, phi) by nsteps RK4 steps of size dt, in place."""
    args = (w, phi, nsteps, dt, grid.h, grid.quad_weights,
            grid.sin_flux[1:-1], grid.h * grid.sin_nodes,
            float(np.sum(grid.h * grid.sin_nodes)), vol_limit)
    if HAVE_NUMBA:
        return _advance_rk4_jit(*args)
    return _advance_rk4_numpy(*args)
