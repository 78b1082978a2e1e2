"""The RK4 time-stepping kernel of the conformal flow, on raw arrays.

One call advances (w, phi) in place by a whole recording segment, so the
per-step work is a handful of O(n) numpy passes: the flux Laplacian, the
Ricci potential by cumulative fluxes, and a few weighted averages.  The
semi-discrete flow conserves the volume exactly; RK4 keeps it only up to
its time error, so every step checks |V - 4 pi| against vol_limit and
stops early when it drifts outside, returning (steps_done, ok).
"""

from __future__ import annotations

import numpy as np

from .geometry import flux_laplacian

# the RK4 kernel is numpy only; perfbench's provenance still reads this
HAVE_NUMBA = False

TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi


def flux_potential(w, h, sfi, hs, hs_sum):
    """(e2w, g, u0) on raw arrays: g = e^{2w} - 1 + lap_round w, which is
    (1 - K) e^{2w}, and u0 the Ricci potential by cumulative flux, zero at
    the first node."""
    e2w = np.exp(2.0 * w)
    g = e2w - 1.0 + flux_laplacian(w, h, sfi, hs)
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


def advance_rk4(w, phi, nsteps, dt, grid, vol_limit):
    """Advance (w, phi) by nsteps RK4 steps of size dt, in place."""
    h, q = grid.h, grid.quad_weights
    sfi, hs = grid.sin_flux[1:-1], grid.h * grid.sin_nodes
    hs_sum = float(np.sum(hs))
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
