"""The RK4 time-stepping kernel of the conformal flow, on raw arrays.

One call advances (w, phi) in place by a whole recording segment, so the
per-step work is a handful of O(n) numpy passes: the flux Laplacian, the
Ricci potential by cumulative fluxes, and a few weighted averages.  At the
grid sizes in use each pass costs less than its call, so the stencils
write into their outputs in place.

phi's velocity u - a needs neither log m nor a's own normalization.  With
u = u0 + log m and a the e^{-u}-weighted mean of u, the weight e^{-u} dv is
a constant multiple of r = e^{-u0} e^{2w} q, so

    u - a = u0 - <u0>_r = u0 - sum(u0 r) / sum(r),

which changes phi at rounding level and w not at all.

The semi-discrete flow conserves the volume exactly; RK4 keeps it only up
to its time error, so every step checks |V - 4 pi| against vol_limit and
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
    e2w = np.multiply(2.0, w)
    np.exp(e2w, out=e2w)
    g = np.subtract(e2w, 1.0)
    g += flux_laplacian(w, h, sfi, hs)
    s = np.multiply(2.0, g)
    s *= hs
    s -= (s.sum() / hs_sum) * hs
    flux = np.cumsum(s[:-1])
    flux *= h
    flux /= sfi
    u0 = np.empty_like(w)
    u0[0] = 0.0
    np.cumsum(flux, out=u0[1:])
    return e2w, g, u0


def _rhs_numpy(w, h, q, sfi, hs, hs_sum):
    e2w, g, u0 = flux_potential(w, h, sfi, hs, hs_sum)
    fw = 0.5 * g / e2w
    e2wq = e2w * q
    r = np.negative(u0)
    np.exp(r, out=r)
    r *= e2wq
    fp = u0 - np.dot(u0, r) / r.sum()
    return fw, fp, TWO_PI * e2wq.sum()


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
