"""The time-stepping kernels of the conformal flow.

One call advances (w, phi) in place by a whole recording segment, so the
per-step work is a handful of O(n) numpy passes: the flux Laplacian, the
Ricci potential by cumulative fluxes, and a few weighted averages, each
reading the constants the Grid built once.  At the grid sizes in use each
pass costs less than its call, so the stencils write into their outputs in
place.

Two kernels share that right-hand side.  advance_rk4 is classical RK4,
the cheapest order-4 step inside its stability bound.  advance_extrapolated
is extrapolated linearly implicit Euler (Deuflhard 1985; Hairer & Wanner,
Solving ODEs II, IV.9): its sub-steps solve with the tridiagonal Jacobian
J = diag(K) + (1/2) diag(e^{-2w}) L of dw/dt, so they are stable at any
step, and Aitken-Neville extrapolation over the sub-step counts 1..K_MAX
buys the accuracy back.  phi does not feed back into w; it takes explicit
sub-steps on the same stage values of w and goes through the same tableau.

phi's velocity u - a needs neither log m nor a's own normalization.  With
u = u0 + log m and a the e^{-u}-weighted mean of u, the weight e^{-u} dv is
a constant multiple of r = e^{-u0} e^{2w} q, so

    u - a = u0 - <u0>_r = u0 - sum(u0 r) / sum(r),

which changes phi at rounding level and w not at all.

The semi-discrete flow conserves the volume exactly; a time step keeps it
only up to its time error, so every step checks |V - 4 pi| against
vol_limit and stops early when it drifts outside or is not finite,
returning (steps_done, ok).
"""

from __future__ import annotations

import numpy as np

from ._lapack import dgttrf, dgttrs
from .geometry import laplace_round

# the RK4 kernel is numpy only; perfbench's provenance still reads this
HAVE_NUMBA = False

TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi
# deepest extrapolation row, and the bound on max |T_jj - T_j,j-1| over
# (w, phi) that accepts row j
K_MAX = 7
EXTRAP_TOL = 1e-13


def jacobian_bands(em2w, k, lap_bands):
    """(lower, diagonal, upper) bands of J = diag(K) + (1/2) diag(e^{-2w}) L,
    the Jacobian of dw/dt = (1/2)(1 - K) with K = e^{-2w} (1 - L w), for
    em2w = e^{-2w} and the bands Grid.lap_bands of L."""
    lo, di, up = lap_bands
    half = 0.5 * em2w
    return half[1:] * lo, k + half * di, half[:-1] * up


def flux_potential(grid, w, e2w):
    """(g, u0) for e2w = e^{2w}: g = e^{2w} - 1 + lap_round w, which is
    (1 - K) e^{2w}, and u0 the Ricci potential by cumulative flux, zero at
    the first node; along the last axis, so a stack of profiles gives one
    row each."""
    hs = grid.hs
    g = np.subtract(e2w, 1.0)
    g += laplace_round(grid, w)
    s = np.multiply(2.0, g)
    s *= hs
    s -= (s.sum(axis=-1, keepdims=True) / grid.hs_sum) * hs
    flux = np.cumsum(s[..., :-1], axis=-1)
    flux *= grid.h
    flux /= grid.sin_flux[1:-1]
    u0 = np.empty_like(w)
    u0[..., 0] = 0.0
    np.cumsum(flux, axis=-1, out=u0[..., 1:])
    return g, u0


def _rhs_numpy(grid, w):
    e2w = np.multiply(2.0, w)
    np.exp(e2w, out=e2w)
    g, u0 = flux_potential(grid, w, e2w)
    fw = 0.5 * g / e2w
    e2wq = e2w * grid.quad_weights
    r = np.negative(u0)
    np.exp(r, out=r)
    r *= e2wq
    fp = u0 - np.dot(u0, r) / r.sum()
    return fw, fp, TWO_PI * e2wq.sum()


def advance_rk4(w, phi, nsteps, dt, grid, vol_limit):
    """Advance (w, phi) by nsteps RK4 steps of size dt, in place."""
    for s in range(nsteps):
        k1w, k1p, vol = _rhs_numpy(grid, w)
        if not abs(vol - FOUR_PI) <= vol_limit:  # a NaN volume fails
            return s, False
        k2w, k2p, _ = _rhs_numpy(grid, w + 0.5 * dt * k1w)
        k3w, k3p, _ = _rhs_numpy(grid, w + 0.5 * dt * k2w)
        k4w, k4p, _ = _rhs_numpy(grid, w + dt * k3w)
        w += (dt / 6.0) * (k1w + 2.0 * (k2w + k3w) + k4w)
        phi += (dt / 6.0) * (k1p + 2.0 * (k2p + k3p) + k4p)
    return nsteps, True


def advance_extrapolated(w, phi, nsteps, H, grid, vol_limit):
    """Advance (w, phi) by nsteps extrapolated linearly implicit Euler steps
    of size H, in place.

    Row j of the tableau takes j sub-steps of H / j, each solving
    (I - (H/j) J) dw = (H/j) f_w with J at the step's start, while phi
    takes phi += (H/j) f_p.  Every row starts from the same f(w), so a row
    of depth k costs 1 + sum (j - 1) right-hand sides.  T_jj is accepted at
    the first j >= 2 within EXTRAP_TOL of T_j,j-1; a step that no row
    settles by K_MAX fails like a volume drift, with ok False.
    """
    n = w.shape[0]
    for s in range(nsteps):
        fw0, fp0, vol = _rhs_numpy(grid, w)
        if not abs(vol - FOUR_PI) <= vol_limit:  # a NaN volume fails
            return s, False
        lo, di, up = jacobian_bands(np.exp(-2.0 * w), 1.0 - 2.0 * fw0,
                                    grid.lap_bands)
        tab = []  # the last row of the tableau, T_j,1 .. T_j,j
        for j in range(1, K_MAX + 1):
            hj = H / j
            dl, d, du, du2, ipiv, info = dgttrf(-hj * lo, 1.0 - hj * di,
                                                -hj * up)
            if info != 0:
                return s, False
            y = np.concatenate((w, phi))
            yw, yp = y[:n], y[n:]
            fw, fp = fw0, fp0
            for i in range(j):
                if i:
                    fw, fp, _ = _rhs_numpy(grid, yw)
                yw += dgttrs(dl, d, du, du2, ipiv, hj * fw)[0]
                yp += hj * fp
            # Aitken-Neville on the h-expansion, row j over row j - 1 in
            # place: n_j / n_{j-k} - 1 = k / (j - k)
            t = y
            for k in range(1, j):
                tab[k - 1], t = t, t + (t - tab[k - 1]) * ((j - k) / k)
            tab.append(t)
            if j >= 2 and np.max(np.abs(t - tab[-2])) <= EXTRAP_TOL:
                w[:] = t[:n]
                phi[:] = t[n:]
                break
        else:
            return s, False
    return nsteps, True
