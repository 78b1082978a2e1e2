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

The rows of one macro step all start from the same state, so they advance
as one stack: the right-hand side acts along the last axis, one dgttrf
factors every row's tridiagonal system side by side, and each sub-step
makes one right-hand side and one dgttrs over the rows still stepping.  A
step starts with the rows up to the depth that settled the last one and
adds deeper rows only while none has settled.  That depth is a hint that
changes no bit: the rows are extrapolated and checked in the same order as
one by one, and each row's numbers are the same as when it steps alone.

phi's velocity u - a needs neither log m nor a's own normalization.  With
u = u0 + log m and a the e^{-u}-weighted mean of u, the weight e^{-u} dv is
a constant multiple of r = e^{-u0} e^{2w} q, so

    u - a = u0 - <u0>_r = u0 - sum(u0 r) / sum(r),

which changes phi at rounding level and w not at all.

The semi-discrete flow conserves the volume exactly; a time step keeps it
only up to its time error, so every step checks |V - 4 pi| against
vol_limit and stops early when it drifts outside or is not finite,
returning (steps_done, ok); advance_extrapolated returns its depth too.
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
    # np.add.reduce and np.add.accumulate are ndarray.sum and np.cumsum
    # without their Python wrappers, a large part of a pass at n = 64
    s -= (np.add.reduce(s, axis=-1, keepdims=True) / grid.hs_sum) * hs
    flux = np.add.accumulate(s[..., :-1], axis=-1)
    flux *= grid.h
    flux /= grid.sin_flux[1:-1]
    u0 = np.empty_like(w)
    u0[..., 0] = 0.0
    np.add.accumulate(flux, axis=-1, out=u0[..., 1:])
    return g, u0


def _rhs_numpy(grid, w):
    """(f_w, f_phi, V) of the flow at w, along the last axis like
    flux_potential: a (rows, n) stack gives one row, and one volume, per
    profile."""
    e2w = np.multiply(2.0, w)
    np.exp(e2w, out=e2w)
    g, u0 = flux_potential(grid, w, e2w)
    fw = np.multiply(0.5, g)
    fw /= e2w
    e2wq = e2w * grid.quad_weights
    r = np.negative(u0)
    np.exp(r, out=r)
    r *= e2wq
    # vecdot is np.dot row by row, the same BLAS sum
    fp = u0 - (np.vecdot(u0, r) / np.add.reduce(r, axis=-1))[..., None]
    return fw, fp, TWO_PI * np.add.reduce(e2wq, axis=-1)


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


def advance_extrapolated(w, phi, nsteps, H, grid, vol_limit, depth=2):
    """Advance (w, phi) by nsteps extrapolated linearly implicit Euler steps
    of size H, in place; returns (steps_done, ok, depth).

    Row j of the tableau takes j sub-steps of H / j, each solving
    (I - (H/j) J) dw = (H/j) f_w with J at the step's start, while phi
    takes phi += (H/j) f_p.  Every row starts from the same f(w), so a row
    of depth k costs 1 + sum (j - 1) right-hand sides.  T_jj is accepted at
    the first j >= 2 within EXTRAP_TOL of T_j,j-1; a step that no row
    settles by K_MAX fails like a volume drift, with ok False.

    A step first advances rows 1..depth as one stack (_stacked_rows), and
    adds one row at a time past it only while no row has settled.  The
    depth returned is the row that settled the last step (the one given
    when none did), for the next step and the next call to start from.
    It is a hint only: the rows settle in the same order, and the accepted
    T_jj is bitwise the row-by-row one, whatever depth a step starts at.
    """
    n = w.shape[0]
    for s in range(nsteps):
        fw0, fp0, vol = _rhs_numpy(grid, w)
        if not abs(vol - FOUR_PI) <= vol_limit:  # a NaN volume fails
            return s, False, depth
        bands = jacobian_bands(np.exp(-2.0 * w), 1.0 - 2.0 * fw0,
                               grid.lap_bands)
        tab = []  # the last row of the tableau, T_j,1 .. T_j,j
        top = min(depth, K_MAX)
        while not _extrapolate(tab, _stacked_rows(
                grid, w, phi, fw0, fp0, bands, H, range(top, len(tab), -1))):
            # no row settled: one row deeper, unless a zero pivot cut the
            # stack short or the tableau is full
            if len(tab) < top or top == K_MAX:
                return s, False, depth
            top += 1
        w[:] = tab[-1][:n]
        phi[:] = tab[-1][n:]
        depth = len(tab)
    return nsteps, True, depth


def _extrapolate(tab, rows):
    """Extend the tableau's last row tab, T_j,1 .. T_j,j, in place by the
    rows' T_j+1,1, ... in turn, and stop at the first row that settles.
    Returns whether one did; its T_jj is then tab[-1]."""
    for t in rows:
        # Aitken-Neville on the h-expansion, row j over row j - 1 in
        # place: n_j / n_{j-k} - 1 = k / (j - k)
        j = len(tab) + 1
        for k in range(1, j):
            tab[k - 1], t = t, t + (t - tab[k - 1]) * ((j - k) / k)
        tab.append(t)
        if j >= 2 and np.max(np.abs(t - tab[-2])) <= EXTRAP_TOL:
            return True
    return False


def _stacked_rows(grid, w, phi, fw0, fp0, bands, H, js):
    """T_j,1 of the rows js of the tableau, a descending range, advanced from
    (w, phi) as one stack; returns them in ascending j, each row w then
    phi, (rows, 2n).

    One dgttrf factors the (I - (H/j) J) of all rows, block-diagonal with
    zero couplings between the blocks, which gives each block the factors
    of its own (spectral._shifted_lu stacks its shifts so).  The rows
    still stepping at sub-step i are those with j > i, the stack's first
    ones, so each sub-step makes one stacked right-hand side and one
    dgttrs over the leading blocks of the factors.  A zero pivot ends the
    rows at the lowest row that has one, where the row-by-row loop stops.
    The zero couplings keep the blocks apart while every row is finite; a
    row that overflows spreads NaN to the others (0 * inf), and a NaN row
    settles nothing.
    """
    n = fw0.shape[0]
    lo, di, up = bands
    h = (H / np.asarray(js))[:, None]
    nrows = h.shape[0]
    dl = np.zeros((nrows, n))
    np.multiply(-h, lo, out=dl[:, :-1])
    du = np.zeros((nrows, n))
    np.multiply(-h, up, out=du[:, :-1])
    dl, d, du, du2, ipiv, info = dgttrf(
        dl.ravel()[:-1], (1.0 - h * di).ravel(), du.ravel()[:-1],
        overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info != 0:
        # the rows below the one that holds the first zero pivot
        below = js[(info - 1) // n + 1:]
        return (_stacked_rows(grid, w, phi, fw0, fp0, bands, H, below)
                if below else np.empty((0, 2 * n)))
    yw = np.repeat(w[None], nrows, axis=0)
    yp = np.repeat(phi[None], nrows, axis=0)
    fw, fp = fw0, fp0
    for i in range(js[0]):
        m = min(nrows, js[0] - i)  # the rows with j > i
        if i:
            # a lone row goes in 1-d, where numpy's per-call cost is lower
            fw, fp, _ = _rhs_numpy(grid, yw[0] if m == 1 else yw[:m])
        size = m * n
        x, _ = dgttrs(dl[:size - 1], d[:size], du[:size - 1],
                      du2[:size - 2], ipiv[:size], (h[:m] * fw).ravel(),
                      overwrite_b=1)
        yw[:m] += x.reshape(m, n)
        yp[:m] += h[:m] * fp
    return np.concatenate((yw, yp), axis=1)[::-1]
