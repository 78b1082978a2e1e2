"""Spectrum of the weighted Laplacian per azimuthal Fourier mode.

The operator is the drift Laplacian -Delta + grad(u) . grad acting on
L^2(e^{-u} dv) in the complex normalization (eigenvalues of the round
sphere are l(l+1)/2).  Separation of variables reduces each mode m to a
Sturm-Liouville problem for the radial profile R(theta):

    stiffness  a_m(R, R) = pi * integral (R'^2 + m^2 R^2 / sin^2) e^{-u} sin dtheta
    mass       b(R, R)   = 2 pi * integral R^2 e^{-u} e^{2w} sin dtheta

The conformal factors cancel in the gradient part (two-dimensional
conformal invariance of the Dirichlet energy).  The gradient quadratic
form is assembled from a fourth-order flux derivative (stencil of four
nodes per interior flux point, parity ghosts across the poles): the
second-order quotient carries the classical lam^2 h^2 / 12 dispersion
error, an order of magnitude above the quadrature error for the first
ten round eigenvalues, while the wide quotient leaves only quadrature.
The result is a symmetric positive-semidefinite banded matrix (bandwidth
three) against a positive diagonal mass, so modes m and -m coincide by
construction.

weighted_spectrum solves the lowest K_PER_MODE pairs of every mode m <
N_MODES on one assembly.  Every path ends in the same refinement
(_refine), a step of subspace iteration (Parlett, The Symmetric
Eigenvalue Problem; Knyazev, SIAM J. Sci. Comput. 2001, for the blocked
Rayleigh-Ritz form): one shifted inverse-iteration sweep through a single
banded LU over every mode and pair, then QR and Rayleigh-Ritz, with each
pair's residual computed once in reduced coordinates; a second sweep, at
the Ritz values, follows only when a residual still fails.  The paths
differ in where the start blocks come from.  Every flow state after
t = 0 passes the previous state's Spectrum, whose B-orthonormal blocks
start all modes.  Without one, each mode starts from the round sphere's
harmonics of that mode (_harmonic_start): every metric krflow flows is a
perturbation of the round one, whose mode-m eigenfunctions span
sin^m(theta) P_j(cos theta).  Either start goes through one
Rayleigh-Ritz step on the new pencil, which keeps the lowest K_PER_MODE
pairs, and then _refine, at O(n) per pair.  A guard checks each mode's
pairs: the i-th eigenvector must change sign exactly i times (Sturm
oscillation, so no lower eigenvalue was skipped), and every residual
must pass.  A mode that fails either is bisected at full n by
solve_mode, whose band-to-tridiagonal reduction costs O(n^2), so a start
that misses an eigenvalue costs time, never a wrong lambda(g).  Every
path reads the pencil in one form, the bands of C = B^{-1/2} A B^{-1/2}
of every mode and the mass diagonal B (assemble_modes), reduced once per
assembly.

The structural self-test of the whole package lives here: on the
normalized class (volume 4 pi, u solved) three eigenvalues are pinned at
1, the holomorphic band, and the "second" eigenvalue lambda(g) is read
above that band.  lambda_second alone decides which pairs are band
members, under the caller's band_tol, and returns them per mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from ._lapack import dgbtrf, dgbtrs, dlamch, dsbevx
from .geometry import (ConformalMetric, Grid, NumericalError, Rows, dtheta,
                       grad_norm_sq, legendre_profile, per_row,
                       weighted_integral)
from .potential import RicciPotential

STENCIL_WEIGHTS = (1.0, -27.0, 27.0, -1.0)
BANDWIDTH = 3
# the bisection tolerance scipy's eig_banded passes to ?sbevx
_ABSTOL = 2.0 * dlamch("s")
RESIDUAL_TOL = 1e-7  # accepted Rayleigh residual, relative to max(1, |lam|)
# Fourier modes m = 0..N_MODES - 1 solved per state: the holomorphic band
# (m = 0 and m = +-1) and lambda(g)'s l = 2 branch (m = 0, 1, 2) live in m <= 2
N_MODES = 3
# pairs kept per mode: 5 keeps the axial branch_index in 0..3 with the pair
# above it, which the branch-crossing guard reads
K_PER_MODE = 5
# inverse-iteration sweeps a refinement may take; the second runs only when
# a residual fails after the first, as after a large step between records
MAX_SWEEPS = 2
# harmonics per mode that start a solve without an earlier state, whose
# lowest K_PER_MODE Ritz pairs go on to the refinement; with half as many,
# the degree-2 bumps from amplitude 0.8 up and the round metric dilated by
# k = 3 miss eigenvalues and bisect
HARMONICS = 4 * K_PER_MODE


class SolveFail(NumericalError):
    """Eigensolver did not converge (ill-conditioned mass, unresolved u)."""


class BandAmbiguity(NumericalError):
    """The holomorphic band near 1 is not cleanly resolved; refine."""


@dataclass(frozen=True)
class Spectrum:
    """Lowest pairs per mode m = 0..N_MODES - 1, as weighted_spectrum
    solved them: vals has shape (N_MODES, K_PER_MODE), each row ascending,
    and vecs (N_MODES, n, K_PER_MODE) holds each mode's block of
    B-orthonormal eigenvectors.  A mode m > 0 stands for m and -m, which
    coincide (MULTIPLICITY).
    mass is the diagonal of the weighted L^2 form the blocks are
    B-orthonormal for.  warm tells whether the solve started from a
    previous state's blocks, and fallbacks lists (m, reason) for each mode
    whose pairs from a start block, warm or harmonic, were refused and
    bisected at full n by solve_mode."""

    metric: ConformalMetric
    mass: np.ndarray
    vals: np.ndarray
    vecs: np.ndarray
    warm: bool = False
    fallbacks: tuple[tuple[int, str], ...] = ()


@dataclass(frozen=True)
class EigenData:
    """One eigenpair normalized to (1/V) integral |psi|^2 e^{-u} dv = 1."""

    m: int
    lam: float
    psi: np.ndarray
    grad_bar_sq: np.ndarray


def assemble_modes(metric: ConformalMetric, u: RicciPotential | None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The pencil of every Fourier mode m < N_MODES weighted by the solved
    potential u's e^{-u}, None for the unweighted operator: (c, mass), the
    bands of C = B^{-1/2} A B^{-1/2} stacked by mode, (N_MODES, bw + 1,
    n), and the mass diagonal B, with c[m, k, i] = C_m[i, i + k] (upper
    symmetric storage).  Of metric rows and the Rows of their potentials,
    both carry a leading row axis."""
    return _reduced_bands(*_assemble(metric, None if u is None else u.emu))


def _assemble(metric: ConformalMetric, e: np.ndarray | None
              ) -> tuple[np.ndarray, np.ndarray]:
    """The stiffness bands of every mode m < N_MODES stacked by mode,
    (..., N_MODES, bw + 1, n), and the mass diagonal, for the weight e at
    the nodes, e^{-u} or None for ones, or for metric rows and one row of
    e each.

    The derivative part of the form is sum over interior flux points of
    C_f (D R)_f^2 with the four-node flux quotient D, whose legs at the
    first and last flux reach one ghost node past each pole.  Its bands
    are sums of shifted slices over the padded nodes -1..n, flux j's legs
    at padded j - 1..j + 2: band k takes C_f w_a w_{a+k} on the slice
    a : a + n - 1 for each leg a, in flux order.  The ghost couplings then
    fold onto the pole nodes with the mode's parity, the north ones
    written before the slices and the south ones added after them, so
    that each band entry sums its terms in the order of the flux sum.
    Both parities run in one pass, and each mode m adds its m^2 diagonal.
    """
    g = metric.grid
    n = g.n_nodes
    if e is None:
        e = np.ones_like(metric.e2w)
    ht = 2.0 * np.sin(g.h / 2)  # cell width in the exact quadrature
    ebar = 0.5 * (e[..., :-1] + e[..., 1:])
    cf = np.pi * ebar * g.sin_flux[1:-1] * ht  # weight per interior flux
    # the mass diagonal 2 pi e^{-u} e^{2w} q of the weighted L^2 form
    mass = 2.0 * np.pi * e * metric.e2w * g.quad_weights
    w = np.array(STENCIL_WEIGHTS) / (24.0 * g.h)
    s = np.array([1.0, -1.0])  # the parity of the even and the odd modes
    # bands over the padded nodes, node i at i + 1, one set per parity
    d = np.zeros(cf.shape[:-1] + (2, BANDWIDTH + 1, n + 2))
    ghost = cf[..., :1] * (w[0] * w)  # the north ghost's couplings
    d[..., 0, 1] = ghost[..., :1] + s * ghost[..., 1:2] + s * ghost[..., 1:2]
    d[..., 1:3, 1] = s[:, None] * ghost[..., None, 2:]
    cf = cf[..., None, :]  # one row for both parities
    for k in range(BANDWIDTH + 1):
        for a in range(BANDWIDTH - k, -1, -1):
            d[..., k, a:a + n - 1] += cf * (w[a] * w[a + k])
    # the south ghost's couplings, each alone in its slot past node n - 1,
    # added one term at a time as in the flux sum
    d[..., 2, n - 2] += s * d[..., 3, n - 2]
    d[..., 1, n - 1] += s * d[..., 2, n - 1]
    d[..., 0, n] += s * d[..., 1, n]
    d[..., 0, n] += s * d[..., 1, n]
    d[..., 0, n] += d[..., 0, n + 1]
    for k in range(1, BANDWIDTH + 1):
        d[..., k, n + 1 - k:] = 0.0
    bands = np.empty(cf.shape[:-2] + (N_MODES, BANDWIDTH + 1, n))
    for m in range(N_MODES):
        bands[..., m, :, :] = d[..., m % 2, :, 1:n + 1]
        if m != 0:
            bands[..., m, 0, :] += np.pi * m * m * e * ht / g.sin_nodes
    return bands, mass


def _reduced_bands(bands: np.ndarray, mass: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(c, mass): the bands of C = B^{-1/2} A B^{-1/2}, written over the
    bands of A stacked by mode, (..., N_MODES, bw + 1, n), for the diagonal
    mass B (..., n), so that no assembly holds both."""
    n = mass.shape[-1]
    binv = 1.0 / np.sqrt(mass)[..., None, :]  # one row for all modes
    bands *= binv[..., None, :]
    for kk in range(BANDWIDTH + 1):
        bands[..., kk, :n - kk] *= binv[..., kk:]
    return bands, mass


def _shifted_lu(c: np.ndarray, shifts: np.ndarray):
    """One banded LU of every C_m - shifts[m, i] I, for the reduced bands
    c[m] and the shift rows shifts[m]: the shifted matrices sit
    block-diagonally, mode by mode and shift by shift, in one general band
    matrix.  Its storage is ab[2 bw + i - j, j] = (C - s I)[i, j] with bw
    spare rows on top for the pivoting fill; each block's band ends in
    zeros, which are the cuts between blocks.  Returns dgbtrf's
    (lu, piv, info)."""
    modes, k = shifts.shape
    n = c.shape[-1]
    kl = BANDWIDTH
    # built transposed, so that ab is in Fortran order and dgbtrf factors
    # it in place
    abt = np.zeros((modes, k, n, 3 * kl + 1))
    for kk in range(kl + 1):
        abt[:, :, kk:, 2 * kl - kk] = c[:, None, kk, :n - kk]
        abt[:, :, :n - kk, 2 * kl + kk] = c[:, None, kk, :n - kk]
    abt[..., 2 * kl] -= shifts[:, :, None]
    return dgbtrf(abt.reshape(modes * k * n, 3 * kl + 1).T, kl, kl,
                  overwrite_ab=1)


def _band_apply(bands: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the symmetric banded A in upper storage, bands[..., k, i] =
    A[i, i + k], on an (n, k) block of columns, or a stack of blocks
    (modes, n, k) against a stack of bands.  The sums run on the columns
    laid out pair by pair, each contiguous along n, and the result is
    their transposed view."""
    xt = np.swapaxes(x, -1, -2).copy()
    b = bands[..., None, :]  # one band row for every pair
    n = xt.shape[-1]
    out = b[..., 0, :, :] * xt
    for kk in range(1, BANDWIDTH + 1):
        bk = b[..., kk, :, :n - kk]
        out[..., :n - kk] += bk * xt[..., kk:]
        out[..., kk:] += bk * xt[..., :n - kk]
    return np.swapaxes(out, -1, -2)


def _ritz(c: np.ndarray, q: np.ndarray, keep: int | None = None):
    """Rayleigh-Ritz of the reduced bands c on the orthonormal blocks q,
    mode by mode: the lowest keep Ritz values (ascending; None keeps all),
    their Ritz vectors y and C y."""
    cq = _band_apply(c, q)
    theta, s = np.linalg.eigh(np.swapaxes(q, -1, -2) @ cq)
    s = s[..., :keep]
    return theta[..., :keep], q @ s, cq @ s


def _harmonic_start(grid: Grid, mass: np.ndarray):
    """The round sphere's harmonics as start blocks, one mode m < N_MODES
    at a time: the HARMONICS columns sin^m(theta) P_j(cos theta), j <
    HARMONICS, in reduced coordinates y = B^{1/2} v for the mass diagonal
    B, orthonormalized (QR).  They span the round sphere's mode-m
    eigenfunctions of degree l < m + HARMONICS, and every metric krflow
    flows is a perturbation of the round one.  Yields one (n, HARMONICS)
    block per mode, so that only one is held."""
    columns = np.sqrt(mass)[:, None] * legendre.legvander(grid.cos_nodes,
                                                          HARMONICS - 1)
    for m in range(N_MODES):
        yield np.linalg.qr(grid.sin_nodes[:, None] ** m * columns)[0]


def _inverse_sweep(c: np.ndarray, shifts: np.ndarray, x: np.ndarray
                   ) -> np.ndarray | None:
    """Solve (C_m - shifts[m, i] I) z = x[m, :, i] for every mode m and
    pair i through one banded LU (_shifted_lu): z stacked like x, or None
    on a zero pivot.  The LU, the largest array of a solve, is freed on
    return."""
    lu, piv, info = _shifted_lu(c, shifts)
    if info != 0:
        return None
    rhs = np.swapaxes(x, 1, 2).copy()  # one block of n per pair
    z, _ = dgbtrs(lu, BANDWIDTH, BANDWIDTH, rhs.reshape(-1), piv,
                  overwrite_b=1)
    return np.swapaxes(z.reshape(rhs.shape), 1, 2)


def rayleigh_residual(y: np.ndarray, cy: np.ndarray,
                      vals: np.ndarray) -> np.ndarray:
    """|| C y - lam y || per pair, for orthonormal blocks y of the reduced
    pencil stacked (..., n, k), C y and their Ritz values (..., k).  With
    y = B^{1/2} v this is || A v - lam B v || in the B^{-1} norm."""
    return np.sqrt(np.sum((cy - y * vals[..., None, :]) ** 2, axis=-2))


def _residual_ok(res: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Which residuals are within RESIDUAL_TOL max(1, |lam|); NaN is not."""
    return res <= RESIDUAL_TOL * np.maximum(1.0, np.abs(vals))


def _refine(c: np.ndarray, mass: np.ndarray, shifts: np.ndarray,
            x: np.ndarray):
    """Pairs of the reduced bands c (modes, bw + 1, n) near the shifts
    (modes, k), from the start blocks x (modes, n, k): one shifted
    inverse-iteration sweep through one banded LU over every mode and
    pair, QR and Rayleigh-Ritz, and up to MAX_SWEEPS sweeps, each at the
    last Ritz values, while a residual fails.  Returns (vals, vecs,
    residuals) stacked by mode, with vecs B-orthonormal for the diagonal
    mass, or None on a zero pivot.  Nothing here checks that the pairs pass
    or are the lowest ones: the callers do."""
    for _ in range(MAX_SWEEPS):
        z = _inverse_sweep(c, shifts, x)
        if z is None:
            return None
        shifts, x, cx = _ritz(c, np.linalg.qr(z)[0])
        res = rayleigh_residual(x, cx, shifts)
        if _residual_ok(res, shifts).all():
            break
    return shifts, x / np.sqrt(mass)[:, None], res


def solve_mode(c: np.ndarray, mass: np.ndarray, m: int, k: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of mode m of the generalized pencil (A, B), B
    diagonal, by bisection, which needs no start block.  c holds the
    reduced bands of every mode and mass the diagonal B (assemble_modes),
    so the mode's bands are c[m].

    Reduction C = B^{-1/2} A B^{-1/2} preserves the bandwidth bw.  The
    LAPACK expert driver ?sbevx without vectors supplies the shifts: a
    band-to-tridiagonal reduction that never forms its orthogonal factor
    (O(n^2 bw) flops, O(n bw) memory), then Sturm bisection, which cannot
    skip an eigenvalue.  _refine then takes the pairs from a deterministic
    start vector, not symmetric about the equator, so odd-parity
    eigenvectors of equator-symmetric metrics are not left to rounding
    noise: an inverse sweep at the k shifts (one LU for all of them,
    O(k n bw^2)), QR and Rayleigh-Ritz, whose eigenvalues match the
    Rayleigh quotients of their own vectors more closely than bisection's.
    No step builds an n x n matrix.  Raises SolveFail when bisection
    returns fewer than k values, on a zero pivot, or when a residual fails
    RESIDUAL_TOL.  Returned vectors are B-orthonormal.

    weighted_spectrum calls it only for a mode whose start block, warm or
    harmonic, the guard refuses (_refusals): the safety net of the O(n)
    solves.
    """
    n = mass.size
    c = c[m]  # this mode's reduced bands
    band = np.zeros((BANDWIDTH + 1, n))  # LAPACK upper band storage
    for kk in range(BANDWIDTH + 1):
        band[BANDWIDTH - kk, kk:] = c[kk, :n - kk]
    w, _, found, _, info = dsbevx(band, 0.0, 0.0, 1, k, compute_v=0,
                                  range=2, lower=0, abstol=_ABSTOL,
                                  overwrite_ab=0)
    if info != 0 or found < k:
        raise SolveFail(f"mode {m} bisection returned {found} of {k}"
                        f" eigenvalues (info = {info})")
    if not np.isfinite(w[:k]).all():
        raise SolveFail(f"mode {m} produced non-finite eigenvalues")
    x = np.empty((1, n, k))
    x[:] = (1.0 + np.arange(n) / n)[:, None]
    solved = _refine(c[None], mass, w[None, :k], x)
    if solved is None:
        raise SolveFail(f"mode {m} inverse iteration met a zero pivot")
    vals, vecs, res = (a[0] for a in solved)
    bad = ~_residual_ok(res, vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise SolveFail(f"mode {m} eigenpair {i} residual "
                        f"{res[i]:.2e} too large")
    return vals, vecs


def _refusals(vals: np.ndarray, vecs: np.ndarray, res: np.ndarray
              ) -> list[str | None]:
    """Why the pairs of each mode from a start block are refused, or None:
    the i-th eigenvector of a mode must change sign exactly i times (Sturm
    oscillation, so no lower eigenvalue was missed), and every pair must
    pass the residual check of solve_mode."""
    changes = np.count_nonzero(np.diff(np.signbit(vecs), axis=1), axis=1)
    sturm = (changes == np.arange(vecs.shape[2])).all(axis=1)
    residual = _residual_ok(res, vals).all(axis=1)
    return ["sturm" if not ok_s else "residual" if not ok_r else None
            for ok_s, ok_r in zip(sturm, residual)]


def weighted_spectrum(metric: ConformalMetric, u: RicciPotential | None,
                      warm: Spectrum | None = None):
    """The checked lowest K_PER_MODE pairs of every mode m < N_MODES of the
    operator weighted by the solved potential u, None for the unweighted
    one: a Spectrum, or for metric rows (geometry.Rows) and their stacked
    potentials a list of one Spectrum per row, in row order.

    warm is the previous state's Spectrum, whose B-orthonormal blocks
    start every mode.  Without it, every mode starts from the round
    sphere's harmonics (_harmonic_start).  Each later row starts
    from the Spectrum of the row before it, fallbacks included.  A start
    block goes through one step of subspace iteration, and a mode whose
    pairs the guard refuses (_refusals) takes solve_mode instead, recorded
    with its reason in Spectrum.fallbacks.  A missed eigenvalue therefore
    costs a bisection, never a wrong spectrum.  The assembly and the
    reduction to C = B^{-1/2} A B^{-1/2} are one array pass over the rows;
    only what depends on the start runs row by row (_row_spectrum).
    """
    rows = isinstance(metric, Rows)
    if not rows:
        metric, u = Rows([metric]), None if u is None else Rows([u])
    c, mass = assemble_modes(metric, u)
    out = []
    for i in range(len(metric)):
        # a copy, so the Spectrum that starts the next block does not keep
        # this block's stack
        warm = _row_spectrum(metric[i], c[i], mass[i].copy(), warm)
        out.append(warm)
    return out if rows else out[0]


def _row_spectrum(metric: ConformalMetric, c: np.ndarray, mass: np.ndarray,
                  warm: Spectrum | None) -> Spectrum:
    """The start-dependent part of weighted_spectrum for one metric, the
    reduced bands c (N_MODES, bw + 1, n) of its modes and its mass.

    A start block takes one step of subspace iteration: the blocks are
    orthonormal in reduced coordinates y = B^{1/2} v, so they go straight
    into Rayleigh-Ritz on the reduced pencil, the warm blocks all modes at
    once and the harmonics one mode at a time, each keeping its lowest
    K_PER_MODE pairs.  _refine starts from the Ritz pairs, all modes at
    once.  Each mode that bisects writes its pairs over its row of the
    stacks."""
    if warm is not None:
        shifts, start = _ritz(c, np.sqrt(warm.mass)[:, None] * warm.vecs)[:2]
    else:
        ritz = [_ritz(c[m], q, K_PER_MODE)[:2]
                for m, q in enumerate(_harmonic_start(metric.grid, mass))]
        shifts, start = (np.stack(a) for a in zip(*ritz))
    solved = _refine(c, mass, shifts, start)
    if solved is None:
        vals = np.empty((N_MODES, K_PER_MODE))
        vecs = np.empty((N_MODES, mass.size, K_PER_MODE))
        reasons = ["pivot"] * N_MODES
    else:
        vals, vecs, res = solved
        reasons = _refusals(vals, vecs, res)
    for m, reason in enumerate(reasons):
        if reason is not None:
            vals[m], vecs[m] = solve_mode(c, mass, m, K_PER_MODE)
    fallbacks = tuple((m, reason) for m, reason in enumerate(reasons)
                      if reason is not None)
    return Spectrum(metric=metric, mass=mass, vals=vals, vecs=vecs,
                    warm=warm is not None, fallbacks=fallbacks)


# the times each mode's pairs enter the merged spectrum: a mode m > 0
# stands for m and -m, which coincide
MULTIPLICITY = (1,) + (2,) * (N_MODES - 1)


def merged_spectrum(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The merged spectrum of per-mode rows vals[m]: (eigenvalues, modes),
    ascending, with each row entered MULTIPLICITY[m] times; ties keep the
    order mode by mode."""
    lams = np.repeat(vals, MULTIPLICITY, axis=0).ravel()
    modes = np.repeat(np.arange(N_MODES),
                      np.multiply(MULTIPLICITY, vals.shape[1]))
    order = np.argsort(lams, kind="stable")
    return lams[order], modes[order]


# the default half-width of the holomorphic band, in units of h^2
BAND_H2 = 50.0


def default_band_tol(grid: Grid) -> float:
    return BAND_H2 * grid.h ** 2


def lambda_second(spectrum: Spectrum, band_tol: float | None = None):
    """Extract lambda(g) above the holomorphic band pinned at 1.

    The band is every eigenvalue within band_tol of 1 (None: the grid's
    default_band_tol) and must contain exactly three members, a pair of
    mode m counting MULTIPLICITY[m] times; lambda(g) is the smallest
    eigenvalue strictly above it, and its gap to the band edge must clear
    2 band_tol.  Any other violation of the expected layout raises
    BandAmbiguity, the refusal path that tells the caller to refine.
    Returns lambda(g), the band's merged eigenvalues, and the members as a
    mask shaped like spectrum.vals: the one classification every reader of
    the band uses.
    Of the Rows of several spectra, lambda(g) is one value per row, the
    band one sorted row of three per spectrum, the mask one per spectrum,
    and the first spectrum that breaks the layout raises.
    """
    if band_tol is None:
        band_tol = default_band_tol(spectrum.metric.grid)
    vals = spectrum.vals
    members = np.abs(vals - 1.0) <= band_tol
    entered = np.where(np.repeat(members, MULTIPLICITY, axis=-2),
                       np.repeat(vals, MULTIPLICITY, axis=-2), np.inf)
    entered = entered.reshape(entered.shape[:-2] + (-1,))
    count = np.sum(entered < np.inf, axis=-1)
    stray = np.min(np.where((band_tol < vals) & (vals < 1.0 - band_tol),
                            vals, np.inf), axis=(-2, -1))
    above = vals > 1.0 + band_tol
    lam_g = np.min(np.where(above, vals, np.inf), axis=(-2, -1))
    # each spectrum's refusals, in the order they are checked
    refused = np.stack((count != 3, stray < np.inf,
                        ~above.any(axis=(-2, -1)),
                        lam_g - (1.0 + band_tol) < 2.0 * band_tol), axis=-1)
    bad = np.flatnonzero(refused.reshape(-1, 4).any(axis=-1))
    if bad.size:
        i = bad[0]
        raise BandAmbiguity((
            f"holomorphic band holds {np.ravel(count)[i]} eigenvalues "
            f"(band_tol = {band_tol:.3e}), expected 3",
            f"unexpected eigenvalue {np.ravel(stray)[i]:.6g} below the band",
            "no eigenvalue above the holomorphic band",
            f"gap {np.ravel(lam_g)[i] - 1.0 - band_tol:.3e} above the band "
            f"is under 2 band_tol = {2 * band_tol:.3e}",
        )[np.argmax(refused.reshape(-1, 4)[i])])
    band = np.sort(entered, axis=-1)[..., :3]
    if band.ndim == 1:
        return float(lam_g), band.tolist(), members
    return lam_g, band, members


def dbar_sq(metric: ConformalMetric, psi: np.ndarray, m: int) -> np.ndarray:
    """|dbar psi|^2 = (1/2) e^{-2w} (R'^2 + m^2 R^2 / sin^2) of the mode-m
    profile R = psi."""
    g = metric.grid
    rp = dtheta(g, psi, parity=1 if m % 2 == 0 else -1)
    half = 0.5 * metric.em2w
    gb = half * rp ** 2
    if m != 0:
        gb = gb + half * (m * psi / g.sin_nodes) ** 2
    return gb


def pair_data(metric: ConformalMetric, m: int, lam: float,
              vector: np.ndarray) -> EigenData:
    """Normalized eigenpair with its |dbar psi|^2 field, from one stored
    B-orthonormal pair (lam, vector) of mode m on metric, or one pair per
    row from stacked vectors on metric rows (geometry.Rows).

    Normalization: (1/V) integral |psi|^2 e^{-u} dv = 1.  The weighted
    mean of the dbar_sq field reproduces the eigenvalue through
    integration by parts.
    """
    # solver vectors are B-orthonormal; the stated normalization needs V
    psi = vector * per_row(np.sqrt(metric.volume))
    return EigenData(m=m, lam=lam, psi=psi,
                     grad_bar_sq=dbar_sq(metric, psi, m))


# ---------------------------------------------------------------------------
# Sobolev constant estimation
# ---------------------------------------------------------------------------

def _probe_family(grid: Grid) -> list[np.ndarray]:
    """Constants, low harmonics, and pole bumps at three widths."""
    th = grid.theta_nodes
    probes = [np.ones(grid.n_nodes)]
    probes += [legendre_profile(grid, l, 1.0) for l in range(1, 5)]
    for width in (0.25, 0.5, 1.0):
        probes.append(np.exp(-(th / width) ** 2))
        probes.append(np.exp(-((np.pi - th) / width) ** 2))
    return probes


def sobolev_probe_parts(metric: ConformalMetric):
    """Per-probe pieces ((int f^4 dv)^(1/2), int |grad f|^2 dv, int f^2 dv)."""
    parts = []
    for f in _probe_family(metric.grid):
        quartic = weighted_integral(f ** 4, metric) ** 0.5
        dirichlet = weighted_integral(grad_norm_sq(f, metric), metric)
        mass = weighted_integral(f ** 2, metric)
        parts.append((quartic, dirichlet, mass))
    return parts


def sobolev_constant_estimate(metric: ConformalMetric) -> float:
    """Lower bound for the constant in (int f^4 dv)^(1/2) <= C int (|grad f|^2 + f^2) dv.

    The dimension-degenerate exponent of the general inequality is
    replaced by this two-dimensional quartic form.  The estimate is the
    best quotient over a fixed probe family (constants, low harmonics,
    pole bumps at three widths), which is all the monitors need: a stable
    measured constant, not a sharp one.
    """
    best = 0.0
    for quartic, dirichlet, mass in sobolev_probe_parts(metric):
        best = max(best, quartic / (dirichlet + mass))
    return float(best)
