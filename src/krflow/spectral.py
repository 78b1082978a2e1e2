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
N_MODES on one assembly.  Both of its paths end in the same refinement
(_refine), a step of subspace iteration (Parlett, The Symmetric
Eigenvalue Problem; Knyazev, SIAM J. Sci. Comput. 2001, for the blocked
Rayleigh-Ritz form): one shifted inverse-iteration sweep through a single
banded LU over every mode and pair, then QR and Rayleigh-Ritz, with each
pair's residual computed once in reduced coordinates; a second sweep, at
the Ritz values, follows only when a residual still fails.  They differ
in where shifts and start blocks come from.  Without an earlier state,
the cold solve_mode takes each mode's shifts from Sturm bisection on the
band-reduced pencil and starts from a fixed vector.  Every flow state
after t = 0 passes the previous state's Spectrum instead: all modes start
from its B-orthonormal blocks, shifted at their Ritz values on the new
pencil.  Each sweep costs O(n) per pair, where the band-to-tridiagonal
reduction of the cold solve costs O(n^2).  A guard checks each mode's
warm pairs: the i-th eigenvector must change sign exactly i times (Sturm
oscillation, so no lower eigenvalue was skipped), and every residual must
pass.  A mode that fails either falls back to the cold solve, so a warm
start that misses an eigenvalue costs time, never a wrong lambda(g).

The structural self-test of the whole package lives here: on the
normalized class (volume 4 pi, u solved) three eigenvalues are pinned at
1, the holomorphic band, and the "second" eigenvalue lambda(g) is read
above that band.  lambda_second alone decides which pairs are band
members, under the caller's band_tol, and returns them per mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dlamch, dsbevx

from .geometry import (ConformalMetric, Grid, NumericalError, dtheta,
                       grad_norm_sq, legendre_profile, weighted_integral)
from .potential import RicciPotential

STENCIL_OFFSETS = (-2, -1, 0, 1)
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


class SolveFail(NumericalError):
    """Eigensolver did not converge (ill-conditioned mass, unresolved u)."""


class BandAmbiguity(NumericalError):
    """The holomorphic band near 1 is not cleanly resolved; refine."""


@dataclass(frozen=True)
class ModeProblem:
    """Assembled symmetric banded pencil for one Fourier mode.

    bands[k, i] = A[i, i + k] for k = 0..BANDWIDTH (upper symmetric
    storage); mass is the positive diagonal of the weighted L^2 form.
    """

    m: int
    bands: np.ndarray
    mass: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Lowest pairs per mode m = 0..N_MODES - 1, as weighted_spectrum
    solved them: vals has shape (N_MODES, K_PER_MODE), each row ascending,
    and vecs[m] is mode m's (n, K_PER_MODE) block of B-orthonormal
    eigenvectors.  A mode m > 0 stands for m and -m, which coincide.
    mass is the diagonal of the weighted L^2 form the blocks are
    B-orthonormal for.  warm tells whether the solve started from a
    previous state's blocks, and fallbacks lists (m, reason) for each mode
    whose warm pairs were refused and solved cold."""

    metric: ConformalMetric
    mass: np.ndarray
    vals: np.ndarray
    vecs: tuple[np.ndarray, ...]
    warm: bool = False
    fallbacks: tuple[tuple[int, str], ...] = ()


@dataclass(frozen=True)
class EigenData:
    """One eigenpair normalized to (1/V) integral |psi|^2 e^{-u} dv = 1."""

    m: int
    lam: float
    psi: np.ndarray
    grad_bar_sq: np.ndarray


def _fold(idx: int, n: int, parity: float) -> tuple[int, float]:
    """Reflect a ghost node across the nearer pole, carrying the parity."""
    sign = 1.0
    if idx < 0:
        idx = -1 - idx
        sign *= parity
    if idx >= n:
        idx = 2 * n - 1 - idx
        sign *= parity
    return idx, sign


def assemble_modes(metric: ConformalMetric,
                   u: RicciPotential | None) -> list[ModeProblem]:
    """Stiffness bands and mass diagonal for each Fourier mode m < N_MODES
    weighted by the solved potential u's e^{-u}, None for the unweighted
    operator.

    The derivative part of the form is sum over interior flux points of
    C_f (D R)_f^2 with the four-node flux quotient D.  Only the first and
    last flux touch ghost nodes, so the interior bands do not depend on m:
    they accumulate once, with plain slice arithmetic, and each mode adds
    the two folding fluxes of its parity and its m^2 diagonal.
    """
    g = metric.grid
    n = g.n_nodes
    ht = 2.0 * np.sin(g.h / 2)  # cell width in the exact quadrature
    e = np.ones(n) if u is None else u.emu  # for stiffness and mass
    ebar = 0.5 * (e[:-1] + e[1:])
    cf = np.pi * ebar * g.sin_flux[1:-1] * ht  # weight per interior flux
    coefs = np.array(STENCIL_WEIGHTS) / (24.0 * g.h)
    interior = np.zeros((BANDWIDTH + 1, n))
    # interior fluxes j = 2..n-2 never fold
    cint = cf[1:-1]
    for a in range(4):
        for b in range(a, 4):
            k = STENCIL_OFFSETS[b] - STENCIL_OFFSETS[a]
            lo = 2 + STENCIL_OFFSETS[a]
            interior[k, lo:lo + n - 3] += coefs[a] * coefs[b] * cint
    # the mass diagonal 2 pi e^{-u} e^{2w} q of the weighted L^2 form
    mass = 2.0 * np.pi * e * metric.e2w * g.quad_weights
    folded = {}  # parity -> interior plus the folding fluxes j = 1, n - 1
    out = []
    for m in range(N_MODES):
        parity = 1.0 if m % 2 == 0 else -1.0
        if parity not in folded:
            at, terms = ([], []), []
            for j, c in ((1, cf[0]), (n - 1, cf[-1])):
                legs = [(*_fold(j + off, n, parity), wgt)
                        for off, wgt in zip(STENCIL_OFFSETS, coefs)]
                for ia, sa, wa in legs:
                    for ib, sb, wb in legs:
                        if ia <= ib:
                            at[0].append(ib - ia)
                            at[1].append(ia)
                            terms.append(c * (sa * wa) * (sb * wb))
            bands = interior.copy()
            np.add.at(bands, at, terms)  # in order, as a loop of +=
            folded[parity] = bands
        bands = folded[parity]
        if m != 0:
            bands = bands.copy()
            bands[0] += np.pi * m * m * e * ht / g.sin_nodes
        out.append(ModeProblem(m=m, bands=bands, mass=mass))
    return out


def _reduced_bands(bands: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Bands of C = B^{-1/2} A B^{-1/2}, in the storage of bands (a stack of
    modes or one), for the diagonal mass B."""
    n = mass.size
    binv = 1.0 / np.sqrt(mass)
    c = bands * binv
    for kk in range(BANDWIDTH + 1):
        c[..., kk, :n - kk] *= binv[kk:]
    return c


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


def _lu_solve(lu, piv, rhs: np.ndarray) -> np.ndarray:
    """dgbtrs on the stacked LU of _shifted_lu, for rhs of shape
    (modes, k, n), or (k, n) for one mode: one right-hand side per
    block."""
    x, _ = dgbtrs(lu, BANDWIDTH, BANDWIDTH, rhs.reshape(-1), piv,
                  overwrite_b=1)
    return x.reshape(rhs.shape)


def _band_apply(bands: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the symmetric banded A in upper storage, bands[..., k, i] =
    A[i, i + k], on an (n, k) block of columns, or a stack of blocks
    (modes, n, k) against a stack of bands."""
    b = bands[..., None]
    n = x.shape[-2]
    out = b[..., 0, :, :] * x
    for kk in range(1, BANDWIDTH + 1):
        out[..., :n - kk, :] += b[..., kk, :n - kk, :] * x[..., kk:, :]
        out[..., kk:, :] += b[..., kk, :n - kk, :] * x[..., :n - kk, :]
    return out


def _ritz(c: np.ndarray, q: np.ndarray):
    """Rayleigh-Ritz of the reduced bands c on the orthonormal blocks q,
    mode by mode: the Ritz values (ascending), the Ritz vectors y and C y."""
    cq = _band_apply(c, q)
    theta, s = np.linalg.eigh(np.swapaxes(q, -1, -2) @ cq)
    return theta, q @ s, cq @ s


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
    return np.swapaxes(_lu_solve(lu, piv, rhs), 1, 2)


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


def solve_mode(problem: ModeProblem, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of the generalized pencil (A, B), B diagonal:
    the cold solve, which needs no earlier state.

    Reduction C = B^{-1/2} A B^{-1/2} preserves the bandwidth bw.  The
    LAPACK expert driver ?sbevx without vectors supplies the shifts: a
    band-to-tridiagonal reduction that never forms its orthogonal factor
    (O(n^2 bw) flops, O(n bw) memory), then Sturm bisection, which cannot
    skip an eigenvalue.  _refine, the warm solve's step, then takes the
    pairs from a deterministic start vector, not symmetric about the
    equator, so odd-parity eigenvectors of equator-symmetric metrics are
    not left to rounding noise: an inverse sweep at the k shifts (one LU
    for all of them, O(k n bw^2)), QR and Rayleigh-Ritz, whose eigenvalues
    match the Rayleigh quotients of their own vectors more closely than
    bisection's.  No step builds an n x n matrix.  Raises SolveFail when
    bisection returns fewer than k values, on a zero pivot, or when a
    residual fails RESIDUAL_TOL.  Returned vectors are B-orthonormal.

    weighted_spectrum takes this path without an earlier state (a flow's
    t = 0 state).  Later states are solved warm from the previous state's
    blocks (_warm_pairs), and a mode whose warm pairs fail the guard
    (_refusals: a Sturm sign-change count off, or a residual over
    RESIDUAL_TOL) falls back to this path.
    """
    n = problem.mass.size
    c = _reduced_bands(problem.bands, problem.mass)
    band = np.zeros((BANDWIDTH + 1, n))  # LAPACK upper band storage
    for kk in range(BANDWIDTH + 1):
        band[BANDWIDTH - kk, kk:] = c[kk, :n - kk]
    w, _, found, _, info = dsbevx(band, 0.0, 0.0, 1, k, compute_v=0,
                                  range=2, lower=0, abstol=_ABSTOL,
                                  overwrite_ab=0)
    if info != 0 or found < k:
        raise SolveFail(f"mode {problem.m} bisection returned {found} of {k}"
                        f" eigenvalues (info = {info})")
    if not np.isfinite(w[:k]).all():
        raise SolveFail(f"mode {problem.m} produced non-finite eigenvalues")
    x = np.empty((1, n, k))
    x[:] = (1.0 + np.arange(n) / n)[:, None]
    solved = _refine(c[None], problem.mass, w[None, :k], x)
    if solved is None:
        raise SolveFail(f"mode {problem.m} inverse iteration met a zero "
                        "pivot")
    vals, vecs, res = (a[0] for a in solved)
    bad = ~_residual_ok(res, vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise SolveFail(f"mode {problem.m} eigenpair {i} residual "
                        f"{res[i]:.2e} too large")
    return vals, vecs


def _warm_pairs(problems: list[ModeProblem], warm: Spectrum):
    """Lowest pairs of every mode by one step of subspace iteration from
    the blocks of the previous state's Spectrum warm, all modes at once.

    In that state's reduced coordinates y = B^{1/2} v its blocks are
    orthonormal, so they go straight into Rayleigh-Ritz on the new reduced
    pencil, and _refine starts from its Ritz pairs.  Returns _refine's
    (vals, vecs, residuals) stacked by mode, or None on a zero pivot.
    """
    mass = problems[0].mass  # the same for every mode
    c = _reduced_bands(np.stack([p.bands for p in problems]), mass)
    before = np.sqrt(warm.mass)[:, None]
    vals, y = _ritz(c, before * np.stack(warm.vecs))[:2]
    return _refine(c, mass, vals, y)


def _refusals(vals: np.ndarray, vecs: np.ndarray, res: np.ndarray
              ) -> list[str | None]:
    """Why the warm pairs of each mode are refused, or None: the i-th
    eigenvector of a mode must change sign exactly i times (Sturm
    oscillation, so no lower eigenvalue was missed), and every pair must
    pass the residual check of the cold solve."""
    changes = np.count_nonzero(np.diff(np.signbit(vecs), axis=1), axis=1)
    sturm = (changes == np.arange(vecs.shape[2])).all(axis=1)
    residual = _residual_ok(res, vals).all(axis=1)
    return ["sturm" if not ok_s else "residual" if not ok_r else None
            for ok_s, ok_r in zip(sturm, residual)]


def weighted_spectrum(metric: ConformalMetric, u: RicciPotential | None,
                      warm: Spectrum | None = None) -> Spectrum:
    """The checked lowest K_PER_MODE pairs of every mode m < N_MODES of the
    operator weighted by the solved potential u, None for the unweighted
    one.

    Without warm, each mode takes the cold solve_mode.  warm is the
    previous state's Spectrum: then every mode starts from its block
    (_warm_pairs), and a mode whose warm pairs the guard refuses
    (_refusals) takes the cold solve instead, recorded with its reason in
    Spectrum.fallbacks.  A missed eigenvalue therefore costs a cold solve,
    never a wrong spectrum.
    """
    problems = assemble_modes(metric, u)
    reasons = [None] * len(problems)
    if warm is not None:
        solved = _warm_pairs(problems, warm)
        reasons = (["pivot"] * len(problems) if solved is None
                   else _refusals(*solved))
    fallbacks, pairs = [], []
    for m, (problem, reason) in enumerate(zip(problems, reasons)):
        if warm is None:
            pairs.append(solve_mode(problem, K_PER_MODE))
        elif reason is None:
            # a copy, so a state that keeps one mode's block does not keep
            # the whole stack
            pairs.append((solved[0][m], solved[1][m].copy()))
        else:
            fallbacks.append((m, reason))
            pairs.append(solve_mode(problem, K_PER_MODE))
    vals, vecs = zip(*pairs)
    return Spectrum(metric=metric, mass=problems[0].mass,
                    vals=np.array(vals), vecs=vecs, warm=warm is not None,
                    fallbacks=tuple(fallbacks))


def merged_spectrum(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The merged spectrum of per-mode rows vals[m]: (eigenvalues, modes),
    ascending, with each m > 0 row entered twice (m and -m coincide); ties
    keep the order mode by mode."""
    k = vals.shape[1]
    modes = np.repeat(np.arange(len(vals)), [k] + [2 * k] * (len(vals) - 1))
    lams = np.concatenate([vals[0], *(np.repeat(row, 2) for row in vals[1:])])
    order = np.argsort(lams, kind="stable")
    return lams[order], modes[order]


# the default half-width of the holomorphic band, in units of h^2
BAND_H2 = 50.0


def default_band_tol(grid: Grid) -> float:
    return BAND_H2 * grid.h ** 2


def lambda_second(spectrum: Spectrum, band_tol: float | None = None
                  ) -> tuple[float, list[float], np.ndarray]:
    """Extract lambda(g) above the holomorphic band pinned at 1.

    The band is every eigenvalue within band_tol of 1 (None: the grid's
    default_band_tol) and must contain exactly three members, a pair of
    mode m > 0 counting for m and -m; lambda(g) is the smallest eigenvalue
    strictly above it, and its gap to the band edge must clear 2 band_tol.
    Any other violation of the expected layout raises BandAmbiguity, the
    refusal path that tells the caller to refine.  Returns lambda(g), the
    band's merged eigenvalues, and the members as a mask shaped like
    spectrum.vals: the one classification every reader of the band uses.
    """
    if band_tol is None:
        band_tol = default_band_tol(spectrum.metric.grid)
    members = np.abs(spectrum.vals - 1.0) <= band_tol
    vals = merged_spectrum(spectrum.vals)[0]
    band = [float(v) for v in vals if abs(v - 1.0) <= band_tol]
    if len(band) != 3:
        raise BandAmbiguity(
            f"holomorphic band holds {len(band)} eigenvalues "
            f"(band_tol = {band_tol:.3e}), expected 3")
    strays = [v for v in vals if band_tol < v < 1.0 - band_tol]
    if strays:
        raise BandAmbiguity(
            f"unexpected eigenvalue {strays[0]:.6g} below the band")
    above = vals[vals > 1.0 + band_tol]
    if len(above) == 0:
        raise BandAmbiguity("no eigenvalue above the holomorphic band")
    lam_g = float(above[0])
    if lam_g - (1.0 + band_tol) < 2.0 * band_tol:
        raise BandAmbiguity(
            f"gap {lam_g - 1.0 - band_tol:.3e} above the band is under "
            f"2 band_tol = {2 * band_tol:.3e}")
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


def eigen_data(spectrum: Spectrum, m: int, i: int) -> EigenData:
    """EigenData of the i-th pair of mode m."""
    return pair_data(spectrum.metric, m, float(spectrum.vals[m, i]),
                     spectrum.vecs[m][:, i])


def pair_data(metric: ConformalMetric, m: int, lam: float,
              vector: np.ndarray) -> EigenData:
    """Normalized eigenpair with its |dbar psi|^2 field, from one stored
    B-orthonormal pair (lam, vector) of mode m on metric.

    Normalization: (1/V) integral |psi|^2 e^{-u} dv = 1.  The weighted
    mean of the dbar_sq field reproduces the eigenvalue through
    integration by parts.
    """
    # solver vectors are B-orthonormal; the stated normalization needs V
    psi = vector * np.sqrt(metric.volume)
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
