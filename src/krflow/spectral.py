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
construction and the reduced pencil goes to a Sturm-bisection banded
eigensolver.

The structural self-test of the whole package lives here: on the
normalized class (volume 4 pi, u solved) three eigenvalues are pinned at
1, the holomorphic band, and the "second" eigenvalue lambda(g) is read
above that band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dlamch, dsbevx

from .geometry import (ConformalMetric, Grid, NumericalError, dtheta,
                       grad_norm_sq, legendre_profile, volume,
                       weighted_integral)

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
    """Lowest pairs per mode m = 0..N_MODES - 1, as mode_pairs solved them:
    vals has shape (N_MODES, K_PER_MODE), each row ascending, and vecs[m]
    is mode m's (n, K_PER_MODE) block of B-orthonormal eigenvectors.  A
    mode m > 0 stands for m and -m, which coincide.  u_values None is the
    unweighted case."""

    metric: ConformalMetric
    u_values: np.ndarray | None
    vals: np.ndarray
    vecs: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class EigenData:
    """One eigenpair normalized to (1/V) integral |psi|^2 e^{-u} dv = 1."""

    m: int
    lam: float
    psi: np.ndarray
    grad_bar_sq: np.ndarray
    rayleigh_residual: float


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


def assemble_mode_problem(metric: ConformalMetric, u: np.ndarray | None,
                          m: int) -> ModeProblem:
    """Stiffness bands and mass diagonal for Fourier mode m >= 0 on the
    nodal potential u, None for the unweighted operator.

    The derivative part of the form is sum over interior flux points of
    C_f (D R)_f^2 with the four-node flux quotient D; only the first and
    last flux touch ghost nodes, so the interior accumulates with plain
    slice arithmetic.
    """
    g = metric.grid
    n = g.n_nodes
    ht = 2.0 * np.sin(g.h / 2)  # cell width in the exact quadrature
    e = np.ones(n) if u is None else np.exp(-u)
    ebar = 0.5 * (e[:-1] + e[1:])
    cf = np.pi * ebar * g.sin_flux[1:-1] * ht  # weight per interior flux
    coefs = np.array(STENCIL_WEIGHTS) / (24.0 * g.h)
    parity = 1.0 if m % 2 == 0 else -1.0
    bands = np.zeros((BANDWIDTH + 1, n))
    # interior fluxes j = 2..n-2 never fold
    cint = cf[1:-1]
    for a in range(4):
        for b in range(a, 4):
            k = STENCIL_OFFSETS[b] - STENCIL_OFFSETS[a]
            lo = 2 + STENCIL_OFFSETS[a]
            bands[k, lo:lo + n - 3] += coefs[a] * coefs[b] * cint
    # folding fluxes j = 1 and j = n - 1
    for j, c in ((1, cf[0]), (n - 1, cf[-1])):
        legs = []
        for off, wgt in zip(STENCIL_OFFSETS, coefs):
            idx, sign = _fold(j + off, n, parity)
            legs.append((idx, sign * wgt))
        for a in range(4):
            for b in range(4):
                ia, va = legs[a]
                ib, vb = legs[b]
                if ia <= ib:
                    bands[ib - ia, ia] += c * va * vb
    if m != 0:
        bands[0] += np.pi * m * m * e * ht / g.sin_nodes
    mass = 2.0 * np.pi * e * np.exp(2.0 * metric.w) * g.quad_weights
    return ModeProblem(m=m, bands=bands, mass=mass)


def solve_mode(problem: ModeProblem, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of the generalized pencil (A, B), B diagonal.

    Reduction C = B^{-1/2} A B^{-1/2} preserves the bandwidth bw.  The
    eigenvalues come from the LAPACK expert driver ?sbevx without vectors:
    a band-to-tridiagonal reduction that never forms its orthogonal factor
    (O(n^2 bw) flops, O(n bw) memory), then Sturm bisection, which keeps
    the spectrum real and refinement monotone.  The eigenvectors come from
    banded inverse iteration, O(k n bw^2): the k shifted matrices
    C - lam_i I sit block-diagonally in one general band matrix, so one LU
    factorization and two solve sweeps (each block normalized after each
    sweep) serve all k pairs.  No step builds an n x n matrix.  The start
    vector is deterministic and not symmetric about the equator, so
    odd-parity eigenvectors of equator-symmetric metrics are not left to
    rounding noise.  Returned vectors are B-orthonormal.
    """
    n = problem.mass.size
    binv = 1.0 / np.sqrt(problem.mass)
    left = problem.bands * binv
    band = np.zeros((BANDWIDTH + 1, n))
    for kk in range(BANDWIDTH + 1):
        band[BANDWIDTH - kk, kk:] = left[kk, :n - kk] * binv[kk:]
    w, _, found, _, info = dsbevx(band, 0.0, 0.0, 1, k, compute_v=0,
                                  range=2, lower=0, abstol=_ABSTOL,
                                  overwrite_ab=0)
    if info != 0 or found < k:
        raise SolveFail(f"mode {problem.m} bisection returned {found} of {k}"
                        f" eigenvalues (info = {info})")
    vals = w[:k]
    if not np.isfinite(vals).all():
        raise SolveFail(f"mode {problem.m} produced non-finite eigenvalues")
    # general band storage, ab[2 bw + i - j, j] = (C - lam I)[i, j], with
    # bw spare rows on top for the pivoting fill; the upper rows of `band`
    # start with zeros, which are the cuts between blocks
    kl = BANDWIDTH
    ab = np.zeros((3 * kl + 1, k, n))
    ab[kl:2 * kl + 1] = band[:, None, :]
    for kk in range(1, kl + 1):
        ab[2 * kl + kk, :, :n - kk] = band[kl - kk, kk:]
    ab[2 * kl] -= vals[:, None]
    lu, piv, info = dgbtrf(ab.reshape(3 * kl + 1, k * n), kl, kl,
                           overwrite_ab=1)
    if info != 0:
        raise SolveFail(f"mode {problem.m} inverse iteration met a zero "
                        f"pivot (info = {info})")
    x = np.empty((k, n))
    x[:] = 1.0 + np.arange(n) / n
    for _ in range(2):
        x, info = dgbtrs(lu, kl, kl, x.reshape(k * n), piv, overwrite_b=1)
        x = x.reshape(k, n)
        x /= np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
    return vals, x.T * binv[:, None]


def apply_stiffness(problem: ModeProblem, vec: np.ndarray) -> np.ndarray:
    """A v for one vector or for an (n, k) block of column vectors."""
    bands = problem.bands if vec.ndim == 1 else problem.bands[:, :, None]
    out = bands[0] * vec
    n = vec.shape[0]
    for kk in range(1, BANDWIDTH + 1):
        out[:n - kk] += bands[kk, :n - kk] * vec[kk:]
        out[kk:] += bands[kk, :n - kk] * vec[:n - kk]
    return out


def rayleigh_residual(problem: ModeProblem, lam, vec: np.ndarray):
    """|| A v - lam B v || in the B^{-1} norm for a B-normalized vector;
    for an (n, k) block with k eigenvalues lam, one residual per column."""
    mass = problem.mass if vec.ndim == 1 else problem.mass[:, None]
    r = apply_stiffness(problem, vec) - lam * mass * vec
    return np.sqrt(np.sum(r * r / mass, axis=0))


def mode_pairs(metric: ConformalMetric, u: np.ndarray | None, m: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """solve_mode's lowest K_PER_MODE pairs of mode m on (metric, u), each
    checked against its Rayleigh residual; a NaN residual fails the check."""
    prob = assemble_mode_problem(metric, u, m)
    vals, vecs = solve_mode(prob, K_PER_MODE)
    res = rayleigh_residual(prob, vals, vecs)
    bad = ~(res <= RESIDUAL_TOL * np.maximum(1.0, np.abs(vals)))
    if bad.any():
        i = int(np.argmax(bad))
        raise SolveFail(
            f"mode {m} eigenpair {i} residual {res[i]:.2e} too large")
    return vals, vecs


def weighted_spectrum(metric: ConformalMetric, u: np.ndarray | None
                      ) -> Spectrum:
    """The checked eigenpairs of mode_pairs for every mode m < N_MODES."""
    vals, vecs = zip(*(mode_pairs(metric, u, m) for m in range(N_MODES)))
    return Spectrum(metric=metric, u_values=u, vals=np.array(vals),
                    vecs=vecs)


def merged_spectrum(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The merged spectrum of per-mode rows vals[m]: (eigenvalues, modes),
    ascending, with each m > 0 row entered twice (m and -m coincide); ties
    keep the order mode by mode."""
    k = vals.shape[1]
    modes = np.repeat(np.arange(len(vals)), [k] + [2 * k] * (len(vals) - 1))
    lams = np.concatenate([vals[0], *(np.repeat(row, 2) for row in vals[1:])])
    order = np.argsort(lams, kind="stable")
    return lams[order], modes[order]


def default_band_tol(grid: Grid) -> float:
    return 50.0 * grid.h ** 2


def lambda_second(spectrum: Spectrum, band_tol: float | None = None
                  ) -> tuple[float, list[float]]:
    """Extract lambda(g) above the holomorphic band pinned at 1.

    The band is every eigenvalue within band_tol of 1 and must contain
    exactly three members; lambda(g) is the smallest eigenvalue strictly
    above it, and its gap to the band edge must clear 2 band_tol.  Any
    other violation of the expected layout raises BandAmbiguity, the
    refusal path that tells the caller to refine.
    """
    if band_tol is None:
        band_tol = default_band_tol(spectrum.metric.grid)
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
    return lam_g, band


def dbar_sq(metric: ConformalMetric, psi: np.ndarray, m: int) -> np.ndarray:
    """|dbar psi|^2 = (1/2) e^{-2w} (R'^2 + m^2 R^2 / sin^2) of the mode-m
    profile R = psi."""
    g = metric.grid
    rp = dtheta(g, psi, parity=1 if m % 2 == 0 else -1)
    gb = 0.5 * np.exp(-2.0 * metric.w) * rp ** 2
    if m != 0:
        gb = gb + 0.5 * np.exp(-2.0 * metric.w) * (m * psi / g.sin_nodes) ** 2
    return gb


def eigen_data(spectrum: Spectrum, m: int, i: int) -> EigenData:
    """EigenData of the i-th pair of mode m."""
    return pair_data(spectrum.metric, spectrum.u_values, m,
                     float(spectrum.vals[m, i]), spectrum.vecs[m][:, i])


def pair_data(metric: ConformalMetric, u: np.ndarray | None, m: int,
              lam: float, vector: np.ndarray) -> EigenData:
    """Normalized eigenpair with its |dbar psi|^2 field, from one
    B-orthonormal solver pair of mode m on (metric, u).

    Normalization: (1/V) integral |psi|^2 e^{-u} dv = 1.  The weighted
    mean of the dbar_sq field reproduces the eigenvalue through
    integration by parts.
    """
    # solver vectors are B-orthonormal; the stated normalization needs V
    psi = vector * np.sqrt(volume(metric))
    gb = dbar_sq(metric, psi, m)
    prob = assemble_mode_problem(metric, u, m)
    res = float(rayleigh_residual(prob, lam, vector))
    return EigenData(m=m, lam=lam, psi=psi, grad_bar_sq=gb,
                     rayleigh_residual=res)


def band_eigen_data(spectrum: Spectrum, band_tol: float | None = None
                    ) -> list[EigenData]:
    """EigenData for the holomorphic-band members, mode by mode; a pair
    of mode m > 0 enters twice, as in the merged spectrum."""
    if band_tol is None:
        band_tol = default_band_tol(spectrum.metric.grid)
    out = []
    for m, row in enumerate(spectrum.vals):
        for i in np.flatnonzero(np.abs(row - 1.0) <= band_tol):
            out += [eigen_data(spectrum, m, i)] * (1 if m == 0 else 2)
    return out


def plain_lambda1(metric: ConformalMetric) -> float:
    """First positive eigenvalue of the unweighted complex Laplacian."""
    vals = merged_spectrum(weighted_spectrum(metric, None).vals)[0]
    zero_scale = max(abs(vals[0]), 1e-12)
    positive = vals[vals > 100.0 * zero_scale + 1e-10]
    return float(positive[0])


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
