"""Discretized axisymmetric geometry on the two-sphere.

Metrics are stored as a conformal factor against the round unit sphere,
g = e^{2w} g_round, sampled on a staggered polar grid theta_j = (j + 1/2) h
so that no node touches a pole.  Everything in this package follows one
convention sheet:

* complex Laplacian = (1/2) * (real Laplace-Beltrami operator),
* scalar curvature = Gaussian curvature K; the Einstein value is K = 1,
* gradient norms are complex: |grad f|^2 = (1/2) e^{-2w} (df/dtheta)^2,
  half of the real Riemannian norm,
* the normalized class has volume 4*pi.

The quadrature weights are the exact cell integrals of sin(theta),
q_j = cos(j h) - cos((j+1) h) = 2 sin(h/2) sin(theta_j).  They sum to 2
exactly, and because they are proportional to sin(theta_j) the flux-form
Laplacian below telescopes exactly against them.  Two structural
consequences: the discrete Gauss-Bonnet identity integral(K dv) = 4*pi
holds to rounding for every metric, and the flow module inherits exact
volume conservation at the semi-discrete level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre

MIN_NODES = 16
ROUND_VOLUME = 4.0 * np.pi
N_RADII = 48  # ball radii per pole in noncollapsing_kappa


class ConfigError(Exception):
    """A configuration mistake; every subclass exits with code 2."""


class NumericalError(Exception):
    """A failure of the numerics; every subclass exits with code 3."""


class ScaleOutOfRange(ConfigError, ValueError):
    """A non-collapsing scale rho outside (0, diam/2]."""


class IrregularPole(ConfigError, ValueError):
    """A conformal factor that is not even across a pole."""


@dataclass(frozen=True)
class Grid:
    """Staggered polar grid on (0, pi) with sin-weighted quadrature."""

    n_nodes: int
    h: float
    theta_nodes: np.ndarray
    quad_weights: np.ndarray
    # sin(theta) at the flux points j*h, j = 0..n; zero at both poles
    sin_flux: np.ndarray
    sin_nodes: np.ndarray = field(repr=False, default=None)

    @property
    def cos_nodes(self):
        return np.cos(self.theta_nodes)


def make_grid(n_nodes: int) -> Grid:
    """Build the staggered grid with n_nodes interior nodes.

    Grids below MIN_NODES are rejected: the pole-regularity checks are
    meaningless at such resolutions.
    """
    if n_nodes < MIN_NODES:
        raise ValueError(f"n_nodes = {n_nodes} below minimum {MIN_NODES}")
    h = np.pi / n_nodes
    theta = (np.arange(n_nodes) + 0.5) * h
    quad = 2.0 * np.sin(h / 2) * np.sin(theta)
    sin_flux = np.sin(np.arange(n_nodes + 1) * h)
    sin_flux[0] = 0.0
    sin_flux[-1] = 0.0
    return Grid(n_nodes=n_nodes, h=h, theta_nodes=theta, quad_weights=quad,
                sin_flux=sin_flux, sin_nodes=np.sin(theta))


@dataclass(frozen=True)
class ScalarField:
    """Real scalar sampled at the grid nodes."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if np.shape(self.values) != (self.grid.n_nodes,):
            raise ValueError("field length does not match grid")


@dataclass(frozen=True)
class ConformalMetric:
    """Axisymmetric metric g = e^{2w} g_round on the unit two-sphere
    (complex dimension one)."""

    grid: Grid
    w: np.ndarray

    def __post_init__(self):
        if np.shape(self.w) != (self.grid.n_nodes,):
            raise ValueError("conformal factor length does not match grid")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("conformal factor must be finite")


def pole_slopes(grid: Grid, values: np.ndarray) -> tuple[float, float]:
    """Quadratic-fit derivative of a nodal profile extrapolated to each pole.

    For profiles even across a pole the fit slope is O(h^3); profiles with
    an odd component at the pole give an O(1) slope, which is what the
    regularity check catches.
    """
    v = np.asarray(values, dtype=float)
    h = grid.h
    north = (3.0 * v[1] - 2.0 * v[0] - v[2]) / h
    south = -(3.0 * v[-2] - 2.0 * v[-1] - v[-3]) / h
    return north, south


def conformal_metric(grid: Grid, w: np.ndarray, check_poles: bool = True,
                     pole_tol: float | None = None) -> ConformalMetric:
    """Validated constructor for ConformalMetric.

    The pole check requires the extrapolated one-sided derivative of w to
    vanish within pole_tol (default 2 h (1 + osc w)), rejecting profiles
    that are not even across a pole with IrregularPole.
    """
    w = np.asarray(w, dtype=float)
    metric = ConformalMetric(grid=grid, w=w)
    if check_poles:
        if pole_tol is None:
            pole_tol = 2.0 * grid.h * (1.0 + float(w.max() - w.min()))
        north, south = pole_slopes(grid, w)
        if abs(north) > pole_tol or abs(south) > pole_tol:
            raise IrregularPole(
                f"conformal factor irregular at a pole: slopes "
                f"({north:.3e}, {south:.3e}) exceed {pole_tol:.3e}")
    return metric


def round_metric(grid: Grid) -> ConformalMetric:
    return ConformalMetric(grid=grid, w=np.zeros(grid.n_nodes))


def legendre_profile(grid: Grid, l: int, amplitude: float) -> np.ndarray:
    """amplitude * P_l(cos theta) at the nodes."""
    c = np.zeros(l + 1)
    c[l] = 1.0
    return amplitude * legendre.legval(grid.cos_nodes, c)


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

def flux_laplacian(f, h, sin_flux_interior, hs):
    """laplace_round on raw arrays: sin(theta) at the n - 1 interior flux
    points (the pole fluxes are zero) and hs = h sin(theta_j)."""
    flux = sin_flux_interior * np.diff(f) / h
    out = np.empty_like(f)
    out[0] = flux[0]
    out[1:-1] = np.diff(flux)
    out[-1] = -flux[-1]
    out /= hs
    return out


def laplace_round(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Flux-form round-sphere Laplace-Beltrami (1/sin) d/dtheta (sin d/dtheta).

    The pole fluxes vanish identically (sin = 0 there), which encodes the
    regularity condition without special-casing.  Summation against
    h*sin(theta_j), hence against the quadrature weights, telescopes to
    zero exactly.
    """
    return flux_laplacian(np.asarray(values, dtype=float), grid.h,
                          grid.sin_flux[1:-1], grid.h * grid.sin_nodes)


def dtheta(grid: Grid, values: np.ndarray, parity: int = 1) -> np.ndarray:
    """Centered theta-derivative with parity ghost nodes at the poles.

    parity +1 reflects evenly (regular axisymmetric scalars), parity -1
    oddly (radial profiles of Fourier modes with odd m).
    """
    f = np.asarray(values, dtype=float)
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * grid.h)
    g[0] = (f[1] - parity * f[0]) / (2.0 * grid.h)
    g[-1] = (parity * f[-1] - f[-2]) / (2.0 * grid.h)
    return g


# ---------------------------------------------------------------------------
# curvature, measure, distances
# ---------------------------------------------------------------------------

def gaussian_curvature(metric: ConformalMetric) -> ScalarField:
    """K = e^{-2w} (1 - lap_round w); equals the scalar curvature here."""
    g = metric.grid
    k = np.exp(-2.0 * metric.w) * (1.0 - laplace_round(g, metric.w))
    return ScalarField(grid=g, values=k)


def volume(metric: ConformalMetric) -> float:
    """Total volume 2 pi * integral e^{2w} sin(theta) dtheta."""
    g = metric.grid
    return float(2.0 * np.pi * np.sum(np.exp(2.0 * metric.w) * g.quad_weights))


def normalize_volume(metric: ConformalMetric) -> ConformalMetric:
    """Shift w by a constant so the volume is exactly 4*pi.

    Exact in one step: the volume is linear in e^{2w}.
    """
    c = 0.5 * np.log(ROUND_VOLUME / volume(metric))
    return ConformalMetric(grid=metric.grid, w=metric.w + c)


def _nodal(f, grid: Grid) -> np.ndarray:
    """Extract nodal values, insisting on a shared grid for fields."""
    if isinstance(f, ScalarField):
        if f.grid.n_nodes != grid.n_nodes:
            raise ValueError("field and metric live on different grids")
        return f.values
    return np.asarray(f, dtype=float)


def weighted_integral(f, metric: ConformalMetric, weight=None) -> float:
    """integral f * weight dv_g by grid quadrature; weight None means 1."""
    g = metric.grid
    fv = _nodal(f, g)
    wv = _nodal(weight, g) if weight is not None else 1.0
    integrand = fv * wv * np.exp(2.0 * metric.w) * g.quad_weights
    return float(2.0 * np.pi * np.sum(integrand))


def grad_norm_sq(f, metric: ConformalMetric) -> ScalarField:
    """Complex gradient-norm square |grad f|^2 = (1/2) e^{-2w} (f')^2."""
    g = metric.grid
    fp = dtheta(g, _nodal(f, g))
    return ScalarField(grid=g, values=0.5 * np.exp(-2.0 * metric.w) * fp ** 2)


def measured_calabi(metric: ConformalMetric) -> float:
    """(1/V) integral (K - 1)^2 dv, the scalar-curvature energy datum."""
    k = gaussian_curvature(metric).values
    return weighted_integral((k - 1.0) ** 2, metric) / volume(metric)


def grad_c0_norm(f, metric: ConformalMetric) -> float:
    """C0 norm of the complex gradient: sqrt of the max of |grad f|^2."""
    return float(np.sqrt(np.max(grad_norm_sq(f, metric).values)))


def diameter(metric: ConformalMetric) -> float:
    """Lower-bound diameter proxy.

    Maximum of the pole-to-pole meridian length and half the largest
    latitude circumference.  The meridian length is the exact pole-to-pole
    distance for any axisymmetric metric; the proxy agrees with the true
    diameter to second order for metrics near the round one.
    """
    g = metric.grid
    ew = np.exp(metric.w)
    meridian = float(np.sum(ew) * g.h)
    belt = float(np.max(np.pi * ew * g.sin_nodes))
    return max(meridian, belt)


def curvature_bounds(metric: ConformalMetric) -> tuple[float, float]:
    k = gaussian_curvature(metric).values
    return float(k.min()), float(k.max())


def check_scale(metric: ConformalMetric, rho: float) -> None:
    """Raise ScaleOutOfRange unless 0 < rho <= diam/2."""
    if rho <= 0.0:
        raise ScaleOutOfRange(f"rho = {rho} must be positive")
    diam = diameter(metric)
    if rho > 0.5 * diam:
        raise ScaleOutOfRange(
            f"rho = {rho} exceeds half the diameter {diam:.6g}")


def noncollapsing_kappa(metric: ConformalMetric, rho: float) -> float:
    """Worst pole-centered volume ratio Vol(B(r)) / (V r^2) over r <= rho.

    Radial distances from a pole are exact for axisymmetric metrics, so
    the two poles are the only centers sampled; the shipped perturbation
    families place the extrema of the Ricci potential there.  r runs over
    N_RADII log-spaced radii in [rho/100, rho].  Full cells use the exact
    sin-integral weights; the partial cell is integrated in angle up to the
    inverted arclength, which keeps the correct r^2 behavior for radii
    inside the first cell.  A radius past the far pole (a thin equatorial
    belt can make diam/2 longer than the meridian) holds the whole volume.
    """
    check_scale(metric, rho)
    g = metric.grid
    vol_total = volume(metric)
    r = np.geomspace(rho / 100.0, rho, N_RADII)
    flux_angles = np.arange(g.n_nodes + 1) * g.h  # measured from the pole
    kappa = np.inf
    for order in (slice(None), slice(None, None, -1)):  # north, south
        ew = np.exp(metric.w)[order]
        e2w = np.exp(2.0 * metric.w)[order]
        radii = np.concatenate(([0.0], np.cumsum(ew * g.h)))
        cum_vol = np.concatenate(
            ([0.0], np.cumsum(2.0 * np.pi * e2w * g.quad_weights)))
        j = np.minimum(np.searchsorted(radii, r, side="right") - 1,
                       g.n_nodes - 1)
        theta_r = flux_angles[j] + (r - radii[j]) / ew[j]
        partial = 2.0 * np.pi * e2w[j] * (np.cos(flux_angles[j])
                                          - np.cos(theta_r))
        ball = np.where(r >= radii[-1], cum_vol[-1], cum_vol[j] + partial)
        kappa = min(kappa, float(np.min(ball / (vol_total * r * r))))
    return float(kappa)
