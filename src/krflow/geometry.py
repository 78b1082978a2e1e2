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
from functools import cached_property

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
class ConformalMetric:
    """Axisymmetric metric g = e^{2w} g_round on the unit two-sphere
    (complex dimension one).  w is a read-only copy of the profile given,
    so the cached e2w, em2w, volume and curvature cannot go stale."""

    grid: Grid
    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.shape != (self.grid.n_nodes,):
            raise ValueError("conformal factor length does not match grid")
        if not np.all(np.isfinite(w)):
            raise ValueError("conformal factor must be finite")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @cached_property
    def e2w(self) -> np.ndarray:
        """e^{2w}, the density of dv against the round measure."""
        e2w = np.exp(2.0 * self.w)
        e2w.flags.writeable = False
        return e2w

    @cached_property
    def em2w(self) -> np.ndarray:
        """e^{-2w}, which turns round-sphere operators into those of g."""
        em2w = np.exp(-2.0 * self.w)
        em2w.flags.writeable = False
        return em2w

    @cached_property
    def volume(self) -> float:
        """Total volume 2 pi * integral e^{2w} sin(theta) dtheta."""
        return float(2.0 * np.pi * np.sum(self.e2w * self.grid.quad_weights))

    @cached_property
    def curvature(self) -> np.ndarray:
        """K = e^{-2w} (1 - lap_round w); equals the scalar curvature here."""
        k = self.em2w * (1.0 - laplace_round(self.grid, self.w))
        k.flags.writeable = False
        return k


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


def conformal_metric(grid: Grid, w: np.ndarray) -> ConformalMetric:
    """ConformalMetric of a profile from outside, checked at the poles.

    The extrapolated one-sided derivative of w must vanish within
    2 h (1 + osc w) + 2 |D4 w| / h at each pole, with D4 w the fourth
    difference of the five nodes next to it; a profile that is not even
    across a pole raises IrregularPole.  The D4 term grows with the
    curvature of a smooth even profile, whose slope error is O(h^3) times
    its fourth derivative, and vanishes on the linear and cubic part, so
    it cannot hide a tilt.
    """
    w = np.asarray(w, dtype=float)
    metric = ConformalMetric(grid=grid, w=w)
    base = 2.0 * grid.h * (1.0 + float(w.max() - w.min()))
    stencil = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
    for side, slope, end in zip(("north", "south"), pole_slopes(grid, w),
                                (w[:5], w[-5:])):
        tol = base + 2.0 * abs(float(stencil @ end)) / grid.h
        if abs(slope) > tol:
            raise IrregularPole(
                f"conformal factor irregular at the {side} pole: slope "
                f"{slope:.3e} exceeds {tol:.3e}")
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
    flux = np.zeros(f.shape[0] + 1)  # the two pole fluxes stay zero
    inner = flux[1:-1]
    np.subtract(f[1:], f[:-1], out=inner)
    np.multiply(sin_flux_interior, inner, out=inner)
    inner /= h
    out = np.subtract(flux[1:], flux[:-1])
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

def normalize_volume(metric: ConformalMetric) -> ConformalMetric:
    """Shift w by a constant so the volume is exactly 4*pi.

    Exact in one step: the volume is linear in e^{2w}.
    """
    c = 0.5 * np.log(ROUND_VOLUME / metric.volume)
    return ConformalMetric(grid=metric.grid, w=metric.w + c)


def weighted_integral(f: np.ndarray, metric: ConformalMetric) -> float:
    """integral f dv_g of nodal values f by grid quadrature."""
    return float(2.0 * np.pi * np.sum(f * metric.e2w
                                      * metric.grid.quad_weights))


def grad_norm_sq(f: np.ndarray, metric: ConformalMetric) -> np.ndarray:
    """Complex gradient-norm square |grad f|^2 = (1/2) e^{-2w} (f')^2."""
    return 0.5 * metric.em2w * dtheta(metric.grid, f) ** 2


def measured_calabi(metric: ConformalMetric) -> float:
    """(1/V) integral (K - 1)^2 dv, the scalar-curvature energy datum."""
    return (weighted_integral((metric.curvature - 1.0) ** 2, metric)
            / metric.volume)


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
    k = metric.curvature
    return float(k.min()), float(k.max())


def check_scale(metric: ConformalMetric, rho: float) -> None:
    """Raise ScaleOutOfRange unless 0 < rho <= diam/2 (a NaN rho fails)."""
    diam = diameter(metric)
    if not 0.0 < rho <= 0.5 * diam:
        raise ScaleOutOfRange(
            f"rho = {rho} must lie in (0, {0.5 * diam:.6g}], half the "
            "diameter")


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
    vol_total = metric.volume
    r = np.geomspace(rho / 100.0, rho, N_RADII)
    flux_angles = np.arange(g.n_nodes + 1) * g.h  # measured from the pole
    kappa = np.inf
    ew_nodes = np.exp(metric.w)
    for order in (slice(None), slice(None, None, -1)):  # north, south
        ew = ew_nodes[order]
        e2w = metric.e2w[order]
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
