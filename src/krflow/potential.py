"""Ricci potential solve and the scalar functionals built from it.

The potential u solves the trace equation (complex convention)
(1/2) lap_g u = 1 - K together with the weighted-volume normalization
(1/V) integral e^{-u} dv = 1.  Axisymmetry reduces the PDE to one flux
integration: sin(theta) u'(theta) is the cumulative integral of
2 (1 - K) e^{2w} sin(theta), so the solve is a double quadrature and is
exact for the discrete operator.  Solvability requires the volume to be
4*pi (the discrete Gauss-Bonnet identity is exact, see geometry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import flux_potential
from .geometry import (ConformalMetric, NumericalError, ROUND_VOLUME, dtheta,
                       grad_norm_sq, laplace_round, weighted_integral)


VOLUME_TOL = 1e-8  # |V - 4 pi| / 4 pi past which the solve refuses


class VolumeMismatch(NumericalError):
    """The metric's volume is off 4*pi: the trace equation has no solution.

    Signals that a metric left the normalized class.
    """


class NormalizationFail(NumericalError):
    """The normalization constant could not be bracketed (cannot occur for
    finite input; kept as a loud assertion)."""


class DomainError(ValueError):
    """Argument outside the domain of an explicit formula."""


@dataclass(frozen=True)
class RicciPotential:
    """Solved potential: nodal values, normalization constant, residuals,
    and the weight emu = e^{-u} (read-only) of every integral against
    e^{-u} dv."""

    values: np.ndarray
    norm_const: float
    pde_residual: float
    norm_residual: float
    emu: np.ndarray


@dataclass(frozen=True)
class FunctionalBundle:
    """Every scalar functional of (g, u) the monitors consume."""

    a: float
    Y: float
    Z: float
    osc_u: float
    c0_u_minus_a: float
    grad_u_c0: float
    delta_prime_0: float


def solve_ricci_potential(metric: ConformalMetric) -> RicciPotential:
    """Solve the potential problem for one metric by double quadrature.

    Raises VolumeMismatch when |V - 4 pi| > VOLUME_TOL * 4 pi, the discrete
    solvability obstruction.  The right-hand side is projected onto the
    solvability constraint before integrating, and the PDE residual is
    measured against the unprojected equation, so a volume defect shows.
    """
    vol = metric.volume
    if abs(vol - ROUND_VOLUME) > VOLUME_TOL * ROUND_VOLUME:
        raise VolumeMismatch(
            f"volume {vol:.12g} is off 4*pi by {vol - ROUND_VOLUME:.3e}; "
            "the metric left the normalized class")
    grid, w = metric.grid, metric.w
    hs = grid.h * grid.sin_nodes
    e2w, g, u0 = flux_potential(w, grid.h, grid.sin_flux[1:-1], hs, hs.sum())
    rhs = 2.0 * g  # 2 (1 - K) e^{2w}
    c = math.log(weighted_integral(np.exp(-u0), metric) / vol)
    u = u0 + c
    pde_res = float(np.max(np.abs(
        laplace_round(grid, u) - rhs)) / max(1.0, np.max(np.abs(e2w))))
    emu = np.exp(-u)
    emu.flags.writeable = False
    norm_res = abs(weighted_mean(1.0, emu, metric) - 1.0)
    if not np.all(np.isfinite(u)):
        raise NormalizationFail("potential solve produced non-finite values")
    return RicciPotential(values=u, norm_const=c, pde_residual=pde_res,
                          norm_residual=norm_res, emu=emu)


def weighted_mean(f, emu: np.ndarray, metric: ConformalMetric) -> float:
    """(1/V) integral f e^{-u} dv, for f and emu = e^{-u} at the nodes."""
    return weighted_integral(f * emu, metric) / metric.volume


def delta_prime(a: float, s: float) -> float:
    """Spectral-gap sharpening a / (1 + e^s + a e^s).

    Increasing in a, decreasing in s.  Nonnegative arguments only;
    the boundary values a = 0 and s = 0 are allowed.
    """
    if a < 0.0 or s < 0.0:
        raise DomainError(f"delta_prime needs a, s >= 0, got ({a}, {s})")
    es = math.exp(s)
    return a / (1.0 + es + a * es)


def futaki_integrals(u: np.ndarray,
                     metric: ConformalMetric) -> tuple[float, float, float]:
    """Futaki pairings integral X(u) dv over a holomorphic basis.

    Components: the rotation field (X(u) vanishes pointwise for
    axisymmetric data, so its pairing is exactly 0), the meridian dilation
    field whose potential is the axial degree-1 harmonic
    (X(u) = (1/2) sin(theta) u'; the quadrature is nontrivial and the
    integral vanishes only by the character identity), and the off-axis
    gradient pair (its profile integral is multiplied by the azimuthal
    average (1/2pi) integral_0^{2pi} e^{i phi} d phi = 0, so its pairing
    is exactly 0 too).
    """
    g = metric.grid
    up = dtheta(g, u)
    dilation = weighted_integral(0.5 * g.sin_nodes * up, metric)
    return 0.0, float(dilation), 0.0


def complex_hessian_norms(u: np.ndarray, metric: ConformalMetric
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise |mixed Hessian|^2 and |(2,0) Hessian|^2 of a scalar.

    In complex dimension one the mixed part is the complex Laplacian
    squared, ((1/2) e^{-2w} lap_round u)^2, and the (2,0) part is the
    squared trace-free real Hessian in the orthonormal frame, halved:
    (1/4) e^{-4w} (u'' - (2 w' + cot) u')^2.  The bound
    (complex Laplacian)^2 <= n |mixed|^2 is equality here.
    """
    mixed = (0.5 * laplace_round(metric.grid, u) / metric.e2w) ** 2
    return mixed, hessian_t20(u, metric) ** 2


def hessian_t20(u: np.ndarray, metric: ConformalMetric) -> np.ndarray:
    """Signed trace-free Hessian scalar t20 with |(2,0) Hessian|^2 = t20^2."""
    g = metric.grid
    up = dtheta(g, u)
    wp = dtheta(g, metric.w)
    cot = g.cos_nodes / g.sin_nodes
    # u'' from the flux Laplacian: u'' = lap_round u - cot u'
    upp = laplace_round(g, u) - cot * up
    return 0.5 * (upp - (2.0 * wp + cot) * up) / metric.e2w


def functional_bundle(potential: RicciPotential, metric: ConformalMetric,
                      lambda_g: float) -> FunctionalBundle:
    """Assemble every scalar functional of a solved state; the one
    definition of a = (1/V) int u e^{-u} dv (Jensen gives a <= 0), of the
    Lyapunov functional Y = (1/V) int (u - a)^2 e^{-u} dv and of
    Z = (1/V) int |grad u|^2 e^{-u} dv (complex gradient norm).

    delta_prime_0 is delta_prime of the gap lambda_g - 1, clipped at 0.
    """
    u, emu = potential.values, potential.emu
    a = weighted_mean(u, emu, metric)
    y = weighted_mean((u - a) ** 2, emu, metric)
    grad_sq = grad_norm_sq(u, metric)  # for Z and for its C0 norm
    z = weighted_mean(grad_sq, emu, metric)
    osc = float(u.max() - u.min())
    c0 = float(np.max(np.abs(u - a)))
    gc0 = float(np.sqrt(np.max(grad_sq)))
    dp0 = delta_prime(max(lambda_g - 1.0, 0.0), osc)
    return FunctionalBundle(a=a, Y=y, Z=z, osc_u=osc, c0_u_minus_a=c0,
                            grad_u_c0=gc0, delta_prime_0=dp0)
