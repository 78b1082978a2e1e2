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
from .geometry import (ConformalMetric, NumericalError, ROUND_VOLUME,
                       complex_laplacian, dtheta, float_or_rows, grad_norm_sq,
                       laplace_round, libm_log, per_row, weighted_integral)


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
    """Solved potential: nodal values, normalization constant and the
    weight emu = e^{-u} (read-only) of every integral against e^{-u} dv."""

    values: np.ndarray
    norm_const: float
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
    """Solve the potential problem for one metric by double quadrature, or
    for each row of the geometry.Rows of several metrics: then every field
    holds one row per metric (geometry.split_rows).

    Raises VolumeMismatch when |V - 4 pi| > VOLUME_TOL * 4 pi, the discrete
    solvability obstruction, for the first row that fails it.  The
    right-hand side is projected onto the solvability constraint before
    integrating.
    """
    vol = metric.volume
    bad = np.flatnonzero(np.abs(vol - ROUND_VOLUME)
                         > VOLUME_TOL * ROUND_VOLUME)
    if bad.size:
        v = np.ravel(vol)[bad[0]]
        raise VolumeMismatch(
            f"volume {v:.12g} is off 4*pi by {v - ROUND_VOLUME:.3e}; "
            "the metric left the normalized class")
    _, u0 = flux_potential(metric.grid, metric.w, metric.e2w)
    c = float_or_rows(libm_log(weighted_integral(np.exp(-u0), metric) / vol))
    u = u0 + per_row(c)
    emu = np.exp(-u)
    emu.flags.writeable = False
    if not np.all(np.isfinite(u)):
        raise NormalizationFail("potential solve produced non-finite values")
    return RicciPotential(values=u, norm_const=c, emu=emu)


def weighted_mean(f, emu: np.ndarray, metric: ConformalMetric):
    """(1/V) integral f e^{-u} dv, for f and emu = e^{-u} at the nodes: a
    float, or one value per row of a stack (geometry.Rows)."""
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


def futaki_dilation(u: np.ndarray, metric: ConformalMetric) -> float:
    """Futaki pairing integral X(u) dv of the meridian dilation field,
    whose potential is the axial degree-1 harmonic: X(u) = (1/2)
    sin(theta) u'.  The quadrature is nontrivial and the integral vanishes
    only by the character identity.  The other holomorphic fields pair to
    zero by construction on axisymmetric data, so this is the one pairing
    to measure.
    """
    g = metric.grid
    up = dtheta(g, u)
    return weighted_integral(0.5 * g.sin_nodes * up, metric)


def complex_hessian_norms(u: np.ndarray, metric: ConformalMetric
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise |mixed Hessian|^2 and |(2,0) Hessian|^2 of a scalar, or of
    each row of a stack on the metric rows.

    In complex dimension one the mixed part is the complex Laplacian
    squared, ((1/2) e^{-2w} lap_round u)^2, and the (2,0) part is the
    squared trace-free real Hessian in the orthonormal frame, halved:
    (1/4) e^{-4w} (u'' - (2 w' + cot) u')^2.  The bound
    (complex Laplacian)^2 <= n |mixed|^2 is equality here.  lap_round u
    is evaluated once for both.
    """
    g = metric.grid
    lap = laplace_round(g, u)
    return (complex_laplacian(metric, u, lap) ** 2,
            hessian_t20(u, metric, dtheta(g, u), lap) ** 2)


def hessian_t20(u: np.ndarray, metric: ConformalMetric, up: np.ndarray,
                lap: np.ndarray) -> np.ndarray:
    """Signed trace-free Hessian scalar t20 with |(2,0) Hessian|^2 = t20^2,
    from up = dtheta(grid, u) and lap = laplace_round(grid, u), which the
    caller has: each caller needs lap for the complex Laplacian as well."""
    g = metric.grid
    wp = dtheta(g, metric.w)
    cot = g.cos_nodes / g.sin_nodes
    # u'' from the flux Laplacian: u'' = lap_round u - cot u'
    upp = lap - cot * up
    return 0.5 * (upp - (2.0 * wp + cot) * up) / metric.e2w


def functional_bundle(potential: RicciPotential, metric: ConformalMetric,
                      lambda_g) -> FunctionalBundle:
    """Assemble every scalar functional of a solved state; the one
    definition of a = (1/V) int u e^{-u} dv (Jensen gives a <= 0), of the
    Lyapunov functional Y = (1/V) int (u - a)^2 e^{-u} dv and of
    Z = (1/V) int |grad u|^2 e^{-u} dv (complex gradient norm).  For the
    stacked potential of metric rows (geometry.Rows) and one lambda_g per
    row, every field holds one value per row.

    delta_prime_0 is delta_prime of the gap lambda_g - 1, clipped at 0.
    """
    u, emu = potential.values, potential.emu
    a = weighted_mean(u, emu, metric)
    y = weighted_mean((u - per_row(a)) ** 2, emu, metric)
    grad_sq = grad_norm_sq(u, metric)  # for Z and for its C0 norm
    z = weighted_mean(grad_sq, emu, metric)
    osc = float_or_rows(u.max(axis=-1) - u.min(axis=-1))
    c0 = float_or_rows(np.max(np.abs(u - per_row(a)), axis=-1))
    gc0 = float_or_rows(np.sqrt(np.max(grad_sq, axis=-1)))
    dp0 = float_or_rows(_delta_prime_rows(np.maximum(lambda_g - 1.0, 0.0),
                                          osc))
    return FunctionalBundle(a=a, Y=y, Z=z, osc_u=osc, c0_u_minus_a=c0,
                            grad_u_c0=gc0, delta_prime_0=dp0)


# delta_prime row by row: math.exp keeps the bits of one state
_delta_prime_rows = np.vectorize(delta_prime, otypes=[float])
