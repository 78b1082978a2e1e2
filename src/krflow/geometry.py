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

import math
from dataclasses import dataclass, field, fields
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
    """Staggered polar grid on (0, pi) with sin-weighted quadrature, and
    the constants of its flux-form Laplacian, each built once."""

    n_nodes: int
    h: float
    theta_nodes: np.ndarray
    quad_weights: np.ndarray
    # sin(theta) at the flux points j*h, j = 0..n; zero at both poles
    sin_flux: np.ndarray
    sin_nodes: np.ndarray = field(repr=False)
    cos_nodes: np.ndarray = field(repr=False)
    # h sin(theta_j), the divisor of laplace_round, and its sum
    hs: np.ndarray = field(repr=False)
    hs_sum: float = field(repr=False)
    # (lower, diagonal, upper) bands of laplace_round L: row j reaches
    # nodes j -/+ 1 through the fluxes at j h and (j + 1) h, so each row's
    # off-diagonal sum is -L_jj
    lap_bands: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)


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
    sin_nodes, cos_nodes = np.sin(theta), np.cos(theta)
    hs = h * sin_nodes
    hh = h * h * sin_nodes
    lap_bands = (sin_flux[1:-1] / hh[1:], -(sin_flux[:-1] + sin_flux[1:]) / hh,
                 sin_flux[1:-1] / hh[:-1])
    # every caller shares these arrays, so none may write into them
    for a in (theta, quad, sin_flux, sin_nodes, cos_nodes, hs, *lap_bands):
        a.flags.writeable = False
    return Grid(n_nodes=n_nodes, h=h, theta_nodes=theta, quad_weights=quad,
                sin_flux=sin_flux, sin_nodes=sin_nodes, cos_nodes=cos_nodes,
                hs=hs, hs_sum=float(np.sum(hs)), lap_bands=lap_bands)


@dataclass(frozen=True)
class ConformalMetric:
    """Axisymmetric metric g = e^{2w} g_round on the unit two-sphere
    (complex dimension one).  w is a read-only copy of the profile given,
    so the cached ew, e2w, em2w, volume and curvature cannot go stale."""

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
    def ew(self) -> np.ndarray:
        """e^{w}, the density of arclength against the round one."""
        ew = np.exp(self.w)
        ew.flags.writeable = False
        return ew

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
    it cannot hide a tilt.  A smooth even profile whose feature near a pole
    spans a few nodes is refused too: the message says so, with grid_n.
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
                f"conformal factor irregular at the {side} pole at grid_n "
                f"= {grid.n_nodes}: slope {slope:.3e} exceeds {tol:.3e}; "
                "a profile that is not even across the pole, or a smooth "
                "even profile too steep for this grid, which needs a finer "
                "grid_n")
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

def laplace_round(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Flux-form round-sphere Laplace-Beltrami (1/sin) d/dtheta (sin d/dtheta)
    along the last axis, so a (rows, n) stack gives one row per profile.

    The pole fluxes vanish identically (sin = 0 there), which encodes the
    regularity condition without special-casing.  Summation against
    h*sin(theta_j), hence against the quadrature weights, telescopes to
    zero exactly.
    """
    f = np.asarray(values, dtype=float)
    flux = np.zeros(f.shape[:-1] + (f.shape[-1] + 1,))  # pole fluxes stay 0
    inner = flux[..., 1:-1]
    np.subtract(f[..., 1:], f[..., :-1], out=inner)
    np.multiply(grid.sin_flux[1:-1], inner, out=inner)
    inner /= grid.h
    out = np.subtract(flux[..., 1:], flux[..., :-1])
    out /= grid.hs
    return out


def complex_laplacian(metric: ConformalMetric, f: np.ndarray,
                      lap: np.ndarray | None = None) -> np.ndarray:
    """Complex Laplacian (1/2) e^{-2w} lap_round f of the metric; lap is
    laplace_round(grid, f) when the caller already has it."""
    if lap is None:
        lap = laplace_round(metric.grid, f)
    return 0.5 * metric.em2w * lap


def dtheta(grid: Grid, values: np.ndarray, parity: int = 1) -> np.ndarray:
    """Centered theta-derivative with parity ghost nodes at the poles, along
    the last axis.

    parity +1 reflects evenly (regular axisymmetric scalars), parity -1
    oddly (radial profiles of Fourier modes with odd m).
    """
    f = np.asarray(values, dtype=float)
    g = np.empty_like(f)
    g[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * grid.h)
    g[..., 0] = (f[..., 1] - parity * f[..., 0]) / (2.0 * grid.h)
    g[..., -1] = (parity * f[..., -1] - f[..., -2]) / (2.0 * grid.h)
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


def weighted_integral(f: np.ndarray, metric: ConformalMetric):
    """integral f dv_g of nodal values f by grid quadrature, along the last
    axis: a float for one profile, one value per row for a stack."""
    return float_or_rows(2.0 * np.pi * np.sum(
        f * metric.e2w * metric.grid.quad_weights, axis=-1))


def grad_norm_sq(f: np.ndarray, metric: ConformalMetric) -> np.ndarray:
    """Complex gradient-norm square |grad f|^2 = (1/2) e^{-2w} (f')^2."""
    return 0.5 * metric.em2w * dtheta(metric.grid, f) ** 2


def measured_calabi(metric: ConformalMetric) -> float:
    """(1/V) integral (K - 1)^2 dv, the scalar-curvature energy datum."""
    return (weighted_integral((metric.curvature - 1.0) ** 2, metric)
            / metric.volume)


def diameter(metric: ConformalMetric):
    """Lower-bound diameter proxy, one value per row of a stack.

    Maximum of the pole-to-pole meridian length and half the largest
    latitude circumference.  The meridian length is the exact pole-to-pole
    distance for any axisymmetric metric; the proxy agrees with the true
    diameter to second order for metrics near the round one.
    """
    g = metric.grid
    ew = metric.ew
    meridian = np.sum(ew, axis=-1) * g.h
    belt = np.max(np.pi * ew * g.sin_nodes, axis=-1)
    return float_or_rows(np.maximum(meridian, belt))


def curvature_bounds(metric: ConformalMetric):
    k = metric.curvature
    return float_or_rows(k.min(axis=-1)), float_or_rows(k.max(axis=-1))


def check_scale(metric: ConformalMetric, rho: float) -> None:
    """Raise ScaleOutOfRange unless 0 < rho <= diam/2 (a NaN rho fails);
    of a stack, the first row that refuses rho raises."""
    half = 0.5 * np.ravel(diameter(metric))
    bad = np.flatnonzero(~((0.0 < rho) & (rho <= half)))
    if bad.size:
        raise ScaleOutOfRange(
            f"rho = {rho} must lie in (0, {half[bad[0]]:.6g}], half the "
            "diameter")


def noncollapsing_kappa(metric: ConformalMetric, rho: float):
    """Worst pole-centered volume ratio Vol(B(r)) / (V r^2) over r <= rho,
    one value per row of a stack.

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
    vol_total = per_row(metric.volume)
    r = np.geomspace(rho / 100.0, rho, N_RADII)
    flux_angles = np.arange(g.n_nodes + 1) * g.h  # measured from the pole
    kappa = np.inf
    for order in (slice(None), slice(None, None, -1)):  # north, south
        ew = metric.ew[..., order]
        e2w = metric.e2w[..., order]
        radii = _cumsum_from_zero(ew * g.h)
        cum_vol = _cumsum_from_zero(2.0 * np.pi * e2w * g.quad_weights)
        j = np.minimum(_count_at_most(radii, r) - 1, g.n_nodes - 1)
        radii_j = np.take_along_axis(radii, j, axis=-1)
        ew_j = np.take_along_axis(ew, j, axis=-1)
        e2w_j = np.take_along_axis(e2w, j, axis=-1)
        theta_r = flux_angles[j] + (r - radii_j) / ew_j
        partial = 2.0 * np.pi * e2w_j * (np.cos(flux_angles[j])
                                         - np.cos(theta_r))
        ball = np.where(r >= radii[..., -1:], cum_vol[..., -1:],
                        np.take_along_axis(cum_vol, j, axis=-1) + partial)
        kappa = np.minimum(kappa, np.min(ball / (vol_total * r * r), axis=-1))
    return float_or_rows(kappa)


def _count_at_most(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """For each row of ascending edges, how many are <= each of the
    ascending x: searchsorted(row, x, side="right") of every row at once.
    An edge is <= x[i] exactly when i is at least its rank, the count of
    x below it, so the counts are running sums of the ranks' histogram.
    Twice as fast as summing the broadcast comparison edges <= x: c0_vs_y
    on dense_n64 takes 11 ms against 21 ms (median of 7, 2-core Xeon,
    numpy 2.4)."""
    ranks = np.searchsorted(x, edges, side="left")
    ranks = ranks.reshape(-1, ranks.shape[-1])
    width = len(x) + 1
    hist = np.bincount((ranks + width * np.arange(len(ranks))[:, None]).ravel(),
                       minlength=width * len(ranks))
    counts = np.cumsum(hist.reshape(-1, width), axis=-1)[:, :-1]
    return counts.reshape(edges.shape[:-1] + (len(x),))


def _cumsum_from_zero(x: np.ndarray) -> np.ndarray:
    """0 followed by the running sums of x along the last axis."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.cumsum(x, axis=-1, out=out[..., 1:])
    return out


# ---------------------------------------------------------------------------
# blocks of rows
# ---------------------------------------------------------------------------

# The nodes a pass over recorded states stacks at once: 128 states at
# n = 64, 8 at n = 1024, so a pass holds O(BLOCK_NODES) whatever the length
# of the run.
BLOCK_NODES = 2 ** 13


def block_rows(n_nodes: int) -> int:
    """The rows of one block on a grid of n_nodes: BLOCK_NODES // n_nodes,
    and at least one."""
    return max(1, BLOCK_NODES // n_nodes)


def stack_rows(rows) -> np.ndarray:
    """The stack of equal-shaped arrays along a new leading row axis: the
    one place per-state arrays are copied into a block.  np.array, since
    np.stack's checks take four times as long on 128 rows of 64."""
    return np.array(rows)


def block_slices(count: int, n_nodes: int, overlap: int = 0):
    """Consecutive slices over range(count) of at most BLOCK_NODES // n_nodes
    rows (and at least overlap + 1), each starting overlap rows before the
    end of the one before it."""
    size = max(overlap + 1, block_rows(n_nodes))
    start = 0
    while start < count:
        stop = min(start + size, count)
        yield slice(start, stop)
        if stop == count:
            return
        start = stop - overlap


def map_blocks(items, n_nodes: int, row_values) -> np.ndarray:
    """row_values of the Rows of each block of items, at most BLOCK_NODES //
    n_nodes items a block, joined along the last axis in item order."""
    return np.concatenate([np.asarray(row_values(Rows(items[sl])))
                           for sl in block_slices(len(items), n_nodes)],
                          axis=-1)


class Rows:
    """Objects of one kind read as one, with a leading row axis.

    An array attribute reads as the stack_rows stack of the items' arrays,
    a number as the array of their values, the grid as itself, and any
    other object as the Rows of the items' objects; each is made on first
    read and kept.  So the Rows of some ConformalMetric objects reads like
    one metric to every operator that acts along the last axis, and the
    Rows of some flow states gives .metric, .u, .funcs and .phi the same
    way.
    """

    def __init__(self, items):
        self._items = list(items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        """The i-th item itself."""
        return self._items[i]

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        values = [getattr(item, name) for item in self._items]
        first = values[0]
        if isinstance(first, np.ndarray):
            value = stack_rows(values)
        elif isinstance(first, (int, float, np.number)):
            value = np.array(values)
        elif isinstance(first, Grid):  # one grid serves every row
            value = first
        else:
            value = Rows(values)
        self.__dict__[name] = value
        return value


def split_rows(stacked) -> list:
    """The per-row objects of a dataclass whose every field has a leading
    row axis, as an operator returns it for Rows: an array field gives each
    object its row (a view), a number column each a Python number."""
    columns = {}
    for f in fields(stacked):
        value = getattr(stacked, f.name)
        columns[f.name] = list(value) if value.ndim > 1 else value.tolist()
    return [type(stacked)(**dict(zip(columns, row)))
            for row in zip(*columns.values())]


def per_row(x) -> np.ndarray:
    """x, a float or one value per row, shaped to broadcast along the nodes
    of the last axis."""
    return np.asarray(x)[..., None]


def float_or_rows(x):
    """A float for one profile; the array of row values for a stack."""
    return float(x) if np.ndim(x) == 0 else x


# math.log value by value, so a stack of states gets the bits of one state
# (numpy's log may differ from libm's in the last bit)
libm_log = np.vectorize(math.log, otypes=[float])
