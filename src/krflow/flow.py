"""Normalized conformal Ricci flow integrator with co-evolved potential.

The evolved variable is the conformal factor w, which obeys the scalar
parabolic equation dw/dt = (1/2)(1 - K); the relative potential phi is
co-integrated with the same scheme from dphi/dt = u - a and exists purely
to cross-check the integrator through the class identity

    e^{2 w(t)} = e^{2 w(0)} + (1/2) lap_round phi(t),

an exact consequence of the flow staying in a fixed cohomology class.
The Ricci potential is re-solved from scratch at every stage (the
quadrature solve is cheap and re-solving removes normalization drift).
The stage velocity of phi is u - a = u0 - <u0>_r, with u0 the potential
zero at the first node and <.>_r the mean weighted by r = e^{-u0} e^{2w}:
the normalization constant of u cancels (see _kernels).

Each record segment has a step cap: dt_init, or record_dt without one,
halved once per rejected segment.  A cap within RK4's stability bound
stability_dt of the state that opens the segment takes ceil(seg / cap)
RK4 steps, the cheapest order-4 step there; a cap above it takes as many
extrapolated linearly implicit Euler steps, whose count does not grow
with the grid (_kernels).

Volume is a structural invariant of the semi-discrete flow: dV/dt =
V - 4 pi holds exactly, so a state that starts at V = 4 pi stays there.
A time step keeps it only up to its time error (after 20 default RK4
steps from legendre_bump(l, 0.01), l = 2..6: |V - 4 pi| up to 1.0e-5 at
n = 16 and 5.3e-11 at n = 64), which the per-step volume check catches;
that check, an extrapolation that does not settle, and the class identity
of each recorded state are the step-rejection criteria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from ._kernels import (advance_extrapolated, advance_rk4, jacobian_bands,
                       laplacian_bands)
from .geometry import (ConfigError, ConformalMetric, NumericalError,
                       ROUND_VOLUME, laplace_round, weighted_integral)
from .potential import (VOLUME_TOL, FunctionalBundle, RicciPotential,
                        VolumeMismatch, functional_bundle,
                        solve_ricci_potential)


class StepReject(NumericalError):
    """A step left the normalized class beyond tolerance; halve dt."""


# RK4's stability interval on the negative real axis, and the share of it
# a step cap may use and still take RK4
RK4_REAL_INTERVAL = 2.785
SAFETY = 0.9
# step-cap halvings after which run gives up on a failing segment
MAX_HALVINGS = 12


@dataclass(frozen=True)
class FlowConfig:
    """Integrator controls, each checked on construction (ConfigError).

    dt_init is the step cap of each record segment, and None means
    record_dt.  run takes RK4 steps under a cap within RK4's stability
    bound stability_dt and extrapolated linearly implicit Euler steps
    under a larger one, so any positive dt_init runs.  band_tol None is
    the grid's default_band_tol, and a band_tol of 1 or more would hold
    the zero eigenvalue.  vol_tol may not exceed potential.VOLUME_TOL,
    past which the potential solve of every state refuses the volume.
    early_stop = 0 never stops the run early.
    """

    t_end: float = 5.0
    dt_init: float | None = None
    vol_tol: float = 1e-8
    class_tol: float = 1e-6
    record_dt: float = 0.01
    band_tol: float | None = None
    early_stop: float = 1e-12

    def __post_init__(self):
        for key in ("t_end", "early_stop"):
            if not 0.0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"{key} = {getattr(self, key)} must be "
                                  "finite and >= 0")
        for key in ("record_dt", "dt_init", "vol_tol", "class_tol",
                    "band_tol"):
            value = getattr(self, key)  # None only for dt_init, band_tol
            if value is not None and not value > 0.0:
                raise ConfigError(f"{key} = {value} must be positive")
        if self.vol_tol > VOLUME_TOL:
            raise ConfigError(f"vol_tol = {self.vol_tol} exceeds "
                              f"{VOLUME_TOL:g}, past which the potential "
                              "solve refuses the volume")
        if self.band_tol is not None and not self.band_tol < 1.0:
            raise ConfigError(f"band_tol = {self.band_tol} must be < 1, "
                              "or the band holds the zero eigenvalue")


@dataclass(frozen=True)
class FlowState:
    """One time slice with all derived diagnostics.

    spectrum holds the per-mode eigenvalues make_state solved (Spectrum.vals,
    row m ascending) and axial_vectors the B-orthonormal eigenvectors of
    row 0, in order, as (n, k) columns.  band_members is the mask of the
    holomorphic-band members that lambda_second counted under the run's
    band_tol, shaped like spectrum; holo_vectors holds the columns of mode
    1's block that it marks and no others, so the monitors read every band
    member without a solve.
    class_residual is the sup-norm residual of the class identity against
    the initial metric, and phi_meas the least Phi with
    Phi^-1 g0 <= g <= Phi g0 for that metric g0.
    """

    t: float
    dt: float
    metric: ConformalMetric
    u: RicciPotential
    funcs: FunctionalBundle
    phi: np.ndarray
    lambda_g: float
    holo_band: list[float]
    class_residual: float
    phi_meas: float
    spectrum: np.ndarray
    band_members: np.ndarray
    axial_vectors: np.ndarray
    holo_vectors: np.ndarray

    def axial_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The axial eigenvalues and their eigenvector block."""
        return self.spectrum[0], self.axial_vectors

    def holo_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Mode 1's holomorphic-band eigenvalues and their eigenvectors."""
        return self.spectrum[1][self.band_members[1]], self.holo_vectors


@dataclass
class Trajectory:
    """Time-ordered flow states plus integrator events.

    eigensolves counts the mode solves of the recorded states by kind:
    cold (no earlier state), warm (started from the previous state's
    blocks) and fallback (a warm start refused, then solved cold)."""

    states: list[FlowState]
    events: list[tuple] = field(default_factory=list)
    converged_at: float | None = None
    eigensolves: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("cold", "warm", "fallback"), 0))

    def times(self):
        return np.array([s.t for s in self.states])

    def record(self, state: FlowState, spec: spectral.Spectrum,
               early_stop: float) -> bool:
        """Append a state, count its eigensolves and add its events: a
        spectrum_fallback per mode whose warm start was refused, a
        decay_gate at the first state and wherever the gate flips, and
        converged, which sets converged_at, when |u - a| drops under
        early_stop.  Returns whether it converged."""
        before = _decay_gate(self.states[-1]) if self.states else None
        self.states.append(state)
        refused = len(spec.fallbacks)
        self.eigensolves["warm" if spec.warm else "cold"] += (
            len(spec.vals) - refused)
        self.eigensolves["fallback"] += refused
        self.events += [("spectrum_fallback", state.t, m, reason)
                        for m, reason in spec.fallbacks]
        now = _decay_gate(state)
        if now != before:
            self.events.append(("decay_gate", state.t, "on" if now else "off"))
        if state.funcs.c0_u_minus_a < early_stop:
            self.converged_at = state.t
            self.events.append(("converged", state.t))
            return True
        return False


def stability_dt(metric: ConformalMetric) -> float:
    """Explicit RK4 step bound SAFETY * 2.785 / rho.

    rho is the Gershgorin bound on the spectral radius of the Jacobian
    J = diag(K) + (1/2) diag(e^{-2w}) L of dw/dt (_kernels.jacobian_bands),
    the matrix the extrapolated step factors.  phi does not feed back into
    either velocity, so J bounds the whole system.  Near the round metric
    this is about 1.25 h^2 e^{2 min w}.
    """
    lo, di, up = jacobian_bands(metric.w, metric.curvature,
                                laplacian_bands(metric.grid))
    row = np.abs(di)
    row[1:] += lo  # the off-diagonal bands are >= 0
    row[:-1] += up
    return SAFETY * RK4_REAL_INTERVAL / float(np.max(row))


def make_state(w: np.ndarray, phi: np.ndarray, t: float, dt: float,
               config: FlowConfig, initial: ConformalMetric,
               warm: spectral.Spectrum | None = None
               ) -> tuple[FlowState, spectral.Spectrum]:
    """Check the class identity of (w, phi) at t against the initial
    metric (StepReject, a NaN residual too), then solve its potential and
    weighted spectrum; warm is the previous state's Spectrum, whose
    eigenvector blocks start the solve, or None for the cold solve.
    Returns the state and its Spectrum."""
    grid = initial.grid
    res = _class_residual(w, initial, phi)
    if not res <= config.class_tol:
        raise StepReject(
            f"class identity residual {res:.3e} over {config.class_tol:.0e}"
            f" at t = {t:.6g}")
    metric = ConformalMetric(grid=grid, w=w)
    u = solve_ricci_potential(metric)
    spec = spectral.weighted_spectrum(metric, u, warm)
    lam_g, band, members = spectral.lambda_second(spec, config.band_tol)
    funcs = functional_bundle(u, metric, lambda_g=lam_g)
    # fancy indexing copies: the state keeps the band columns only
    holo = spec.vecs[1][:, members[1]]
    state = FlowState(t=t, dt=dt, metric=metric, u=u, funcs=funcs,
                      phi=phi.copy(), lambda_g=lam_g, holo_band=band,
                      class_residual=res,
                      phi_meas=_equivalence_ratio(metric.w, initial.w),
                      spectrum=spec.vals,
                      band_members=members, axial_vectors=spec.vecs[0],
                      holo_vectors=holo)
    return state, spec


def run(config: FlowConfig, initial: ConformalMetric) -> Trajectory:
    """Integrate to t_end, recording a fully solved state every record_dt.

    Segment k ends at min(k record_dt, t_end).  Its step cap is dt_init,
    or record_dt without one, halved once per rejection; a cap within
    stability_dt of the state that opens the segment takes ceil(seg / cap)
    RK4 steps, a larger one as many extrapolated steps.  A segment whose
    volume check, extrapolation or class check fails is redone with the
    cap halved, and a halving never grows back (determinism).  Each state
    after t = 0 starts its spectrum from the eigenvector blocks of the last
    recorded state, which only run holds; a rejected segment leaves them
    as they are.  Terminates early once the potential oscillation drops
    under the early-stop threshold.
    """
    vol = initial.volume
    if abs(vol - ROUND_VOLUME) > config.vol_tol * ROUND_VOLUME:
        raise VolumeMismatch(
            f"initial volume {vol:.12g} off 4*pi by {vol - ROUND_VOLUME:.3e};"
            " rescale before flowing")
    grid = initial.grid
    state, spec = make_state(initial.w, np.zeros(grid.n_nodes), 0.0, 0.0,
                             config, initial)
    traj = Trajectory(states=[])
    vol_limit = config.vol_tol * ROUND_VOLUME
    t = 0.0
    w = initial.w.copy()
    phi = np.zeros(grid.n_nodes)
    halvings = 0
    cap0 = config.dt_init if config.dt_init is not None else config.record_dt
    # every accepted state, the t = 0 one first, is recorded here once
    while (not traj.record(state, spec, config.early_stop)
           and t < config.t_end - 1e-12):
        # segment k ends at k record_dt, so t accumulates no rounding, and
        # a full segment lasts record_dt whatever the rounding of its ends
        k = len(traj.states)
        t_next = min(k * config.record_dt, config.t_end)
        seg = (config.record_dt if k * config.record_dt
               <= config.t_end + 1e-12 else t_next - t)
        while True:  # redo the segment, cap halved, until it passes
            dt_cap = cap0 * 0.5 ** halvings
            nst = max(1, int(math.ceil(seg / dt_cap - 1e-12)))
            dt_seg = seg / nst
            advance = (advance_rk4 if dt_cap <= stability_dt(state.metric)
                       * (1 + 1e-12) else advance_extrapolated)
            w_try = w.copy()
            phi_try = phi.copy()
            done, ok = advance(w_try, phi_try, nst, dt_seg, grid, vol_limit)
            if ok:
                try:
                    new, new_spec = make_state(w_try, phi_try, t_next,
                                               dt_seg, config, initial, spec)
                    break
                except StepReject:
                    pass
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise StepReject(
                    f"volume, extrapolation or class check kept failing "
                    f"after {halvings} dt halvings near t = {t:.6g}")
            traj.events.append(("step_reject", t + done * dt_seg, dt_seg))
        w, phi, t, state, spec = w_try, phi_try, t_next, new, new_spec
    return traj


def decay_cap(delta_prime: float) -> float:
    """The bound min(1/4, d'/8) of the canonical smallness gate on |u - a|."""
    return min(0.25, delta_prime / 8.0)


def _decay_gate(state: FlowState) -> bool:
    return state.funcs.c0_u_minus_a <= decay_cap(state.funcs.delta_prime_0)


def _class_residual(w, initial: ConformalMetric, phi) -> float:
    """Sup-norm residual of e^{2w(t)} = e^{2w(0)} + (1/2) lap_round phi.

    The two sides are advanced by independent right-hand sides, so this is
    the integrator's principal cross-check.
    """
    lhs = np.exp(2.0 * w)
    rhs = initial.e2w + 0.5 * laplace_round(initial.grid, phi)
    return float(np.max(np.abs(lhs - rhs)))


def _equivalence_ratio(w, w0) -> float:
    """Least Phi with Phi^-1 g0 <= g <= Phi g0, g = e^{2w}, g0 = e^{2w0}."""
    ratio = np.exp(2.0 * (w - w0))
    return float(max(ratio.max(), (1.0 / ratio).max()))


def log_det_bookkeeping(state: FlowState,
                        state0: FlowState) -> tuple[np.ndarray, float]:
    """Volume-form ratio F = log det g(t) / det g(0) and its constant c(t).

    state0 is the recorded t = 0 state, which carries g(0) and u(0).  In
    the conformal gauge F = 2 (w(t) - w(0)); c(t) normalizes the
    potential bookkeeping through
    e^{c(t)} = (1/V) integral e^{-phi - u(0)} dv_0.
    """
    initial = state0.metric
    f = 2.0 * (state.metric.w - initial.w)
    c = math.log(weighted_integral(
        np.exp(-state.phi - state0.u.values), initial) / initial.volume)
    return f, float(c)


def log_det_residual(state: FlowState, state0: FlowState) -> float:
    """Sup-norm residual of F = u(t) - u(0) - phi(t) - c(t)."""
    f, c = log_det_bookkeeping(state, state0)
    rhs = state.u.values - state0.u.values - state.phi - c
    return float(np.max(np.abs(f - rhs)))
