"""Normalized conformal Ricci flow integrator with co-evolved potential.

The evolved variable is the conformal factor w, which obeys the scalar
parabolic equation dw/dt = (1/2)(1 - K); the relative potential phi is
co-integrated with the same scheme from dphi/dt = u - a and exists purely
to cross-check the integrator through the class identity

    e^{2 w(t)} = e^{2 w(0)} + (1/2) lap_round phi(t),

an exact consequence of the flow staying in a fixed cohomology class.
The Ricci potential is re-solved from scratch at every stage (the
quadrature solve is cheap and re-solving removes normalization drift).

Volume is a structural invariant of the semi-discrete flow: dV/dt =
V - 4 pi holds exactly, so a state that starts at V = 4 pi stays there.
RK4 keeps it only up to its time error (after 20 default steps from
legendre_bump(l, 0.01), l = 2..6: |V - 4 pi| up to 1.0e-5 at n = 16 and
5.3e-11 at n = 64), which the per-step volume check catches; that check
and the class identity of each recorded state are the step-rejection
criteria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from ._kernels import advance_rk4
from .geometry import (ConfigError, ConformalMetric, NumericalError,
                       ScalarField, ROUND_VOLUME, gaussian_curvature,
                       laplace_round, volume, weighted_integral)
from .potential import (FunctionalBundle, RicciPotential, VolumeMismatch,
                        functional_bundle, solve_ricci_potential)


class StepReject(NumericalError):
    """A step left the normalized class beyond tolerance; halve dt."""


class StabilityBoundError(ConfigError, ValueError):
    """A requested dt lies over the explicit stability bound."""


# RK4's stability interval on the negative real axis, and the share of it
# a default step uses
RK4_REAL_INTERVAL = 2.785
SAFETY = 0.9


@dataclass(frozen=True)
class FlowConfig:
    """Integrator controls.

    The scheme is classical RK4.  dt_init None means the step cap is the
    stability bound stability_dt, recomputed from the state that opens
    each record segment; an explicit dt_init is a fixed cap, and one above
    the bound at t = 0 is rejected.
    """

    t_end: float = 5.0
    dt_init: float | None = None
    vol_tol: float = 1e-8
    class_tol: float = 1e-6
    potential_tol: float = 1e-9
    record_dt: float = 0.01
    m_max: int = 2
    k_per_mode: int = 5
    band_tol: float | None = None
    early_stop: float = 1e-12
    max_halvings: int = 12


@dataclass(frozen=True)
class FlowState:
    """One time slice with all derived diagnostics.

    spectrum holds the merged (eigenvalue, m) pairs make_state solved and
    axial_vectors the B-orthonormal eigenvectors of its m = 0 pairs, in
    order, as (n, k) columns; both are None without with_spectrum.
    """

    t: float
    dt: float
    metric: ConformalMetric
    u: RicciPotential
    funcs: FunctionalBundle
    phi: ScalarField
    lambda_g: float | None
    holo_band: list[float] | None
    class_residual: float  # check_kahler_class, computed once
    initial: ConformalMetric | None = None
    spectrum: np.ndarray | None = None
    axial_vectors: np.ndarray | None = None

    def axial_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The axial eigenvalues and their eigenvector block."""
        if self.axial_vectors is None:
            raise ValueError(f"state at t = {self.t:.6g} carries no spectrum")
        return (self.spectrum["eigenvalue"][self.spectrum["m"] == 0],
                self.axial_vectors)


@dataclass
class Trajectory:
    """Time-ordered flow states plus integrator events."""

    states: list[FlowState]
    events: list[tuple] = field(default_factory=list)
    converged_at: float | None = None

    def times(self):
        return np.array([s.t for s in self.states])


def stability_dt(metric: ConformalMetric) -> float:
    """Explicit RK4 step bound SAFETY * 2.785 / rho.

    rho is the Gershgorin bound on the spectral radius of the Jacobian
    J = diag(K) + (1/2) diag(e^{-2w}) L of dw/dt, with L the flux-form
    laplace_round.  Row j of L has off-diagonal sum -L_jj, so row j of J
    contributes |K_j + (1/2) e^{-2w_j} L_jj| + (1/2) e^{-2w_j} |L_jj|.
    phi does not feed back into either velocity, so J bounds the whole
    system.  Near the round metric this is about 1.25 h^2 e^{2 min w}.
    """
    grid = metric.grid
    s = grid.sin_flux
    half_l = (0.5 * np.exp(-2.0 * metric.w) * (s[:-1] + s[1:])
              / (grid.h ** 2 * grid.sin_nodes))  # (1/2) e^{-2w} |L_jj|
    k = gaussian_curvature(metric).values
    rho = float(np.max(np.abs(k - half_l) + half_l))
    return SAFETY * RK4_REAL_INTERVAL / rho


def conformal_velocity(metric: ConformalMetric) -> np.ndarray:
    """dw/dt = (1/2)(1 - K) of the normalized flow."""
    return 0.5 * (1.0 - gaussian_curvature(metric).values)


def make_state(w: np.ndarray, phi: np.ndarray, t: float, dt: float,
               config: FlowConfig, initial: ConformalMetric,
               with_spectrum: bool = True) -> FlowState:
    grid = initial.grid
    metric = ConformalMetric(grid=grid, w=w.copy())
    u = solve_ricci_potential(metric, tol=config.potential_tol)
    lam_g = band = pairs = axial = None
    if with_spectrum:
        spec = spectral.weighted_spectrum(metric, u, m_max=config.m_max,
                                          k_per_mode=config.k_per_mode)
        lam_g, band = spectral.lambda_second(spec, config.band_tol)
        pairs = spectral.eigen_pairs(spec)
        axial = np.column_stack([en.vector for en in spec.entries
                                 if en.m == 0])
    funcs = functional_bundle(u, metric, lambda_g=lam_g)
    phi = phi.copy()
    res = _class_residual(metric.w, initial.w, phi, grid)
    if res > config.class_tol:
        raise StepReject(
            f"class identity residual {res:.3e} over {config.class_tol:.0e}"
            f" at t = {t:.6g}")
    return FlowState(t=t, dt=dt, metric=metric, u=u, funcs=funcs,
                     phi=ScalarField(grid=grid, values=phi), lambda_g=lam_g,
                     holo_band=band, class_residual=res, initial=initial,
                     spectrum=pairs, axial_vectors=axial)


def initial_state(metric: ConformalMetric, config: FlowConfig,
                  with_spectrum: bool = True) -> FlowState:
    vol = volume(metric)
    if abs(vol - ROUND_VOLUME) > config.vol_tol * ROUND_VOLUME:
        raise VolumeMismatch(
            f"initial volume {vol:.12g} off 4*pi by {vol - ROUND_VOLUME:.3e};"
            " rescale before flowing")
    return make_state(metric.w, np.zeros(metric.grid.n_nodes), 0.0, 0.0,
                      config, initial=metric, with_spectrum=with_spectrum)


def step(state: FlowState, dt: float, config: FlowConfig | None = None,
         with_spectrum: bool = False) -> FlowState:
    """One explicit RK4 step; raises StepReject on the volume check."""
    config = config or FlowConfig()
    bound = stability_dt(state.metric)
    if dt > bound * (1.0 + 1e-12):
        raise StabilityBoundError(
            f"dt = {dt:.3e} over the stability bound {bound:.3e}")
    w = state.metric.w.copy()
    phi = state.phi.values.copy()
    _, ok = advance_rk4(w, phi, 1, dt, state.metric.grid,
                        config.vol_tol * ROUND_VOLUME)
    if not ok:
        raise StepReject(f"volume drifted beyond tolerance at t = {state.t:.6g}")
    return make_state(w, phi, state.t + dt, dt, config, state.initial,
                      with_spectrum=with_spectrum)


def run(config: FlowConfig, initial: ConformalMetric) -> Trajectory:
    """Integrate to t_end, recording a fully solved state every record_dt.

    Without dt_init the step cap is stability_dt of the state that opens
    each record segment; an explicit dt_init is a fixed cap.  A segment
    whose volume or class check fails is redone with the cap halved, and a
    halving never grows back (determinism).  Terminates early once the
    potential oscillation drops under the early-stop threshold.
    """
    if config.dt_init is not None:
        bound = stability_dt(initial)
        if config.dt_init > bound * (1 + 1e-12):
            raise StabilityBoundError(
                f"dt_init = {config.dt_init:.3e} over the explicit stability "
                f"bound {bound:.3e}")
    state = initial_state(initial, config)
    traj = Trajectory(states=[state])
    _record_gate_transition(traj, state)
    if state.funcs.c0_u_minus_a < config.early_stop:
        traj.converged_at = 0.0
        traj.events.append(("converged", 0.0))
        return traj
    grid = initial.grid
    vol_limit = config.vol_tol * ROUND_VOLUME
    t = 0.0
    w = initial.w.copy()
    phi = np.zeros(grid.n_nodes)
    halvings = 0
    while t < config.t_end - 1e-12:
        t_next = min(t + config.record_dt, config.t_end)
        dt_cap = (config.dt_init if config.dt_init is not None
                  else stability_dt(state.metric)) * 0.5 ** halvings
        nst = max(1, int(math.ceil((t_next - t) / dt_cap - 1e-12)))
        dt_seg = (t_next - t) / nst
        w_try = w.copy()
        phi_try = phi.copy()
        done, ok = advance_rk4(w_try, phi_try, nst, dt_seg, grid, vol_limit)
        if ok:
            try:
                new = make_state(w_try, phi_try, t_next, dt_seg, config,
                                 initial)
            except StepReject:
                ok = False
        if not ok:
            halvings += 1
            if halvings > config.max_halvings:
                raise StepReject(
                    f"volume or class check kept failing after {halvings} "
                    f"dt halvings near t = {t:.6g}")
            traj.events.append(("step_reject", t + done * dt_seg, dt_seg))
            continue
        w, phi, t, state = w_try, phi_try, t_next, new
        traj.states.append(state)
        _record_gate_transition(traj, state)
        if state.funcs.c0_u_minus_a < config.early_stop:
            traj.converged_at = t
            traj.events.append(("converged", t))
            break
    return traj


def decay_cap(delta_prime: float) -> float:
    """The bound min(1/4, d'/8) of the canonical smallness gate on |u - a|."""
    return min(0.25, delta_prime / 8.0)


def _decay_gate(state: FlowState) -> bool:
    return state.funcs.c0_u_minus_a <= decay_cap(state.funcs.delta_prime_0)


def _record_gate_transition(traj: Trajectory, state: FlowState) -> None:
    now = _decay_gate(state)
    before = _decay_gate(traj.states[-2]) if len(traj.states) > 1 else None
    if before is None or now != before:
        traj.events.append(("decay_gate", state.t, "on" if now else "off"))


def check_kahler_class(state: FlowState) -> float:
    """Sup-norm residual of e^{2w(t)} = e^{2w(0)} + (1/2) lap_round phi.

    The two sides are advanced by independent right-hand sides, so this is
    the integrator's principal cross-check.
    """
    if state.initial is None:
        raise ValueError("state carries no initial metric; not from a run")
    return _class_residual(state.metric.w, state.initial.w, state.phi.values,
                           state.metric.grid)


def _class_residual(w, w0, phi, grid) -> float:
    lhs = np.exp(2.0 * w)
    rhs = np.exp(2.0 * w0) + 0.5 * laplace_round(grid, phi)
    return float(np.max(np.abs(lhs - rhs)))


def log_det_bookkeeping(state: FlowState,
                        state0: FlowState) -> tuple[ScalarField, float]:
    """Volume-form ratio F = log det g(t) / det g(0) and its constant c(t).

    state0 is the recorded t = 0 state, which carries g(0) and u(0).  In
    the conformal gauge F = 2 (w(t) - w(0)); c(t) normalizes the
    potential bookkeeping through
    e^{c(t)} = (1/V) integral e^{-phi - u(0)} dv_0.
    """
    initial = state0.metric
    f = 2.0 * (state.metric.w - initial.w)
    vol0 = volume(initial)
    c = math.log(weighted_integral(
        np.exp(-state.phi.values - state0.u.values), initial) / vol0)
    return ScalarField(grid=state.metric.grid, values=f), float(c)


def log_det_residual(state: FlowState, state0: FlowState) -> float:
    """Sup-norm residual of F = u(t) - u(0) - phi(t) - c(t)."""
    f, c = log_det_bookkeeping(state, state0)
    rhs = state.u.values - state0.u.values - state.phi.values - c
    return float(np.max(np.abs(f.values - rhs)))
