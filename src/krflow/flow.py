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

Each record segment has a step cap, min(dt_init, record_dt) (record_dt
without a dt_init), halved once per rejected try.  A cap within RK4's
stability bound stability_dt of the state that opens the segment takes
ceil(seg / cap) RK4 steps, the cheapest order-4 step there; a cap above
it takes as many extrapolated linearly implicit Euler steps, whose count
does not grow with the grid (_kernels).  The rows of one extrapolated
step's tableau advance as one stack, from the row depth that settled the
step before: _segments carries that depth from segment to segment, and
as a hint only it changes no bit of a step.

Volume is a structural invariant of the semi-discrete flow: dV/dt =
V - 4 pi holds exactly, so a state that starts at V = 4 pi stays there.
A time step keeps it only up to its time error (after 20 default RK4
steps from legendre_bump(l, 0.01), l = 2..6: |V - 4 pi| up to 1.0e-5 at
n = 16 and 5.3e-11 at n = 64), which the per-step volume check catches;
that check, an extrapolation that does not settle, and the class identity
of each recorded state are the step-rejection criteria.

run is three pieces: _segments integrates and solves nothing, _solved
solves its segments' end states in blocks (make_state), and run records
them until one converges.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import spectral
from ._kernels import advance_extrapolated, advance_rk4, jacobian_bands
from .geometry import (ConfigError, ConformalMetric, NumericalError,
                       ROUND_VOLUME, Rows, block_rows, float_or_rows,
                       laplace_round, libm_log, per_row, split_rows,
                       weighted_integral)
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

    The step cap of each record segment is min(dt_init, record_dt), and
    dt_init None means record_dt.  run takes RK4 steps under a cap within
    RK4's stability bound stability_dt and extrapolated linearly implicit
    Euler steps under a larger one, so any positive dt_init runs.
    band_tol None is the grid's default_band_tol; a band_tol must leave
    room for lambda(g), which sits about 2 above the band at 1 and must
    clear the band edge by 2 band_tol, so it needs 3 band_tol < 2.
    vol_tol may not exceed potential.VOLUME_TOL, past which the potential
    solve of every state refuses the volume.  early_stop = 0 never stops
    the run early.
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
        if self.band_tol is not None and not 3.0 * self.band_tol < 2.0:
            raise ConfigError(
                f"band_tol = {self.band_tol} leaves no room for the gap to "
                "lambda(g), which needs 3 band_tol < 2: lambda(g) sits about "
                "2 above the band at 1 and must clear its edge by 2 band_tol")


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
    cold (no earlier state: started from the round sphere's harmonics),
    warm (started from the previous state's blocks) and fallback (a
    harmonic or warm start refused, then bisected)."""

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
        spectrum_fallback per mode whose start block was refused, a
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
    lo, di, up = jacobian_bands(metric.em2w, metric.curvature,
                                metric.grid.lap_bands)
    row = np.abs(di)
    row[1:] += lo  # the off-diagonal bands are >= 0
    row[:-1] += up
    return SAFETY * RK4_REAL_INTERVAL / float(np.max(row))


@dataclass(frozen=True)
class Segment:
    """An accepted record segment whose end state is not yet solved: the
    metric and phi at its end time t, its step dt, its class residual and
    the step_reject events it took."""

    metric: ConformalMetric
    phi: np.ndarray
    t: float
    dt: float
    class_residual: float
    rejects: tuple = ()


def check_class(w: np.ndarray, phi: np.ndarray, t: float, config: FlowConfig,
                initial: ConformalMetric) -> tuple[ConformalMetric, float]:
    """The metric of (w, phi) at t and its class identity residual against
    the initial metric; StepReject when the residual exceeds class_tol or
    is NaN, as for a w that is not finite."""
    # a w that is not finite has no metric, and a NaN residual
    metric = (ConformalMetric(grid=initial.grid, w=w)
              if np.isfinite(w).all() else None)
    res = math.nan if metric is None else _class_residual(metric, initial,
                                                          phi)
    if not res <= config.class_tol:
        raise StepReject(
            f"class identity residual {res:.3e} over {config.class_tol:.0e}"
            f" at t = {t:.6g}")
    return metric, res


def make_state(segments: list[Segment], config: FlowConfig,
               initial: ConformalMetric, warm: spectral.Spectrum | None = None
               ) -> list[tuple[FlowState, spectral.Spectrum]]:
    """Solve the end states of the segments, in time order, as one block.

    The potentials, the assembly and reduction of the weighted spectra,
    lambda(g) with the band, the functionals and Phi_meas are each one
    array pass over the stacked states (geometry.Rows); only the eigensolve
    that starts from the blocks of the state before it runs state by
    state.  warm is the Spectrum of the state before the first one, or None
    for a start from the round sphere's harmonics.  Returns each state
    with its Spectrum.  One segment is the one-row case.  A NumericalError
    of any state ends the whole block, and it need not be the first in
    time order (every eigensolve runs before lambda_second), so _solved
    solves such a block again state by state.
    """
    metric = Rows(segments).metric
    stacked = solve_ricci_potential(metric)
    potentials = split_rows(stacked)
    specs = spectral.weighted_spectrum(metric, stacked, warm)
    lam_g, band, members = spectral.lambda_second(Rows(specs),
                                                  config.band_tol)
    funcs = split_rows(functional_bundle(stacked, metric, lambda_g=lam_g))
    phi_meas = _equivalence_ratio(metric.w, initial.w).tolist()
    lam_g = lam_g.tolist()
    out = []
    for i, (seg, spec) in enumerate(zip(segments, specs)):
        # copies, so no state keeps a view of the three-mode stack: fancy
        # indexing copies the band columns, and the axial block is copied
        holo = spec.vecs[1][:, members[i][1]]
        state = FlowState(t=seg.t, dt=seg.dt, metric=seg.metric,
                          u=potentials[i], funcs=funcs[i], phi=seg.phi,
                          lambda_g=lam_g[i], holo_band=band[i].tolist(),
                          class_residual=seg.class_residual,
                          phi_meas=phi_meas[i], spectrum=spec.vals,
                          band_members=members[i],
                          axial_vectors=spec.vecs[0].copy(),
                          holo_vectors=holo)
        out.append((state, spec))
    return out


def _segments(config: FlowConfig, initial: ConformalMetric):
    """The record segments from initial, in time order: the integration
    alone, which solves nothing.  The first is t = 0, where phi = 0 and
    the class residual |e^{2w} - e^{2w} - (1/2) L 0| is 0; segment k ends
    at min(k record_dt, t_end).  The step cap starts at min(dt_init,
    record_dt), so that halving it shortens the steps, and a failed try
    halves it (module docstring) for good (determinism); StepReject after
    MAX_HALVINGS halvings.  Each segment's phi is read-only.
    """
    grid = initial.grid
    vol_limit = config.vol_tol * ROUND_VOLUME
    cap0 = min(config.dt_init or math.inf, config.record_dt)
    t, w, metric = 0.0, initial.w, initial
    phi = np.zeros(grid.n_nodes)
    phi.flags.writeable = False
    yield Segment(metric, phi, 0.0, 0.0, 0.0)
    halvings = k = 0
    depth = 2  # the tableau row that settled the last extrapolated step
    while t < config.t_end - 1e-12:
        # segment k ends at k record_dt, so t accumulates no rounding, and
        # a full segment lasts record_dt whatever the rounding of its ends
        k += 1
        t_next = min(k * config.record_dt, config.t_end)
        seg = (config.record_dt if k * config.record_dt
               <= config.t_end + 1e-12 else t_next - t)
        stable = stability_dt(metric) * (1 + 1e-12)
        rejects = []
        while True:  # redo the segment, cap halved, until it passes
            dt_cap = cap0 * 0.5 ** halvings
            nst = max(1, int(math.ceil(seg / dt_cap - 1e-12)))
            dt_seg = seg / nst
            w_try, phi_try = w.copy(), phi.copy()
            if dt_cap <= stable:
                done, ok = advance_rk4(w_try, phi_try, nst, dt_seg, grid,
                                       vol_limit)
            else:
                done, ok, depth = advance_extrapolated(
                    w_try, phi_try, nst, dt_seg, grid, vol_limit, depth)
            if ok:
                try:
                    new, res = check_class(w_try, phi_try, t_next, config,
                                           initial)
                    break
                except StepReject:
                    pass
            if halvings == MAX_HALVINGS:
                raise StepReject(
                    f"volume, extrapolation or class check kept failing "
                    f"after {halvings} dt halvings near t = {t:.6g}")
            halvings += 1
            rejects.append(("step_reject", t + done * dt_seg, dt_seg))
        phi_try.flags.writeable = False
        w, phi, t, metric = w_try, phi_try, t_next, new
        yield Segment(metric, phi, t, dt_seg, res, tuple(rejects))


def _solved(config: FlowConfig, initial: ConformalMetric):
    """(segment, state, Spectrum) for each of _segments, in time order:
    t = 0 alone, so a run that converges there integrates nothing, then
    blocks of at most geometry.block_rows(n), each spectrum started from
    the state before.  A block that fails with a NumericalError is solved
    again state by state, so the first error in time order is raised, and
    an integration error only after the states before it; any other
    exception is a fault and propagates at once.
    """
    segments = _segments(config, initial)
    spec, size = None, 1
    while True:
        # the last block's Spectrums go before the next block is solved
        block, error, solved = [], None, None
        try:
            for seg in islice(segments, size):
                block.append(seg)
        except NumericalError as exc:  # raised after the states before it
            error = exc
        if len(block) > 1:
            with suppress(NumericalError):
                solved = make_state(block, config, initial, spec)
        for i, seg in enumerate(block):
            state, spec = (solved[i] if solved is not None else
                           make_state([seg], config, initial, spec)[0])
            yield seg, state, spec
        if error is not None:
            raise error
        if len(block) < size:
            return
        size = block_rows(initial.grid.n_nodes)


def run(config: FlowConfig, initial: ConformalMetric) -> Trajectory:
    """Integrate to t_end, recording a fully solved state every record_dt.

    Each state is recorded after the step_reject events of its segment,
    and the run ends at the first whose |u - a| drops under early_stop:
    that closes _solved and _segments, so nothing past its block is
    integrated and no later error is raised.
    """
    vol = initial.volume
    if abs(vol - ROUND_VOLUME) > config.vol_tol * ROUND_VOLUME:
        raise VolumeMismatch(
            f"initial volume {vol:.12g} off 4*pi by {vol - ROUND_VOLUME:.3e};"
            " rescale before flowing")
    traj = Trajectory(states=[])
    for seg, state, spec in _solved(config, initial):
        traj.events += seg.rejects
        if traj.record(state, spec, config.early_stop):
            break
    return traj


def decay_cap(delta_prime: float) -> float:
    """The bound min(1/4, d'/8) of the canonical smallness gate on |u - a|."""
    return min(0.25, delta_prime / 8.0)


def _decay_gate(state: FlowState) -> bool:
    return state.funcs.c0_u_minus_a <= decay_cap(state.funcs.delta_prime_0)


def _class_residual(metric: ConformalMetric, initial: ConformalMetric,
                    phi) -> float:
    """Sup-norm residual of e^{2w(t)} = e^{2w(0)} + (1/2) lap_round phi.

    The two sides are advanced by independent right-hand sides, so this is
    the integrator's principal cross-check.
    """
    rhs = initial.e2w + 0.5 * laplace_round(initial.grid, phi)
    return float(np.max(np.abs(metric.e2w - rhs)))


def _equivalence_ratio(w, w0):
    """Least Phi with Phi^-1 g0 <= g <= Phi g0, g = e^{2w}, g0 = e^{2w0}:
    a float, or one value per row of a stack of w."""
    ratio = np.exp(2.0 * (w - w0))
    return float_or_rows(np.maximum(ratio.max(axis=-1),
                                    (1.0 / ratio).max(axis=-1)))


def log_det_bookkeeping(state: FlowState, state0: FlowState):
    """Volume-form ratio F = log det g(t) / det g(0) and its constant c(t).

    state0 is the recorded t = 0 state, which carries g(0) and u(0); state
    may be the geometry.Rows of several states, which gives one F row and
    one c per state.  In the conformal gauge F = 2 (w(t) - w(0)); c(t)
    normalizes the potential bookkeeping through
    e^{c(t)} = (1/V) integral e^{-phi - u(0)} dv_0.
    """
    initial = state0.metric
    f = 2.0 * (state.metric.w - initial.w)
    ratio = weighted_integral(np.exp(-state.phi - state0.u.values),
                              initial) / initial.volume
    return f, float_or_rows(libm_log(ratio))


def log_det_residual(state: FlowState, state0: FlowState):
    """Sup-norm residual of F = u(t) - u(0) - phi(t) - c(t), one per row
    when state is a geometry.Rows of states."""
    f, c = log_det_bookkeeping(state, state0)
    rhs = state.u.values - state0.u.values - state.phi - per_row(c)
    return float_or_rows(np.max(np.abs(f - rhs), axis=-1))
