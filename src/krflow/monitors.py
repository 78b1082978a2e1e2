"""Quantitative estimate and identity monitors for flow states and trajectories.

Every monitor emits a CheckReport with three-valued gate semantics: a
conditional estimate whose hypotheses fail on a state reports
GATE_NOT_MET, never FAIL; FAIL is reserved for a satisfied gate with a
margin below tolerance.  Existential constants (the non-collapsing C0
bound, the eigenfunction gradient bound) are tracked as measured
effective constants under REPORT_ONLY, with stability asserted by the
acceptance suite rather than equality to any number.

Time derivatives of diagnostics are centered finite differences over
three consecutive recorded states, so every d/dt check needs a recording
cadence fine enough for the decay rates involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import spectral
from .flow import FlowState, Trajectory, decay_cap, log_det_residual
from .geometry import (ConfigError, NumericalError, dtheta, grad_norm_sq,
                       laplace_round, measured_calabi, noncollapsing_kappa)
from .potential import complex_hessian_norms, hessian_t20, weighted_mean

PASS = "PASS"
FAIL = "FAIL"
GATE_NOT_MET = "GATE_NOT_MET"
REPORT_ONLY = "REPORT_ONLY"

# The [monitors] parameters and their defaults; monitor_params checks them.
MONITOR_PARAMS = {
    "rho": 0.5,              # c0_vs_y: non-collapsing scale
    "curvature_bound": 2.0,  # short_time: doubling-time reference
    "phi0": 4.0,             # bootstrap: metric-equivalence corridor
    "t0": 0.1,               # short_time: sampling point
    "branch_index": 2,       # eigenvalue_derivative, bochner: axial pair
}

POINCARE_TOL = 1e-8      # weighted_poincare: slack of the inequality
Y_DECAY_REL_TOL = 1e-10  # y_decay: slack relative to Y(0)
Y_FLOOR = 1e-24          # c0_vs_y: states with Y below it are skipped
EIGEN_REL_TOL = 1e-2     # eigenvalue_derivative: relative mismatch bound
EIGEN_REL_FLOOR = 1e-8   # ... and the floor under |d lambda/dt|
H2_TOL_FACTOR = 50.0     # nodewise identities: multiple of the O(h^2) scale
GRADNORM_EDGE = 2        # gradnorm_evolution: nodes dropped at each pole
POLE_MARGIN = 0.1        # bochner: angular width dropped at each pole
KAHLER_CLASS_TOL = 1e-6  # kahler_class: residual bound
LOG_DET_TOL = 1e-6       # log_det: residual bound
BOOTSTRAP_DELTA = 1.0    # bootstrap: the gap delta of the floor 1 + delta/2


class BranchCrossing(NumericalError):
    """Two in-mode eigenvalues got too close to track a branch."""


@dataclass
class CheckReport:
    """Verdict of one monitor.

    margin >= -tolerance means the inequality held (for identities the
    margin is tolerance minus the measured residual); aux carries named
    effective constants and rates.
    """

    check_id: str
    statement: str
    gate_satisfied: bool
    margin: float | None
    tolerance: float
    verdict: str
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict == FAIL:
            assert self.gate_satisfied and self.margin is not None \
                and self.margin < -self.tolerance, \
                "FAIL requires a met gate and a margin below -tolerance"


@dataclass
class TrajectoryReport:
    """The check reports of one trajectory and its fitted decay rates."""

    checks: list[CheckReport] = field(default_factory=list)
    rates: dict = field(default_factory=dict)

    def verdicts(self):
        return {c.check_id: c.verdict for c in self.checks}

    def worst(self):
        order = {FAIL: 0, GATE_NOT_MET: 1, REPORT_ONLY: 2, PASS: 3}
        return min((c.verdict for c in self.checks),
                   key=lambda v: order[v], default=PASS)


def _inequality_verdict(margin: float, tol: float) -> str:
    return PASS if margin >= -tol else FAIL


def _gate_not_met(check_id: str, statement: str, aux: dict,
                  tolerance: float = 0.0) -> CheckReport:
    return CheckReport(check_id=check_id, statement=statement,
                       gate_satisfied=False, margin=None, tolerance=tolerance,
                       verdict=GATE_NOT_MET, aux=aux)


# ---------------------------------------------------------------------------
# weighted Poincare with sharpening
# ---------------------------------------------------------------------------

def check_weighted_poincare(state: FlowState) -> CheckReport:
    """Z >= (1 + d') Y with d' = delta_prime(lambda - 1, osc u), the
    state's funcs.delta_prime_0."""
    dp = state.funcs.delta_prime_0
    margin = state.funcs.Z - (1.0 + dp) * state.funcs.Y
    return CheckReport(
        check_id="weighted_poincare",
        statement="int |grad u|^2 e^-u dv >= (1 + d') int (u-a)^2 e^-u dv",
        gate_satisfied=True, margin=float(margin), tolerance=POINCARE_TOL,
        verdict=_inequality_verdict(margin, POINCARE_TOL),
        aux={"delta_prime": dp, "Y": state.funcs.Y, "Z": state.funcs.Z})


# ---------------------------------------------------------------------------
# Lyapunov decay
# ---------------------------------------------------------------------------

def _fit_rate(ts, ys, floor):
    mask = ys > floor
    if mask.sum() < 3:
        return 0.0
    return float(-np.polyfit(ts[mask], np.log(ys[mask]), 1)[0])


def check_Y_decay(traj: Trajectory) -> CheckReport:
    """Y(t) <= exp(-d0' t) Y(0) on the prefix where |u-a| <= min(1/4, d0'/8).

    d0' is the t = 0 state's funcs.delta_prime_0.  aux carries the fitted
    decay rate and the worst pointwise residual of the differential inequality
    dY/dt <= [(-2 + 2|u-a|)(1 + d') + (2 + |u-a|)] Y behind the decay.
    """
    states = traj.states
    s0 = states[0]
    y0 = s0.funcs.Y
    statement = "Y(t) <= exp(-d0' t) Y(0) on the gated prefix"
    if y0 == 0.0 or len(states) == 1:
        return CheckReport(
            check_id="y_decay", statement=statement, gate_satisfied=True,
            margin=0.0, tolerance=0.0, verdict=PASS,
            aux={"fitted_rate": 0.0, "delta_prime_0": 0.0,
                 "gate_prefix_end": states[-1].t})
    dp0 = s0.funcs.delta_prime_0
    gate_cap = decay_cap(dp0)
    prefix = []
    for s in states:
        if s.funcs.c0_u_minus_a > gate_cap:
            break
        prefix.append(s)
    if not prefix:
        return _gate_not_met(
            "y_decay", statement, {"delta_prime_0": dp0, "gate_cap": gate_cap,
                                   "c0_at_start": s0.funcs.c0_u_minus_a},
            Y_DECAY_REL_TOL * y0)
    ts = np.array([s.t for s in prefix])
    ys = np.array([s.funcs.Y for s in prefix])
    margin = float(np.min(np.exp(-dp0 * ts) * y0 - ys))
    rate = _fit_rate(ts, ys, y0 * 1e-12)
    # pointwise differential inequality, centered differences
    worst_resid = -np.inf
    for i in range(1, len(prefix) - 1):
        dy = (ys[i + 1] - ys[i - 1]) / (ts[i + 1] - ts[i - 1])
        c0 = prefix[i].funcs.c0_u_minus_a
        bound = ((-2.0 + 2.0 * c0) * (1.0 + dp0) + (2.0 + c0)) * ys[i]
        worst_resid = max(worst_resid, dy - bound)
    tol = Y_DECAY_REL_TOL * y0
    return CheckReport(
        check_id="y_decay", statement=statement, gate_satisfied=True,
        margin=margin, tolerance=tol,
        verdict=_inequality_verdict(margin, tol),
        aux={"fitted_rate": rate, "delta_prime_0": dp0,
             "gate_prefix_end": float(ts[-1]),
             "diff_ineq_residual_max": float(worst_resid)})


# ---------------------------------------------------------------------------
# C0 against Y through non-collapsing
# ---------------------------------------------------------------------------

def check_c0_vs_Y(state: FlowState, rho: float) -> CheckReport:
    """Effective constant in |u-a|_C0 <= K kappa^(-1/4) Y^(1/4).

    Gates: |grad u| <= 1 and |u-a| <= 2 rho.  The constant is existential,
    so the verdict is REPORT_ONLY; acceptance asserts boundedness and
    stability of aux.K_eff across the shipped family.  States with
    Y below Y_FLOOR are skipped.
    """
    statement = "|u-a|_C0 <= K kappa^(-1/4) Y^(1/4)"
    f = state.funcs
    gate = f.grad_u_c0 <= 1.0 and f.c0_u_minus_a <= 2.0 * rho
    if not gate:
        return _gate_not_met("c0_vs_y", statement, {
            "grad_u_c0": f.grad_u_c0, "c0_u_minus_a": f.c0_u_minus_a,
            "rho": rho})
    if f.Y < Y_FLOOR:
        return CheckReport(
            check_id="c0_vs_y", statement=statement, gate_satisfied=True,
            margin=None, tolerance=0.0, verdict=REPORT_ONLY,
            aux={"skipped": 1.0, "Y": f.Y, "rho": rho})
    kappa = noncollapsing_kappa(state.metric, rho)
    k_eff = f.c0_u_minus_a * kappa ** 0.25 / f.Y ** 0.25
    return CheckReport(
        check_id="c0_vs_y", statement=statement, gate_satisfied=True,
        margin=None, tolerance=0.0, verdict=REPORT_ONLY,
        aux={"K_eff": float(k_eff), "kappa": kappa, "Y": f.Y,
             "c0_u_minus_a": f.c0_u_minus_a, "rho": rho})


# ---------------------------------------------------------------------------
# potential C2 bound and metric equivalence
# ---------------------------------------------------------------------------

def check_c2_estimate(traj: Trajectory) -> CheckReport:
    """Trace bound n + lap_0 phi and the two-sided metric equivalence.

    On a curve the complex trace 1 + lap_{c,0} phi equals the pointwise
    metric ratio e^{2(w - w0)}, so the trace series and the equivalence
    constant Phi_meas (each state's phi_meas) are one check.  The bounding
    function is existential, hence REPORT_ONLY; positivity of the trace is
    a hard FAIL (the flow metric must stay a metric against g0).
    """
    states = traj.states
    s0 = states[0]
    grid = s0.metric.grid
    half_inv_e2w0 = 0.5 * s0.metric.em2w  # the same for every state
    u0_c0 = float(np.max(np.abs(s0.u.values)))
    min_trace = np.inf
    run_sup = 0.0
    for s in states:
        # the complex trace 1 + (1/2) e^{-2w0} lap_round phi
        trace = 1.0 + half_inv_e2w0 * laplace_round(grid, s.phi)
        min_trace = min(min_trace, float(trace.min()))
        here = (float(np.max(np.abs(s.phi))) + u0_c0
                + float(np.max(np.abs(s.u.values))))
        run_sup = max(run_sup, here)
    verdict = REPORT_ONLY if min_trace > 0.0 else FAIL
    return CheckReport(
        check_id="c2_estimate",
        statement="n + lap_0 phi <= Phi(alpha); Phi^-1 g0 <= g(t) <= Phi g0",
        gate_satisfied=True, margin=float(min_trace), tolerance=0.0,
        verdict=verdict,
        aux={"phi_meas_max": float(max(s.phi_meas for s in states)),
             "min_trace": float(min_trace),
             "alpha_final": float(run_sup),
             "phi_meas_final": float(states[-1].phi_meas)})


# ---------------------------------------------------------------------------
# eigenvalue derivative along a tracked branch
# ---------------------------------------------------------------------------

def _branch_eigs(state: FlowState, index: int):
    """The index-th axial pair that make_state solved; BranchCrossing when
    a neighbour is within the guard."""
    vals, vecs = state.axial_pairs()
    guard = 10.0 * spectral.default_band_tol(state.metric.grid)
    gaps = np.diff(vals)
    if np.any(gaps[max(0, index - 1):index + 1] < guard):
        raise BranchCrossing(
            f"in-mode gap under {guard:.2e} near axial branch {index} "
            f"at t = {state.t:.6g}")
    return float(vals[index]), vecs[:, index]


def check_eigenvalue_derivative(traj: Trajectory,
                                index: int = MONITOR_PARAMS["branch_index"]
                                ) -> CheckReport:
    """d lambda/dt identity along one axial (m = 0) branch.

    Compares the centered difference of the branch eigenvalue against
    (1/V) int [ -(1-K)|dbar psi|^2 + (lambda |psi|^2 - |dbar psi|^2)(u-a) ] e^-u dv
    with psi normalized to (1/V) int |psi|^2 e^-u dv = 1.  The branch is
    the index-th axial pair each state keeps (index + 2 <=
    spectral.K_PER_MODE, so the pair above it is kept too), tracked within
    its mode to avoid crossing ambiguity.
    """
    statement = "d lambda/dt = (1/V) int [-(1-K)|dbar psi|^2 + (lam |psi|^2 - |dbar psi|^2)(u-a)] e^-u dv"
    states = traj.states
    if len(states) < 3:
        return _gate_not_met("eigenvalue_derivative", statement,
                             {"n_states": float(len(states))})
    lams, vecs = zip(*(_branch_eigs(s, index) for s in states))
    ts = np.array([s.t for s in states])

    def formula_at(i):
        s = states[i]
        eig = spectral.pair_data(s.metric, 0, lams[i], vecs[i])
        psi, gb = eig.psi, eig.grad_bar_sq
        one_minus_k = 1.0 - s.metric.curvature
        uma = s.u.values - s.funcs.a
        return weighted_mean(-one_minus_k * gb
                             + (lams[i] * psi ** 2 - gb) * uma,
                             s.u.emu, s.metric)

    def mismatch_at(i, spread):
        fd = (lams[i + spread] - lams[i - spread]) / (
            ts[i + spread] - ts[i - spread])
        return abs(fd - formula_at(i)) / (abs(fd) + EIGEN_REL_FLOOR)

    mism = [mismatch_at(i, 1) for i in range(1, len(states) - 1)]
    worst_i = 1 + int(np.argmax(mism))
    worst = mism[worst_i - 1]
    margin = EIGEN_REL_TOL - worst
    aux = {"max_rel_mismatch": float(worst), "worst_t": float(ts[worst_i]),
           "branch_index": float(index),
           "lambda_at_start": float(lams[0])}
    verdict = _inequality_verdict(margin, 0.0)
    if verdict == FAIL and 2 <= worst_i <= len(states) - 3:
        # spacing-refinement probe: a mismatch that grows ~4x when the
        # stencil widens is centered-difference error, not an identity
        # violation; the honest verdict is then an unresolved gate
        wide = mismatch_at(worst_i, 2)
        aux["wide_spacing_mismatch"] = float(wide)
        if wide >= 3.0 * worst:
            aux["fd_limited"] = 1.0
            return _gate_not_met("eigenvalue_derivative", statement, aux)
    return CheckReport(
        check_id="eigenvalue_derivative", statement=statement,
        gate_satisfied=True, margin=float(margin), tolerance=0.0,
        verdict=verdict, aux=aux)


# ---------------------------------------------------------------------------
# evolution of |grad u|^2
# ---------------------------------------------------------------------------

def _hessian_terms(traj: Trajectory, with_fields: bool):
    """One complex_hessian_norms call per state, reduced at once to what
    the two Hessian checks keep: the mixed-Hessian means of
    check_Z_derivative and, when with_fields, the (|grad u|^2, right-hand
    side) field pairs of check_gradnorm_evolution."""
    means, fields = [], []
    for s in traj.states:
        mixed, pure = complex_hessian_norms(s.u.values, s.metric)
        means.append(_hessian_l2(s, mixed))
        if with_fields:
            fields.append(_gradsq_rhs(s, mixed, pure))
    return np.array(means), fields


def _gradsq_rhs(state: FlowState, mixed, pure):
    """lap_c f - |pure|^2 - |mixed|^2 + f with f = |grad u|^2."""
    metric = state.metric
    grid = metric.grid
    f = grad_norm_sq(state.u.values, metric)
    lap_c_f = 0.5 * metric.em2w * laplace_round(grid, f)
    return f, lap_c_f - pure - mixed + f


def check_gradnorm_evolution(traj: Trajectory, fields=None) -> CheckReport:
    """Pointwise residual of d/dt |grad u|^2 = lap|grad u|^2 - |pure Hess|^2
    - |mixed Hess|^2 + |grad u|^2, plus the short-time amplification bound
    |grad u|(t) <= e |grad u|(0) for t <= 2.

    The sup runs over interior nodes (GRADNORM_EDGE nodes dropped at each
    pole: the composed third-derivative stencils lose an order against the
    pole ghosts).
    fields, as _hessian_terms returns them, are computed here unless the
    caller already has them.
    """
    statement = "d/dt |grad u|^2 = lap |grad u|^2 - |DDu|^2 - |DDbar u|^2 + |grad u|^2"
    states = traj.states
    if len(states) < 3:
        return _gate_not_met("gradnorm_evolution", statement,
                             {"n_states": float(len(states))})
    grid = states[0].metric.grid
    ts = np.array([s.t for s in states])
    if fields is None:
        fields = _hessian_terms(traj, True)[1]
    rec = float(np.max(np.diff(ts)))
    worst = 0.0
    scale = 1e-10
    sl = slice(GRADNORM_EDGE, -GRADNORM_EDGE)
    for i in range(1, len(states) - 1):
        dfdt = (fields[i + 1][0] - fields[i - 1][0]) / (ts[i + 1] - ts[i - 1])
        resid = np.max(np.abs((dfdt - fields[i][1])[sl]))
        worst = max(worst, float(resid))
        scale = max(scale, float(np.max(np.abs(fields[i][1][sl]))))
    tol = H2_TOL_FACTOR * (grid.h ** 2 + rec ** 2) * scale
    amp0 = states[0].funcs.grad_u_c0
    amp_max = max(s.funcs.grad_u_c0 for s in states if s.t <= 2.0)
    amplification = amp_max / amp0 if amp0 > 0 else 1.0
    margin = tol - worst
    verdict = _inequality_verdict(margin, 0.0)
    if amplification > math.e:
        verdict = FAIL
        margin = -max(worst, amplification - math.e)
    return CheckReport(
        check_id="gradnorm_evolution", statement=statement,
        gate_satisfied=True, margin=float(margin), tolerance=0.0,
        verdict=verdict,
        aux={"max_residual": float(worst), "residual_scale": float(scale),
             "amplification_to_t2": float(amplification),
             "amplification_bound": math.e})


# ---------------------------------------------------------------------------
# Z derivative and space-time Hessian accumulation
# ---------------------------------------------------------------------------

def _hessian_l2(state: FlowState, mixed) -> float:
    """(1/V) int |mixed Hessian of u|^2 e^-u dv."""
    return weighted_mean(mixed, state.u.emu, state.metric)


def check_Z_derivative(traj: Trajectory, hessian_means=None) -> CheckReport:
    """dZ/dt <= 2 Z - (1/2)(1/V) int |DDbar u|^2 e^-u dv in the small regime.

    Gate per state: |u-a| <= min(1/4, d0'/8) (the bootstrap smallness) and
    (3/2)|grad u|^2 + |u-a| <= 1 (the explicit sufficiency for the
    absorption step in the derivation).  aux accumulates the space-time
    Hessian integral over unit windows and its effective constant against
    exp(-d0' t / 2) times the initial gradient bound.  hessian_means, as
    _hessian_terms returns them, are computed here unless the caller
    already has them.
    """
    statement = "dZ/dt <= 2 Z - (1/2)(1/V) int |DDbar u|^2 e^-u dv"
    states = traj.states
    s0 = states[0]
    if s0.funcs.Y == 0.0 or len(states) < 3:
        return CheckReport(
            check_id="z_derivative", statement=statement, gate_satisfied=True,
            margin=0.0, tolerance=0.0, verdict=PASS,
            aux={"hessian_spacetime_total": 0.0})
    dp0 = s0.funcs.delta_prime_0
    cap = decay_cap(dp0)

    def gated(s):
        return (s.funcs.c0_u_minus_a <= cap
                and 1.5 * s.funcs.grad_u_c0 ** 2 + s.funcs.c0_u_minus_a <= 1.0)

    ts = np.array([s.t for s in states])
    zs = np.array([s.funcs.Z for s in states])
    hess = (hessian_means if hessian_means is not None
            else _hessian_terms(traj, False)[0])
    margin = np.inf
    any_gate = False
    for i in range(1, len(states) - 1):
        if not (gated(states[i - 1]) and gated(states[i])
                and gated(states[i + 1])):
            continue
        any_gate = True
        dz = (zs[i + 1] - zs[i - 1]) / (ts[i + 1] - ts[i - 1])
        margin = min(margin, 2.0 * zs[i] - 0.5 * hess[i] - dz)
    if not any_gate:
        return _gate_not_met(
            "z_derivative", statement, {"delta_prime_0": dp0, "gate_cap": cap,
                                        "c0_at_start": s0.funcs.c0_u_minus_a})
    # space-time accumulation over unit windows, trapezoid in t
    eps0 = s0.funcs.grad_u_c0
    c8_eff = 0.0
    total = 0.0
    t_end = ts[-1]
    start = 0.0
    while start < t_end - 1e-9:
        stop = min(start + 1.0, t_end)
        mask = (ts >= start - 1e-12) & (ts <= stop + 1e-12)
        if mask.sum() >= 2:
            window = float(np.trapezoid(hess[mask], ts[mask]))
            total += window
            denom = math.exp(-dp0 * start / 2.0) * max(eps0, 1e-300) ** 2
            c8_eff = max(c8_eff, window / denom)
        start = stop
    return CheckReport(
        check_id="z_derivative", statement=statement, gate_satisfied=True,
        margin=float(margin), tolerance=0.0,
        verdict=_inequality_verdict(margin, 0.0),
        aux={"delta_prime_0": dp0,
             "hessian_spacetime_total": float(total),
             "C8_eff": float(c8_eff)})


# ---------------------------------------------------------------------------
# Bochner identity for |dbar psi|^2 of an eigenfunction
# ---------------------------------------------------------------------------

def check_bochner(state: FlowState, eig: spectral.EigenData) -> CheckReport:
    """Nodewise Bochner identity for f = |dbar psi|^2, axial mode only:

    lap_c f = |DDpsi|^2 + (lap_c psi)^2 + (1 - 2 lam) f + (lap_c u) f
              + e^{-2w} u' psi' t20(psi)

    The sup runs over theta in (POLE_MARGIN, pi - POLE_MARGIN): near the
    ghost folds the composed second-order quotients applied to the
    wide-stencil eigenvector lose an order against 1/sin(theta), and the
    contaminated layer is a fixed angular width, not a fixed node count.
    aux reports the margin of the Schwarz-absorbed inequality form with
    the damped coefficient (1 - 2 lam - |grad u|^2).
    """
    if eig.m != 0:
        raise ValueError("Bochner residual is implemented for axial "
                         "eigenfunctions (m = 0)")
    statement = "lap f = |DDpsi|^2 + |DDbar psi|^2 + (1-2 lam) f + Hess(u) coupling"
    metric = state.metric
    grid = metric.grid
    edge = max(4, int(math.ceil(POLE_MARGIN / grid.h)))
    psi = eig.psi
    lam = eig.lam
    e2w = metric.e2w
    f = eig.grad_bar_sq
    lap_c_f = 0.5 * laplace_round(grid, f) / e2w
    lap_c_psi = 0.5 * laplace_round(grid, psi) / e2w
    t20 = hessian_t20(psi, metric)
    lap_c_u = 0.5 * laplace_round(grid, state.u.values) / e2w
    up = dtheta(grid, state.u.values)
    pp = dtheta(grid, psi)
    coupling = up * pp * t20 / e2w
    rhs = (t20 ** 2 + lap_c_psi ** 2 + (1.0 - 2.0 * lam) * f
           + lap_c_u * f + coupling)
    sl = slice(edge, -edge)
    resid = float(np.max(np.abs((lap_c_f - rhs)[sl])))
    # absolute floor keeps identically-zero eigenfunctions trivially green
    scale = max(float(np.max(np.abs(rhs[sl]))), 1e-10)
    tol = H2_TOL_FACTOR * grid.h ** 2 * scale
    # post-Schwarz inequality form
    gu = grad_norm_sq(state.u.values, metric)
    ineq_rhs = (0.5 * t20 ** 2 + lap_c_psi ** 2
                + (1.0 - 2.0 * lam - gu) * f + lap_c_u * f)
    schwarz_margin = float(np.min((lap_c_f - ineq_rhs)[sl]))
    margin = tol - resid
    return CheckReport(
        check_id="bochner", statement=statement, gate_satisfied=True,
        margin=float(margin), tolerance=0.0,
        verdict=_inequality_verdict(margin, 0.0),
        aux={"residual": resid, "scale": scale, "lambda": lam,
             "schwarz_margin_min": schwarz_margin})


# ---------------------------------------------------------------------------
# eigenfunction gradient bound
# ---------------------------------------------------------------------------

def check_gradient_estimate(state: FlowState, eig: spectral.EigenData,
                            sobolev_c: float | None = None) -> CheckReport:
    """Effective constant of sup|dbar psi| <= C e^{max u / 2} C_s^{p/2}
    (|grad u|^2 + lam)^{p/2} lam^{1/2}.

    The iteration exponent pack for the two-dimensional quartic Sobolev
    form gives p = 2; the constant is existential so the verdict is
    REPORT_ONLY with C_eff recorded (plus the p = 3 audit value).
    """
    if sobolev_c is None:
        sobolev_c = spectral.sobolev_constant_estimate(state.metric)
    sup_grad = float(np.sqrt(np.max(eig.grad_bar_sq)))
    max_u = float(np.max(state.u.values))
    lam = max(eig.lam, 1e-300)
    base = state.funcs.grad_u_c0 ** 2 + lam
    denom2 = math.exp(max_u / 2.0) * sobolev_c * base * math.sqrt(lam)
    denom3 = (math.exp(max_u / 2.0) * sobolev_c ** 1.5 * base ** 1.5
              * math.sqrt(lam))
    return CheckReport(
        check_id="gradient_estimate",
        statement="sup|dbar psi| <= C e^{max u/2} C_s^{p/2} (|grad u|^2 + lam)^{p/2} lam^{1/2}",
        gate_satisfied=True, margin=None, tolerance=0.0, verdict=REPORT_ONLY,
        aux={"C_eff": sup_grad / denom2, "C_eff_p3": sup_grad / denom3,
             "sup_grad_bar": sup_grad, "sobolev_c": sobolev_c,
             "max_u": max_u, "lambda": lam})


# ---------------------------------------------------------------------------
# bootstrap triple and the short-time suite
# ---------------------------------------------------------------------------

def bootstrap_tracker(traj: Trajectory,
                      phi0: float = MONITOR_PARAMS["phi0"]) -> CheckReport:
    """Track the open-closed triple along the run:

    |grad u| < L eps,   Phi0^-1 g0 < g(t) < Phi0 g0,   lambda > 1 + delta/2.

    delta is BOOTSTRAP_DELTA, eps the measured initial gradient bound and
    L the calibration Phi0 eps^{-1/2}.  aux reports the first violation
    time per condition and whether the strengthened forms (half the
    gradient budget, half the equivalence budget) hold, mirroring the
    open-closed improvement.
    """
    states = traj.states
    s0 = states[0]
    eps = max(s0.funcs.grad_u_c0, 1e-300)
    calibration = phi0 * eps ** (-0.5)  # the L of |grad u| < L eps
    grad_budget = calibration * eps
    first_grad = first_equiv = first_eig = None
    max_grad = 0.0
    max_phi = 1.0
    min_lam = np.inf
    for s in states:
        max_phi = max(max_phi, s.phi_meas)
        max_grad = max(max_grad, s.funcs.grad_u_c0)
        min_lam = min(min_lam, s.lambda_g)
        if first_grad is None and s.funcs.grad_u_c0 >= grad_budget:
            first_grad = s.t
        if first_equiv is None and s.phi_meas >= phi0:
            first_equiv = s.t
        if first_eig is None and s.lambda_g <= 1.0 + BOOTSTRAP_DELTA / 2.0:
            first_eig = s.t
    ok = first_grad is None and first_equiv is None and first_eig is None
    margin = min((grad_budget - max_grad) / grad_budget,
                 (phi0 - max_phi) / phi0,
                 min_lam - 1.0 - BOOTSTRAP_DELTA / 2.0)
    aux = {"L": calibration, "epsilon": eps, "grad_budget": grad_budget,
           "max_grad": max_grad, "max_phi_meas": max_phi,
           "min_lambda": float(min_lam),
           "strengthened_grad": float(max_grad <= 0.5 * grad_budget),
           "strengthened_equiv": float(max_phi <= 0.5 * phi0)}
    for name, t in (("violation_grad", first_grad),
                    ("violation_equiv", first_equiv),
                    ("violation_eig", first_eig)):
        if t is not None:
            aux[name] = float(t)
    return CheckReport(
        check_id="bootstrap", gate_satisfied=True,
        statement="|grad u| < L eps; Phi0^-1 g0 < g < Phi0 g0; lambda > 1 + delta/2",
        margin=float(margin), tolerance=0.0,
        verdict=PASS if ok else FAIL, aux=aux)


def check_short_time(traj: Trajectory,
                     curvature_bound: float = MONITOR_PARAMS["curvature_bound"],
                     t0: float = MONITOR_PARAMS["t0"]) -> CheckReport:
    """Short-time facts: curvature doubling time, eigenvalue dip on [0, t0]
    and the scaling datum (eps_Calabi, |grad u|(t0)).

    eps_Calabi is the measured (1/V) int (s - n)^2 dv at t = 0, and delta
    is the measured gap lambda(0) - 1.  |grad u|(t0) is read from the
    recorded state nearest t0, whose time is t_sampled: a run that
    converged early, or a t_end under the default t0, ends before t0.
    The diameter of every state is the diam column of timeseries.csv.
    """
    states = traj.states
    s0 = states[0]
    epsilon_calabi = measured_calabi(s0.metric)
    cap = 2.0 * curvature_bound
    first_exceed = None
    lam_min = np.inf
    for s in states:
        kmax = float(np.max(np.abs(s.metric.curvature)))
        if first_exceed is None and kmax > cap:
            first_exceed = s.t
        if s.t <= t0 + 1e-12:
            lam_min = min(lam_min, s.lambda_g)
    sampled = min(states, key=lambda s: abs(s.t - t0))
    grad_t0 = sampled.funcs.grad_u_c0
    floor = 1.0 + (s0.lambda_g - 1.0) / 2.0  # delta = lambda(0) - 1
    aux = {"epsilon_calabi": float(epsilon_calabi),
           "lambda_min_window": float(lam_min),
           "lambda_floor": floor,
           "lambda_floor_ok": float(lam_min >= floor),
           "grad_c0_at_t0": float(grad_t0),
           "t_sampled": float(sampled.t),
           "scaling_ratio": float(grad_t0 / epsilon_calabi ** 0.25)
           if epsilon_calabi > 0 else 0.0,
           "curvature_cap": cap}
    if first_exceed is not None:
        aux["curvature_exceed_t"] = float(first_exceed)
    return CheckReport(
        check_id="short_time",
        statement="max|K| <= 2 Lambda up to a positive time; lambda >= 1 + delta/2 on [0, t0]",
        gate_satisfied=True, margin=None, tolerance=0.0,
        verdict=REPORT_ONLY, aux=aux)


# ---------------------------------------------------------------------------
# refinement helper
# ---------------------------------------------------------------------------

def convergence_order(hs, residuals, floor: float = 1e-11):
    """Measured order between refinement rungs with a rounding floor.

    Residuals that sit below the floor at every rung count as converged
    (order reported as inf): identities preserved structurally by the
    scheme bottom out at rounding instead of shrinking smoothly.
    """
    hs = np.asarray(hs, dtype=float)
    rs = np.asarray(residuals, dtype=float)
    if np.all(rs <= floor):
        return math.inf
    orders = []
    for i in range(len(hs) - 1):
        if rs[i] <= floor or rs[i + 1] <= floor:
            continue
        orders.append(math.log(rs[i] / rs[i + 1])
                      / math.log(hs[i] / hs[i + 1]))
    if not orders:
        # dropped below the floor within one rung: faster than measurable
        return math.inf
    return float(min(orders))


# ---------------------------------------------------------------------------
# the check table for the harness
# ---------------------------------------------------------------------------

def _identity_check(check_id: str, statement: str, resid: float,
                    tol: float) -> CheckReport:
    """Verdict on the worst residual of an identity along the run."""
    margin = tol - resid
    return CheckReport(
        check_id=check_id, statement=statement, gate_satisfied=True,
        margin=float(margin), tolerance=0.0,
        verdict=_inequality_verdict(margin, 0.0),
        aux={"max_residual": float(resid)})


@dataclass
class _Shared:
    """What the checks of one trajectory share: the parameters, the report
    they add to, the middle state, and one Hessian pass over all states,
    made by the first check that needs it."""

    traj: Trajectory
    p: dict
    mid: FlowState
    report: TrajectoryReport = field(default_factory=TrajectoryReport)

    @cached_property
    def hessian(self) -> dict:
        """_hessian_terms' means and fields; a check may pop the fields."""
        means, fields = _hessian_terms(self.traj, True)
        return {"means": means, "fields": fields}


def _worst_poincare(sh: _Shared) -> CheckReport:
    """The least-margin state's report, stamped with its time."""
    states = sh.traj.states
    reports = [check_weighted_poincare(s) for s in states]
    pos = int(np.argmin([r.margin for r in reports]))
    reports[pos].aux["state_t"] = states[pos].t
    return reports[pos]


def _largest_k_eff(sh: _Shared) -> CheckReport:
    states = sh.traj.states
    reports = [check_c0_vs_Y(s, sh.p["rho"]) for s in states]
    keffs = np.array([r.aux.get("K_eff", np.nan) for r in reports])
    if np.isnan(keffs).all():
        return reports[0]
    pos = int(np.nanargmax(keffs))
    reports[pos].aux["state_t"] = states[pos].t
    return reports[pos]


def _y_decay(sh: _Shared) -> CheckReport:
    r = check_Y_decay(sh.traj)
    if "fitted_rate" in r.aux:
        sh.report.rates["Y"] = r.aux["fitted_rate"]
    return r


def _bochner_mid(sh: _Shared) -> CheckReport:
    mid, index = sh.mid, sh.p["branch_index"]
    vals, vecs = mid.axial_pairs()
    return check_bochner(mid, spectral.pair_data(
        mid.metric, 0, float(vals[index]), vecs[:, index]))


def _largest_c_eff(sh: _Shared) -> CheckReport:
    """The holomorphic-band member of the middle state with the largest
    C_eff, among the m = 0 and m = 1 pairs the state keeps."""
    mid = sh.mid
    c_s = spectral.sobolev_constant_estimate(mid.metric)
    vals, vecs = mid.axial_pairs()
    axial = mid.band_members[0]
    reports = []
    for m, lams, block in ((0, vals[axial], vecs[:, axial]),
                           (1, *mid.holo_pairs())):
        for lam, vec in zip(lams, block.T):
            eig = spectral.pair_data(mid.metric, m, float(lam), vec)
            reports.append(check_gradient_estimate(mid, eig, sobolev_c=c_s))
    return max(reports, key=lambda r: r.aux["C_eff"])


# check id -> check; the key order is ALL_CHECKS, which the default spec
# text (and so its spec_sha256) lists
CHECKS = {
    "weighted_poincare": _worst_poincare,
    "c0_vs_y": _largest_k_eff,
    "y_decay": _y_decay,
    "c2_estimate": lambda sh: check_c2_estimate(sh.traj),
    "z_derivative": lambda sh: check_Z_derivative(
        sh.traj, hessian_means=sh.hessian["means"]),
    # popped, so the fields are not held through the later checks
    "gradnorm_evolution": lambda sh: check_gradnorm_evolution(
        sh.traj, fields=sh.hessian.pop("fields", None)),
    "eigenvalue_derivative": lambda sh: check_eigenvalue_derivative(
        sh.traj, sh.p["branch_index"]),
    "bootstrap": lambda sh: bootstrap_tracker(sh.traj, sh.p["phi0"]),
    "short_time": lambda sh: check_short_time(
        sh.traj, sh.p["curvature_bound"], sh.p["t0"]),
    "kahler_class": lambda sh: _identity_check(
        "kahler_class", "e^{2w(t)} = e^{2w(0)} + (1/2) lap_0 phi(t)",
        max(s.class_residual for s in sh.traj.states), KAHLER_CLASS_TOL),
    "log_det": lambda sh: _identity_check(
        "log_det", "log det g(t)/det g(0) = u(t) - u(0) - phi(t) - c(t)",
        max(log_det_residual(s, sh.traj.states[0])
            for s in sh.traj.states), LOG_DET_TOL),
    "bochner": _bochner_mid,
    "gradient_estimate": _largest_c_eff,
}
ALL_CHECKS = tuple(CHECKS)


def monitor_params(params: dict | None = None) -> dict:
    """params over MONITOR_PARAMS, each value checked (ConfigError)."""
    p = {**MONITOR_PARAMS, **(params or {})}
    unknown = p.keys() - MONITOR_PARAMS.keys()
    if unknown:
        raise ConfigError(f"unknown monitor key {min(unknown)!r}")
    top = spectral.K_PER_MODE - 2  # the pair above the tracked one is kept
    for key, ok, what in (
            ("rho", 0.0 < p["rho"] < math.inf, "finite and > 0"),
            ("curvature_bound", 0.0 < p["curvature_bound"] < math.inf,
             "finite and > 0"),
            ("phi0", 1.0 < p["phi0"] < math.inf, "finite and > 1"),
            ("t0", 0.0 <= p["t0"] < math.inf, "finite and >= 0"),
            ("branch_index", 0 <= p["branch_index"] <= top, f"in 0..{top}")):
        if not ok:
            raise ConfigError(f"{key} = {p[key]} must be {what}")
    return p


def evaluate_trajectory(traj: Trajectory, checks=ALL_CHECKS,
                        params: dict | None = None) -> TrajectoryReport:
    """Run the named checks in order; params overrides MONITOR_PARAMS and
    is checked by monitor_params.

    Each check does its work while its id is the current item of checks,
    so a wrapper around checks can time each check."""
    sh = _Shared(traj, monitor_params(params),
                 traj.states[len(traj.states) // 2])
    for check in checks:
        if check not in CHECKS:
            raise ValueError(f"unknown check id {check!r}")
        sh.report.checks.append(CHECKS[check](sh))
    # convergence-rate bookkeeping for the exponential tail
    c0s = np.array([s.funcs.c0_u_minus_a for s in traj.states])
    ts = traj.times()
    if len(ts) > 3 and c0s[0] > 0:
        sh.report.rates["c0_u_minus_a"] = _fit_rate(ts, c0s, c0s[0] * 1e-9)
    return sh.report
