"""Quantitative estimate and identity monitors for flow states and trajectories.

Every monitor emits a CheckReport, whose verdict is derived from its gate
and margin by one rule: a conditional estimate whose hypotheses fail on a
state reports GATE_NOT_MET, never FAIL; FAIL is reserved for a satisfied
gate with a margin below -tolerance.  Existential constants (the
non-collapsing C0 bound, the eigenfunction gradient bound) are tracked as
measured effective constants under REPORT_ONLY, with stability asserted
by the acceptance suite rather than equality to any number.

Time derivatives of diagnostics are centered finite differences over
recorded states (_centred), so every d/dt check needs a recording
cadence fine enough for the decay rates involved.

A check that reads nodal arrays of every state walks the trajectory in
blocks of states (geometry.block_slices, BLOCK_NODES nodes a block) and
evaluates its formula once per block on the geometry.Rows stacks; a
per-state check is the one-row case of the same code.  A per-state
number is a column of Rows(traj.states), and a rule over it one array
expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import spectral
from .flow import FlowState, Trajectory, decay_cap, log_det_residual
from .geometry import (ConfigError, NumericalError, Rows, block_slices,
                       complex_laplacian, dtheta, grad_norm_sq, laplace_round,
                       map_blocks, measured_calabi, noncollapsing_kappa,
                       per_row)
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
    """Outcome of one monitor.

    margin >= -tolerance means the inequality held (for identities the
    margin is tolerance minus the measured residual); a report without a
    margin measured nothing that can fail.  aux carries named effective
    constants and rates.  report_only marks an existential estimate,
    whose verdict is REPORT_ONLY where another check's would be PASS.
    """

    check_id: str
    statement: str
    gate_satisfied: bool
    margin: float | None
    tolerance: float = 0.0
    aux: dict = field(default_factory=dict)
    report_only: bool = False

    @property
    def verdict(self) -> str:
        """GATE_NOT_MET when the gate failed; else FAIL when the margin is
        not >= -tolerance (NaN included); else PASS, or REPORT_ONLY."""
        if not self.gate_satisfied:
            return GATE_NOT_MET
        if self.margin is not None and not self.margin >= -self.tolerance:
            return FAIL
        return REPORT_ONLY if self.report_only else PASS


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


def _centred(ts, xs, spread: int = 1) -> np.ndarray:
    """(x[i + spread] - x[i - spread]) / (t[i + spread] - t[i - spread]) at
    each state i with spread neighbours on each side, along the leading
    (state) axis of xs."""
    dt = ts[2 * spread:] - ts[:-2 * spread]
    return (xs[2 * spread:] - xs[:-2 * spread]) / np.reshape(
        dt, dt.shape + (1,) * (np.ndim(xs) - 1))


# ---------------------------------------------------------------------------
# weighted Poincare with sharpening
# ---------------------------------------------------------------------------

def _poincare_margin(f):
    """Z - (1 + d') Y of a FunctionalBundle, or of the Rows of several."""
    return f.Z - (1.0 + f.delta_prime_0) * f.Y


def check_weighted_poincare(state: FlowState) -> CheckReport:
    """Z >= (1 + d') Y with d' = delta_prime(lambda - 1, osc u), the
    state's funcs.delta_prime_0."""
    dp = state.funcs.delta_prime_0
    margin = _poincare_margin(state.funcs)
    return CheckReport(
        "weighted_poincare",
        "int |grad u|^2 e^-u dv >= (1 + d') int (u-a)^2 e^-u dv",
        True, float(margin), POINCARE_TOL,
        {"delta_prime": dp, "Y": state.funcs.Y, "Z": state.funcs.Z})


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
            "y_decay", statement, True, 0.0,
            aux={"fitted_rate": 0.0, "delta_prime_0": 0.0,
                 "gate_prefix_end": states[-1].t})
    dp0 = s0.funcs.delta_prime_0
    gate_cap = decay_cap(dp0)
    f = Rows(states).funcs
    # the prefix ends at the first state over the cap
    over = f.c0_u_minus_a > gate_cap
    end = int(np.argmax(over)) if over.any() else len(states)
    tol = Y_DECAY_REL_TOL * y0
    if not end:
        return CheckReport(
            "y_decay", statement, False, None, tol,
            {"delta_prime_0": dp0, "gate_cap": gate_cap,
             "c0_at_start": s0.funcs.c0_u_minus_a})
    ts, ys = traj.times()[:end], f.Y[:end]
    margin = float(np.min(np.exp(-dp0 * ts) * y0 - ys))
    rate = _fit_rate(ts, ys, y0 * 1e-12)
    # pointwise differential inequality at each state with two neighbours
    c0 = f.c0_u_minus_a[1:end - 1]
    bound = ((-2.0 + 2.0 * c0) * (1.0 + dp0) + (2.0 + c0)) * ys[1:-1]
    worst_resid = np.max(_centred(ts, ys) - bound, initial=-np.inf)
    return CheckReport(
        "y_decay", statement, True, margin, tol,
        {"fitted_rate": rate, "delta_prime_0": dp0,
         "gate_prefix_end": float(ts[-1]),
         "diff_ineq_residual_max": float(worst_resid)})


# ---------------------------------------------------------------------------
# C0 against Y through non-collapsing
# ---------------------------------------------------------------------------

def _c0_gate(f, rho: float):
    """|grad u| <= 1 and |u-a| <= 2 rho, of a FunctionalBundle or of the
    Rows of several."""
    return (f.grad_u_c0 <= 1.0) & (f.c0_u_minus_a <= 2.0 * rho)


def _c0_kappas(states, rho: float) -> list[float]:
    """noncollapsing_kappa of each state that c0_vs_y measures (inside the
    gate, Y not under Y_FLOOR), a block of those states at a time; NaN for
    the others.  ScaleOutOfRange comes from the first measured state whose
    diameter refuses rho."""
    f = Rows(states).funcs
    measured = np.flatnonzero(_c0_gate(f, rho) & ~(f.Y < Y_FLOOR))
    kappa = np.full(len(states), np.nan)
    if measured.size:
        kappa[measured] = map_blocks(
            [states[i].metric for i in measured],
            states[0].metric.grid.n_nodes,
            lambda metrics: noncollapsing_kappa(metrics, rho))
    return kappa.tolist()


def _k_eff(f, kappa):
    """K_eff of a FunctionalBundle and its kappa, or of their columns."""
    return f.c0_u_minus_a * kappa ** 0.25 / f.Y ** 0.25


def check_c0_vs_Y(state: FlowState, rho: float) -> CheckReport:
    """Effective constant in |u-a|_C0 <= K kappa^(-1/4) Y^(1/4).

    Gates: |grad u| <= 1 and |u-a| <= 2 rho.  The constant is existential,
    so the verdict is REPORT_ONLY; acceptance asserts boundedness and
    stability of aux.K_eff across the shipped family.  States with
    Y below Y_FLOOR are skipped.
    """
    return _c0_report(state, rho, _c0_kappas([state], rho)[0])


def _c0_report(state: FlowState, rho: float, kappa: float) -> CheckReport:
    """check_c0_vs_Y's report of a state whose kappa _c0_kappas gave."""
    statement = "|u-a|_C0 <= K kappa^(-1/4) Y^(1/4)"
    f = state.funcs
    if not _c0_gate(f, rho):
        return CheckReport("c0_vs_y", statement, False, None, aux={
            "grad_u_c0": f.grad_u_c0, "c0_u_minus_a": f.c0_u_minus_a,
            "rho": rho})
    if f.Y < Y_FLOOR:
        aux = {"skipped": 1.0, "Y": f.Y, "rho": rho}
    else:
        aux = {"K_eff": _k_eff(f, kappa), "kappa": kappa, "Y": f.Y,
               "c0_u_minus_a": f.c0_u_minus_a, "rho": rho}
    return CheckReport("c0_vs_y", statement, True, None, aux=aux,
                       report_only=True)


# ---------------------------------------------------------------------------
# potential C2 bound and metric equivalence
# ---------------------------------------------------------------------------

def check_c2_estimate(traj: Trajectory) -> CheckReport:
    """Trace bound n + lap_0 phi and the two-sided metric equivalence.

    On a curve the complex trace 1 + lap_{c,0} phi equals the pointwise
    metric ratio e^{2(w - w0)}, so the trace series and the equivalence
    constant Phi_meas (each state's phi_meas) are one check.  The bounding
    function is existential, hence REPORT_ONLY; a negative trace is a hard
    FAIL (the flow metric must stay a metric against g0).
    """
    states = traj.states
    s0 = states[0]
    u0_c0 = float(np.max(np.abs(s0.u.values)))

    def trace_and_sup(rows):
        # the complex trace 1 + lap_{c,0} phi, on the t = 0 metric
        trace = 1.0 + complex_laplacian(s0.metric, rows.phi)
        return (np.min(trace, axis=-1),
                np.max(np.abs(rows.phi), axis=-1) + u0_c0
                + np.max(np.abs(rows.u.values), axis=-1))

    traces, sups = map_blocks(states, s0.metric.grid.n_nodes, trace_and_sup)
    min_trace = np.min(traces, initial=np.inf)
    run_sup = np.max(sups, initial=0.0)
    return CheckReport(
        "c2_estimate",
        "n + lap_0 phi <= Phi(alpha); Phi^-1 g0 <= g(t) <= Phi g0",
        True, float(min_trace),
        aux={"phi_meas_max": float(np.max(Rows(states).phi_meas)),
             "min_trace": float(min_trace),
             "alpha_final": float(run_sup),
             "phi_meas_final": float(states[-1].phi_meas)},
        report_only=True)


# ---------------------------------------------------------------------------
# eigenvalue derivative along a tracked branch
# ---------------------------------------------------------------------------

def _branch_eigenvalues(states, index: int) -> np.ndarray:
    """The index-th axial eigenvalue that make_state solved, of each state;
    BranchCrossing from the first state with a neighbour within the
    guard."""
    # per state: Rows(states).spectrum would stack past BLOCK_NODES
    vals = np.array([s.spectrum[0] for s in states])
    guard = 10.0 * spectral.default_band_tol(states[0].metric.grid)
    gaps = np.diff(vals, axis=-1)[:, max(0, index - 1):index + 1]
    close = np.flatnonzero(np.any(gaps < guard, axis=-1))
    if close.size:
        raise BranchCrossing(
            f"in-mode gap under {guard:.2e} near axial branch {index} "
            f"at t = {states[close[0]].t:.6g}")
    return vals[:, index]


def _branch_formula(rows: Rows, index: int) -> np.ndarray:
    """(1/V) int [-(1-K)|dbar psi|^2 + (lam |psi|^2 - |dbar psi|^2)(u-a)]
    e^-u dv of each row's index-th axial pair."""
    lams = rows.spectrum[:, 0, index]
    eig = spectral.pair_data(rows.metric, 0, lams,
                             rows.axial_vectors[..., index])
    psi, gb = eig.psi, eig.grad_bar_sq
    one_minus_k = 1.0 - rows.metric.curvature
    uma = rows.u.values - per_row(rows.funcs.a)
    return weighted_mean(-one_minus_k * gb
                         + (per_row(lams) * psi ** 2 - gb) * uma,
                         rows.u.emu, rows.metric)


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
        return CheckReport("eigenvalue_derivative", statement, False, None,
                           aux={"n_states": float(len(states))})
    lams = _branch_eigenvalues(states, index)
    ts = traj.times()
    # the formula at each state with two neighbours, states[1:-1]
    formula = map_blocks(states[1:-1], states[0].metric.grid.n_nodes,
                         lambda rows: _branch_formula(rows, index))

    def mismatch(fd, i):
        return np.abs(fd - formula[i - 1]) / (np.abs(fd) + EIGEN_REL_FLOOR)

    mism = mismatch(_centred(ts, lams), np.arange(1, len(states) - 1))
    worst_i = 1 + int(np.argmax(mism))
    worst = mism[worst_i - 1]
    aux = {"max_rel_mismatch": float(worst), "worst_t": float(ts[worst_i]),
           "branch_index": float(index),
           "lambda_at_start": float(lams[0])}
    report = CheckReport("eigenvalue_derivative", statement, True,
                         float(EIGEN_REL_TOL - worst), aux=aux)
    if report.verdict == FAIL and 2 <= worst_i <= len(states) - 3:
        # spacing-refinement probe: a mismatch that grows ~4x when the
        # stencil widens is centered-difference error, not an identity
        # violation; the honest verdict is then an unresolved gate
        wide = mismatch(_centred(ts, lams, 2)[worst_i - 2], worst_i)
        aux["wide_spacing_mismatch"] = float(wide)
        if wide >= 3.0 * worst:
            aux["fd_limited"] = 1.0
            return replace(report, gate_satisfied=False, margin=None)
    return report


# ---------------------------------------------------------------------------
# evolution of |grad u|^2
# ---------------------------------------------------------------------------

def _hessian_pass(traj: Trajectory):
    """The Hessian pass of the two Hessian checks, with one
    complex_hessian_norms call per block of states: each state's
    mixed-Hessian mean (check_Z_derivative) and, at each state with two
    neighbours, the sups over the interior nodes of |d/dt f - rhs| and of
    |rhs| (check_gradnorm_evolution), f = |grad u|^2 and rhs =
    _gradsq_rhs.  Blocks share two states, so each of those states has its
    neighbours in one block."""
    states = traj.states
    ts = traj.times()
    count = len(states)
    means = np.empty(count)
    resid, scale = np.empty((2, max(count - 2, 0)))
    interior = (..., slice(GRADNORM_EDGE, -GRADNORM_EDGE))
    for sl in block_slices(count, states[0].metric.grid.n_nodes, overlap=2):
        rows = Rows(states[sl])
        u, metric = rows.u.values, rows.metric
        mixed, pure = complex_hessian_norms(u, metric)
        means[sl] = weighted_mean(mixed, rows.u.emu, metric)
        f, rhs = _gradsq_rhs(u, metric, mixed, pure)
        centers = slice(sl.start, sl.stop - 2)
        resid[centers] = np.max(np.abs(
            (_centred(ts[sl], f) - rhs[1:-1])[interior]), axis=-1)
        scale[centers] = np.max(np.abs(rhs[1:-1][interior]), axis=-1)
    return means, (resid, scale)


def _gradsq_rhs(u, metric, mixed, pure):
    """f = |grad u|^2 and lap_c f - |pure|^2 - |mixed|^2 + f."""
    f = grad_norm_sq(u, metric)
    return f, complex_laplacian(metric, f) - pure - mixed + f


def check_gradnorm_evolution(traj: Trajectory,
                             residuals=None) -> CheckReport:
    """Pointwise residual of d/dt |grad u|^2 = lap|grad u|^2 - |pure Hess|^2
    - |mixed Hess|^2 + |grad u|^2, plus the short-time amplification bound
    |grad u|(t) <= e |grad u|(0) for t <= 2.

    The sup runs over interior nodes (GRADNORM_EDGE nodes dropped at each
    pole: the composed third-derivative stencils lose an order against the
    pole ghosts).
    residuals, as _hessian_pass returns them, are computed here unless
    the caller already has them.
    """
    statement = "d/dt |grad u|^2 = lap |grad u|^2 - |DDu|^2 - |DDbar u|^2 + |grad u|^2"
    states = traj.states
    if len(states) < 3:
        return CheckReport("gradnorm_evolution", statement, False, None,
                           aux={"n_states": float(len(states))})
    grid = states[0].metric.grid
    ts = traj.times()
    if residuals is None:
        residuals = _hessian_pass(traj)[1]
    rec = float(np.max(np.diff(ts)))
    worst = np.max(residuals[0], initial=0.0)
    scale = np.max(residuals[1], initial=1e-10)
    tol = H2_TOL_FACTOR * (grid.h ** 2 + rec ** 2) * scale
    amp0 = states[0].funcs.grad_u_c0
    amp_max = np.max(Rows(states).funcs.grad_u_c0[ts <= 2.0])
    amplification = amp_max / amp0 if amp0 > 0 else 1.0
    margin = tol - worst
    if not amplification <= math.e:
        margin = -np.maximum(worst, amplification - math.e)
    return CheckReport(
        "gradnorm_evolution", statement, True, float(margin),
        aux={"max_residual": float(worst), "residual_scale": float(scale),
             "amplification_to_t2": float(amplification),
             "amplification_bound": math.e})


# ---------------------------------------------------------------------------
# Z derivative and space-time Hessian accumulation
# ---------------------------------------------------------------------------

def check_Z_derivative(traj: Trajectory, hessian_means=None) -> CheckReport:
    """dZ/dt <= 2 Z - (1/2)(1/V) int |DDbar u|^2 e^-u dv in the small regime.

    Gate per state: |u-a| <= min(1/4, d0'/8) (the bootstrap smallness) and
    (3/2)|grad u|^2 + |u-a| <= 1 (the explicit sufficiency for the
    absorption step in the derivation).  aux accumulates the space-time
    Hessian integral over unit windows and its effective constant against
    exp(-d0' t / 2) times the initial gradient bound.  hessian_means, the
    (1/V) int |DDbar u|^2 e^-u dv of each state as _hessian_pass returns
    them, are computed here unless the caller already has them.
    """
    statement = "dZ/dt <= 2 Z - (1/2)(1/V) int |DDbar u|^2 e^-u dv"
    states = traj.states
    s0 = states[0]
    if s0.funcs.Y == 0.0:
        return CheckReport("z_derivative", statement, True, 0.0,
                           aux={"hessian_spacetime_total": 0.0})
    if len(states) < 3:
        return CheckReport("z_derivative", statement, False, None,
                           aux={"n_states": float(len(states))})
    dp0 = s0.funcs.delta_prime_0
    cap = decay_cap(dp0)
    f = Rows(states).funcs
    gated = ((f.c0_u_minus_a <= cap)
             & (1.5 * f.grad_u_c0 ** 2 + f.c0_u_minus_a <= 1.0))
    # the centres whose state and both neighbours are gated
    i = np.flatnonzero(gated[:-2] & gated[1:-1] & gated[2:]) + 1
    ts = traj.times()
    hess = (hessian_means if hessian_means is not None
            else _hessian_pass(traj)[0])
    dz = _centred(ts, f.Z)[i - 1]
    margin = np.min(2.0 * f.Z[i] - 0.5 * hess[i] - dz, initial=np.inf)
    if not i.size:
        return CheckReport(
            "z_derivative", statement, False, None,
            aux={"delta_prime_0": dp0, "gate_cap": cap,
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
            c8_eff = np.maximum(c8_eff, window / denom)
        start = stop
    return CheckReport(
        "z_derivative", statement, True, float(margin),
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
    lap_c_f = complex_laplacian(metric, f)
    pp = dtheta(grid, psi)
    lap_psi = laplace_round(grid, psi)
    lap_c_psi = complex_laplacian(metric, psi, lap_psi)
    t20 = hessian_t20(psi, metric, pp, lap_psi)
    lap_c_u = complex_laplacian(metric, state.u.values)
    up = dtheta(grid, state.u.values)
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
        "bochner", statement, True, float(margin),
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
        "gradient_estimate",
        "sup|dbar psi| <= C e^{max u/2} C_s^{p/2} (|grad u|^2 + lam)^{p/2} lam^{1/2}",
        True, None,
        aux={"C_eff": sup_grad / denom2, "C_eff_p3": sup_grad / denom3,
             "sup_grad_bar": sup_grad, "sobolev_c": sobolev_c,
             "max_u": max_u, "lambda": lam},
        report_only=True)


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
    rows = Rows(states)
    grad, phi, lam = rows.funcs.grad_u_c0, rows.phi_meas, rows.lambda_g
    max_grad = float(np.max(grad, initial=0.0))
    max_phi = float(np.max(phi, initial=1.0))
    min_lam = float(np.min(lam, initial=np.inf))
    # a violation makes its term negative, so margin < 0 exactly when one
    # of the first-violation times exists
    margin = np.min(((grad_budget - max_grad) / grad_budget,
                     (phi0 - max_phi) / phi0,
                     min_lam - 1.0 - BOOTSTRAP_DELTA / 2.0))
    aux = {"L": calibration, "epsilon": eps, "grad_budget": grad_budget,
           "max_grad": max_grad, "max_phi_meas": max_phi,
           "min_lambda": float(min_lam),
           "strengthened_grad": float(max_grad <= 0.5 * grad_budget),
           "strengthened_equiv": float(max_phi <= 0.5 * phi0)}
    ts = traj.times()
    for name, broken in (
            ("violation_grad", grad > grad_budget),
            ("violation_equiv", phi > phi0),
            ("violation_eig", lam < 1.0 + BOOTSTRAP_DELTA / 2.0)):
        if broken.any():
            aux[name] = float(ts[np.argmax(broken)])
    return CheckReport(
        "bootstrap",
        "|grad u| < L eps; Phi0^-1 g0 < g < Phi0 g0; lambda > 1 + delta/2",
        True, float(margin), aux=aux)


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
    kmax = map_blocks(states, s0.metric.grid.n_nodes, lambda rows: np.max(
        np.abs(rows.metric.curvature), axis=-1))
    exceed = np.flatnonzero(kmax > cap)
    first_exceed = states[exceed[0]].t if exceed.size else None
    ts = traj.times()
    lam_min = np.min(Rows(states).lambda_g, where=ts <= t0 + 1e-12,
                     initial=np.inf)
    # argmin takes the first of two states equally near t0
    sampled = states[int(np.argmin(np.abs(ts - t0)))]
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
        "short_time",
        "max|K| <= 2 Lambda up to a positive time; lambda >= 1 + delta/2 on [0, t0]",
        True, None, aux=aux, report_only=True)


# ---------------------------------------------------------------------------
# the check table for the harness
# ---------------------------------------------------------------------------

def _identity_check(check_id: str, statement: str, resid: float,
                    tol: float) -> CheckReport:
    """Verdict on the worst residual of an identity along the run."""
    return CheckReport(check_id, statement, True, float(tol - resid),
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
    def hessian(self) -> tuple:
        """_hessian_pass's means and gradnorm residuals."""
        return _hessian_pass(self.traj)


def _worst_poincare(sh: _Shared) -> CheckReport:
    """The least-margin state's report, stamped with its time."""
    states = sh.traj.states
    pos = int(np.argmin(_poincare_margin(Rows(states).funcs)))
    report = check_weighted_poincare(states[pos])
    report.aux["state_t"] = states[pos].t
    return report


def _largest_k_eff(sh: _Shared) -> CheckReport:
    """The report of the state with the largest K_eff, or of the t = 0
    state when no state has one."""
    states, rho = sh.traj.states, sh.p["rho"]
    kappas = _c0_kappas(states, rho)
    keffs = _k_eff(Rows(states).funcs, np.array(kappas))
    if np.isnan(keffs).all():
        return _c0_report(states[0], rho, kappas[0])
    pos = int(np.nanargmax(keffs))
    report = _c0_report(states[pos], rho, kappas[pos])
    report.aux["state_t"] = states[pos].t
    return report


def _y_decay(sh: _Shared) -> CheckReport:
    r = check_Y_decay(sh.traj)
    if "fitted_rate" in r.aux:
        sh.report.rates["Y"] = r.aux["fitted_rate"]
    return r


def _log_det(sh: _Shared) -> CheckReport:
    states = sh.traj.states
    resid = map_blocks(states, states[0].metric.grid.n_nodes,
                       lambda rows: log_det_residual(rows, states[0]))
    return _identity_check(
        "log_det", "log det g(t)/det g(0) = u(t) - u(0) - phi(t) - c(t)",
        np.max(resid), LOG_DET_TOL)


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
        sh.traj, hessian_means=sh.hessian[0]),
    "gradnorm_evolution": lambda sh: check_gradnorm_evolution(
        sh.traj, residuals=sh.hessian[1]),
    "eigenvalue_derivative": lambda sh: check_eigenvalue_derivative(
        sh.traj, sh.p["branch_index"]),
    "bootstrap": lambda sh: bootstrap_tracker(sh.traj, sh.p["phi0"]),
    "short_time": lambda sh: check_short_time(
        sh.traj, sh.p["curvature_bound"], sh.p["t0"]),
    "kahler_class": lambda sh: _identity_check(
        "kahler_class", "e^{2w(t)} = e^{2w(0)} + (1/2) lap_0 phi(t)",
        np.max(Rows(sh.traj.states).class_residual), KAHLER_CLASS_TOL),
    "log_det": _log_det,
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
    c0s = Rows(traj.states).funcs.c0_u_minus_a
    ts = traj.times()
    if len(ts) > 3 and c0s[0] > 0:
        sh.report.rates["c0_u_minus_a"] = _fit_rate(ts, c0s, c0s[0] * 1e-9)
    return sh.report
