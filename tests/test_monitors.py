"""Monitor suite: verdicts, gates, forced failures, effective constants."""

import math
from dataclasses import replace

import numpy as np
import pytest

from krflow.flow import FlowConfig, Trajectory, decay_cap, run
from krflow.geometry import (ConfigError, laplace_round, make_grid,
                             round_metric)
from krflow.harness import legendre_bump
from krflow.monitors import (FAIL, GATE_NOT_MET, PASS, REPORT_ONLY,
                             BranchCrossing, CheckReport, bootstrap_tracker,
                             check_bochner, check_c0_vs_Y, check_c2_estimate,
                             check_eigenvalue_derivative,
                             check_gradient_estimate,
                             check_gradnorm_evolution, check_short_time,
                             check_weighted_poincare, check_Y_decay,
                             check_Z_derivative, evaluate_trajectory)
from krflow.spectral import (default_band_tol, pair_data,
                             sobolev_constant_estimate, weighted_spectrum)

from helpers import convergence_order, eigen_data

# the warm start's bounds against a cold solve, as in test_spectral:
# eigenvalues relative to max(1, |lam|), eigenvectors to their largest entry
WARM_TOL = 1e-10
WARM_VEC_TOL = 1e-9


def band_eigen_data(spec):
    """EigenData for the holomorphic-band members, mode by mode; a pair
    of mode m > 0 enters twice, as in the merged spectrum."""
    tol = default_band_tol(spec.metric.grid)
    out = []
    for m, row in enumerate(spec.vals):
        for i in np.flatnonzero(np.abs(row - 1.0) <= tol):
            out += [eigen_data(spec, m, i)] * (1 if m == 0 else 2)
    return out


def synthetic_trace_positivity(state, phi):
    """Min of the complex trace 1 + (1/2) e^{-2w} lap_round phi for an
    arbitrary phi profile (failure path)."""
    lap = laplace_round(state.metric.grid, phi)
    return float(np.min(1.0 + 0.5 * np.exp(-2.0 * state.metric.w) * lap))


def axial_near(spec, lam, tol):
    """EigenData of the lowest axial pair within tol of lam."""
    i = int(np.flatnonzero(np.abs(spec.vals[0] - lam) < tol)[0])
    return eigen_data(spec, 0, i)


class TestVerdictRule:
    """The verdict derived from a report's gate, margin and tolerance."""

    @staticmethod
    def verdict(gate=True, margin=0.0, tolerance=1e-3, report_only=False):
        return CheckReport("rule", "s", gate, margin, tolerance,
                           report_only=report_only).verdict

    def test_nan_margin_fails(self):
        assert self.verdict(margin=math.nan) == FAIL
        assert self.verdict(margin=math.nan, report_only=True) == FAIL

    def test_margin_at_minus_tolerance_passes(self):
        assert self.verdict(margin=-1e-3) == PASS
        assert self.verdict(margin=np.nextafter(-1e-3, -1.0)) == FAIL

    def test_unmet_gate_outranks_margin(self):
        assert self.verdict(gate=False, margin=-1.0) == GATE_NOT_MET
        assert self.verdict(gate=False, margin=None) == GATE_NOT_MET

    def test_report_only(self):
        # REPORT_ONLY unless the margin is below -tolerance, as for a
        # c2_estimate trace that turned negative
        assert self.verdict(margin=None, report_only=True) == REPORT_ONLY
        assert self.verdict(margin=-1e-3, report_only=True) == REPORT_ONLY
        assert self.verdict(margin=0.0, tolerance=0.0,
                            report_only=True) == REPORT_ONLY
        assert self.verdict(margin=-0.5, report_only=True) == FAIL


@pytest.fixture(scope="module")
def round_traj():
    return run(FlowConfig(t_end=1.0), round_metric(make_grid(128)))


class TestWeightedPoincare:
    def test_round_trivial_pass(self, round_traj):
        rep = check_weighted_poincare(round_traj.states[0])
        assert rep.verdict == PASS
        assert rep.margin == 0.0

    def test_positive_margin_on_bump(self, p2_run_small):
        for s in p2_run_small.states:
            rep = check_weighted_poincare(s)
            assert rep.verdict == PASS
            assert rep.margin > 0
            # first order: Z/Y approaches the branch eigenvalue, above 1+d'
            assert rep.aux["Z"] / max(rep.aux["Y"], 1e-300) > 1.9

    def test_forced_failure_path(self, p2_run_small):
        s = p2_run_small.states[0]
        rigged = s.lambda_g - 1.0 + 1.0
        rep = check_weighted_poincare(
            replace(s, funcs=replace(s.funcs, delta_prime_0=rigged)))
        assert rep.verdict == FAIL
        assert rep.margin < 0


class TestYDecay:
    def test_round_trivial(self, round_traj):
        rep = check_Y_decay(round_traj)
        assert rep.verdict == PASS

    def test_bump_pass_with_rate(self, p2_run_small):
        rep = check_Y_decay(p2_run_small)
        assert rep.verdict == PASS
        assert rep.margin >= -1e-10 * p2_run_small.states[0].funcs.Y
        # decay rate tracks twice the spectral gap, well above the bound
        assert rep.aux["fitted_rate"] == pytest.approx(4.0, abs=0.1)
        assert rep.aux["fitted_rate"] >= rep.aux["delta_prime_0"]
        assert rep.aux["diff_ineq_residual_max"] <= 0.0

    def test_gate_not_met_for_large_amplitude(self, p2_run_large):
        rep = check_Y_decay(p2_run_large)
        assert rep.verdict == GATE_NOT_MET


class TestC0VsY:
    def test_round_skipped(self, round_traj):
        rep = check_c0_vs_Y(round_traj.states[0], rho=0.5)
        assert rep.verdict == REPORT_ONLY
        assert rep.aux.get("skipped") == 1.0

    def test_reports_k_eff(self, p2_run_small):
        rep = check_c0_vs_Y(p2_run_small.states[0], rho=0.5)
        assert rep.verdict == REPORT_ONLY
        assert 0 < rep.aux["K_eff"] < 10

    def test_gate_violation(self, p2_run_large):
        # rho small enough that |u - a| > 2 rho
        rep = check_c0_vs_Y(p2_run_large.states[0], rho=0.1)
        assert rep.verdict == GATE_NOT_MET

    def test_largest_k_eff_equals_a_loop_over_the_states(self, p2_run_small):
        # the run's report is the per-state report with the largest K_eff
        states = p2_run_small.states
        reports = [check_c0_vs_Y(s, rho=0.5) for s in states]
        pos = max(range(len(states)), key=lambda i: reports[i].aux["K_eff"])
        rep = evaluate_trajectory(p2_run_small, checks=("c0_vs_y",)).checks[0]
        assert rep.aux.pop("state_t") == states[pos].t
        assert rep.aux == reports[pos].aux


class TestC2Estimate:
    def test_round_trivial(self, round_traj):
        rep = check_c2_estimate(round_traj)
        assert rep.verdict == REPORT_ONLY
        assert rep.aux["phi_meas_max"] == pytest.approx(1.0, abs=1e-12)

    def test_bump_monotone_to_one(self, p2_run_small):
        rep = check_c2_estimate(p2_run_small)
        assert rep.verdict == REPORT_ONLY
        assert rep.aux["min_trace"] > 0
        assert rep.aux["phi_meas_final"] <= rep.aux["phi_meas_max"]

    def test_synthetic_negative_trace_fails(self, p2_run_small):
        s = p2_run_small.states[-1]
        grid = s.metric.grid
        bad_phi = 3.0 * grid.cos_nodes  # 1 + lap_c phi = 1 - 3 cos < 0
        assert synthetic_trace_positivity(s, bad_phi) < 0
        doctored = replace(s, phi=bad_phi)
        fake = replace(p2_run_small, states=[p2_run_small.states[0], doctored])
        rep = check_c2_estimate(fake)
        assert rep.verdict == FAIL


class TestEigenvalueDerivative:
    def test_round_stationary(self, round_traj):
        # single recorded state: derivative data unavailable, gate not met
        rep = check_eigenvalue_derivative(round_traj)
        assert rep.verdict == GATE_NOT_MET

    def test_bump_branch_identity(self, p2_run_small):
        rep = check_eigenvalue_derivative(p2_run_small, index=2)
        assert rep.verdict == PASS
        assert rep.aux["max_rel_mismatch"] < 1e-2
        assert rep.aux["lambda_at_start"] == pytest.approx(3.0, abs=0.05)

    def test_broken_normalization_fails(self, p2_run_small):
        # eigenvectors scaled off their normalization break the identity
        broken = replace(p2_run_small, states=[
            replace(s, axial_vectors=1.5 * s.axial_vectors)
            for s in p2_run_small.states])
        rep = check_eigenvalue_derivative(broken, index=2)
        assert rep.verdict == FAIL

    def test_crossing_guard_on_coarse_grid(self):
        # at N = 16 the guard width exceeds the in-mode gaps by design
        traj = run(FlowConfig(t_end=0.1, record_dt=0.05, band_tol=0.5),
                   legendre_bump(make_grid(16), 2, 1e-3))
        with pytest.raises(BranchCrossing):
            check_eigenvalue_derivative(traj, index=1)


class TestGradnormEvolution:
    def test_round_all_zero(self, round_traj):
        rep = check_gradnorm_evolution(round_traj)
        assert rep.verdict == GATE_NOT_MET  # single state, no derivative

    def test_bump_residual_and_amplification(self, p2_run_small):
        rep = check_gradnorm_evolution(p2_run_small)
        assert rep.verdict == PASS
        assert rep.aux["amplification_to_t2"] <= math.e
        assert rep.aux["max_residual"] < rep.aux["residual_scale"]


class TestZDerivative:
    def test_round_trivial(self, round_traj):
        rep = check_Z_derivative(round_traj)
        assert rep.verdict == PASS

    def test_bump_positive_margin(self, p2_run_small):
        rep = check_Z_derivative(p2_run_small)
        assert rep.verdict == PASS
        assert rep.margin > 0
        assert rep.aux["hessian_spacetime_total"] > 0

    def test_gate_not_met_large_amplitude(self, p2_run_large):
        rep = check_Z_derivative(p2_run_large)
        assert rep.verdict == GATE_NOT_MET

    def test_two_states_gate_not_met(self):
        # no state has two neighbours, so dZ/dt is not measured
        traj = run(FlowConfig(t_end=0.01, record_dt=0.01),
                   legendre_bump(make_grid(64), 2, 1e-2))
        assert len(traj.states) == 2
        rep = check_Z_derivative(traj)
        assert rep.verdict == GATE_NOT_MET
        assert rep.aux == {"n_states": 2.0}


class TestBochner:
    def test_round_p2_eigenfunction(self, round_traj):
        s = round_traj.states[0]
        spec = weighted_spectrum(s.metric, s.u)
        rep = check_bochner(s, axial_near(spec, 3.0, 1e-2))
        assert rep.verdict == PASS
        # inequality margin dips only by the identity's own h^2 error
        h2 = s.metric.grid.h ** 2
        assert rep.aux["schwarz_margin_min"] > -50 * h2 * rep.aux["scale"]

    def test_constant_eigenfunction_all_zero(self, round_traj):
        s = round_traj.states[0]
        spec = weighted_spectrum(s.metric, s.u)
        rep = check_bochner(s, eigen_data(spec, 0, 0))
        assert rep.verdict == PASS
        assert rep.aux["residual"] < 1e-10

    def test_refinement_richardson(self):
        resids = []
        for n in (128, 256):
            m = legendre_bump(make_grid(n), 2, 1e-2)
            traj = run(FlowConfig(t_end=0.0), m)
            s = traj.states[0]
            spec = weighted_spectrum(s.metric, s.u)
            rep = check_bochner(s, axial_near(spec, 3.0, 0.1))
            resids.append(rep.aux["residual"])
        assert resids[0] / resids[1] == pytest.approx(4.0, abs=1.2)

    def test_nonaxial_mode_rejected(self, round_traj):
        s = round_traj.states[0]
        spec = weighted_spectrum(s.metric, s.u)
        with pytest.raises(ValueError, match="axial"):
            check_bochner(s, eigen_data(spec, 1, 0))


class TestGradientEstimate:
    def test_round_lambda3(self, round_traj):
        s = round_traj.states[0]
        spec = weighted_spectrum(s.metric, s.u)
        rep = check_gradient_estimate(s, axial_near(spec, 3.0, 1e-2))
        assert rep.verdict == REPORT_ONLY
        assert rep.aux["sup_grad_bar"] == pytest.approx(2.3717, abs=2e-3)
        assert rep.aux["max_u"] == 0.0
        assert 0 < rep.aux["C_eff"] < 10

    def test_band_consistency(self, round_traj):
        # three band eigenfunctions see the same effective constant
        s = round_traj.states[0]
        spec = weighted_spectrum(s.metric, s.u)
        c_effs = [check_gradient_estimate(s, e).aux["C_eff"]
                  for e in band_eigen_data(spec)]
        assert max(c_effs) / min(c_effs) < 1.05

    def test_band_members_follow_band_tol(self):
        # l = 2, eps 0.3: the m = 1 member sits 3.7e-2 above 1, outside the
        # default band 50 h^2 = 3.0e-2 at N = 128 but inside band_tol 0.2;
        # the state keeps its vector, and the check reads both members
        metric = legendre_bump(make_grid(128), 2, 0.3)
        traj = run(FlowConfig(t_end=0.0, band_tol=0.2), metric)
        (s,) = traj.states
        assert s.band_members.sum(axis=1).tolist() == [1, 1, 0]
        assert s.holo_vectors.shape == (s.metric.grid.n_nodes, 1)
        vals, vecs = s.axial_pairs()
        (i,) = np.flatnonzero(s.band_members[0])
        (lam1,), holo = s.holo_pairs()
        assert lam1 - 1.0 > default_band_tol(s.metric.grid)
        c_s = sobolev_constant_estimate(s.metric)
        members = [check_gradient_estimate(s, pair_data(
            s.metric, m, float(lam), vec), sobolev_c=c_s)
            for m, lam, vec in ((0, vals[i], vecs[:, i]),
                                (1, lam1, holo[:, 0]))]
        (own,) = evaluate_trajectory(traj, ("gradient_estimate",)).checks
        assert own.aux == max(members, key=lambda r: r.aux["C_eff"]).aux


class TestBootstrap:
    def test_round_all_hold(self, round_traj):
        rep = bootstrap_tracker(round_traj, phi0=4.0)
        assert rep.verdict == PASS

    def test_bump_with_calibration(self, p2_run_small):
        rep = bootstrap_tracker(p2_run_small, phi0=4.0)
        assert rep.verdict == PASS
        assert rep.aux["strengthened_grad"] == 1.0
        assert rep.aux["strengthened_equiv"] == 1.0
        # default calibration L = phi0 eps^{-1/2}
        assert rep.aux["L"] == pytest.approx(
            4.0 * rep.aux["epsilon"] ** -0.5, rel=1e-12)

    def test_adversarial_phi0_fails_immediately(self, p2_run_small):
        # the metric leaves the 1.0001-corridor within the first recorded
        # interval; at t = 0 the corridor holds with equality
        rep = bootstrap_tracker(p2_run_small, phi0=1.0001)
        assert rep.verdict == FAIL
        assert rep.aux["violation_equiv"] <= p2_run_small.states[1].t


class TestShortTime:
    def test_round(self, round_traj):
        rep = check_short_time(round_traj, curvature_bound=2.0)
        assert rep.verdict == REPORT_ONLY
        assert "curvature_exceed_t" not in rep.aux
        assert rep.aux["lambda_floor_ok"] == 1.0

    def test_curvature_cap_below_initial(self, p2_run_small):
        kmax0 = 1.01
        rep = check_short_time(p2_run_small, curvature_bound=kmax0 / 2.5)
        assert rep.aux["curvature_exceed_t"] == 0.0

    def test_scaling_datum(self, p2_run_small):
        rep = check_short_time(p2_run_small, curvature_bound=2.0, t0=0.1)
        assert rep.aux["epsilon_calabi"] == pytest.approx(
            3.2e-6, rel=0.05)
        assert rep.aux["grad_c0_at_t0"] > 0
        assert rep.aux["t_sampled"] == 0.1

    def test_sampled_time_reported(self, p2_run_small):
        # a t0 past the last recorded state reads that state, and says so
        rep = check_short_time(p2_run_small, curvature_bound=2.0, t0=100.0)
        end = p2_run_small.states[-1]
        assert rep.aux["t_sampled"] == end.t
        assert rep.aux["grad_c0_at_t0"] == end.funcs.grad_u_c0


class TestForcedColumnReads:
    """The first-violation times and the window reads on a trajectory with
    values forced past each threshold, against one loop over the states."""

    @staticmethod
    def forced(states, budget, cap):
        def funcs(s, **values):
            return replace(s, funcs=replace(s.funcs, **values))

        states = list(states)
        for i in (5, 9):  # over the gradient budget twice
            states[i] = funcs(states[i], grad_u_c0=2.0 * budget)
        states[7] = replace(states[7], phi_meas=8.0)  # over phi0 = 4
        states[3] = replace(states[3], lambda_g=1.2)  # under 1 + delta/2
        states[12] = funcs(states[12], c0_u_minus_a=2.0 * cap)
        return states

    def test_reads_equal_a_loop_over_the_states(self, p2_run_small):
        s0 = p2_run_small.states[0]
        budget = bootstrap_tracker(p2_run_small, 4.0).aux["grad_budget"]
        cap = decay_cap(s0.funcs.delta_prime_0)
        states = self.forced(p2_run_small.states, budget, cap)
        traj = Trajectory(states)

        def first(holds):
            return next(s.t for s in states if holds(s))

        aux = bootstrap_tracker(traj, 4.0).aux
        assert aux["violation_grad"] == first(
            lambda s: s.funcs.grad_u_c0 > budget) == states[5].t
        assert aux["violation_equiv"] == first(
            lambda s: s.phi_meas > 4.0) == states[7].t
        assert aux["violation_eig"] == first(
            lambda s: s.lambda_g < 1.5) == states[3].t
        prefix = []
        for s in states:
            if s.funcs.c0_u_minus_a > cap:
                break
            prefix.append(s)
        assert check_Y_decay(traj).aux["gate_prefix_end"] == prefix[-1].t \
            == states[11].t
        # t0 between two recorded states; the window excludes states[3]
        t0 = 0.125
        lam_min = math.inf
        for s in states:
            if s.t <= t0 + 1e-12:
                lam_min = min(lam_min, s.lambda_g)
        aux = check_short_time(traj, t0=t0).aux
        assert aux["lambda_min_window"] == lam_min > 1.2
        assert aux["t_sampled"] == min(states, key=lambda s: abs(s.t - t0)).t


@pytest.fixture(scope="module")
def bump_short():
    """legendre_bump(2, 1e-2) at N = 64 to t = 0.1: 11 states on which
    each check below reads PASS or REPORT_ONLY."""
    return run(FlowConfig(t_end=0.1, record_dt=0.01),
               legendre_bump(make_grid(64), 2, 1e-2))


class TestNanFails:
    """A NaN in one per-state number that a check reduces over the states,
    at a state after the first, turns the check's verdict to FAIL."""

    @pytest.mark.parametrize("check, name", [
        ("bootstrap", "grad_u_c0"), ("bootstrap", "phi_meas"),
        ("bootstrap", "lambda_g"), ("z_derivative", "Z"),
        ("gradnorm_evolution", "grad_u_c0"), ("c2_estimate", "phi"),
        ("log_det", "phi"), ("kahler_class", "class_residual"),
        ("y_decay", "Y")])
    def test_nan_at_a_later_state_fails(self, bump_short, check, name):
        def verdict(states):
            report = evaluate_trajectory(Trajectory(states), checks=(check,))
            return report.checks[0].verdict

        states = list(bump_short.states)
        assert verdict(states) in (PASS, REPORT_ONLY)
        s = states[3]
        if name == "phi":
            states[3] = replace(s, phi=np.full_like(s.phi, np.nan))
        elif hasattr(s.funcs, name):
            states[3] = replace(s, funcs=replace(s.funcs, **{name: np.nan}))
        else:
            states[3] = replace(s, **{name: np.nan})
        assert verdict(states) == FAIL


class TestConvergenceOrder:
    def test_clean_second_order(self):
        hs = [0.1, 0.05, 0.025]
        rs = [4e-2, 1e-2, 2.5e-3]
        assert convergence_order(hs, rs) == pytest.approx(2.0, abs=1e-9)

    def test_floor_semantics(self):
        assert convergence_order([0.1, 0.05], [1e-14, 3e-14]) == math.inf

    def test_partial_floor(self):
        # one rung above floor, the next below: faster than measurable
        assert convergence_order([0.1, 0.05], [1e-9, 1e-13],
                                 floor=1e-11) == math.inf


class TestEvaluateTrajectory:
    def test_full_registry(self, p2_run_small):
        rep = evaluate_trajectory(p2_run_small)
        ids = {c.check_id for c in rep.checks}
        assert {"weighted_poincare", "c0_vs_y", "y_decay", "c2_estimate",
                "z_derivative", "gradnorm_evolution",
                "eigenvalue_derivative", "bootstrap", "short_time",
                "kahler_class", "log_det"} <= ids
        assert rep.worst() in (PASS, REPORT_ONLY)
        assert rep.rates["Y"] == pytest.approx(4.0, abs=0.1)

    def test_unknown_check_rejected(self, p2_run_small):
        with pytest.raises(ValueError):
            evaluate_trajectory(p2_run_small, checks=("no_such_check",))

    @pytest.mark.parametrize("params", [
        {"phi0": 1.0}, {"phi0": math.nan}, {"t0": -5.0},
        {"curvature_bound": math.nan}, {"rho": 0.0}, {"branch_index": 4},
        {"delta": 1.0}],
        ids=["phi0_one", "phi0_nan", "t0_negative", "curvature_bound_nan",
             "rho_zero", "branch_index_over_k", "delta_removed"])
    def test_bad_params_rejected(self, round_traj, params):
        # the values loads checks are checked for library callers too,
        # before any check runs
        with pytest.raises(ConfigError, match=next(iter(params))):
            evaluate_trajectory(round_traj, ("bootstrap", "short_time"),
                                params)

    def test_branch_read_from_states(self, p2_run_small, monkeypatch):
        # eigenvalue_derivative and bochner read the axial pairs make_state
        # solved: no eigensolve, and the report of exactly those pairs;
        # the pairs, warm-started after t = 0, agree with a fresh cold
        # solve within the warm start's bound
        import krflow.spectral
        states = p2_run_small.states
        mid = states[len(states) // 2]
        vals, vecs = mid.axial_pairs()
        i = int(np.flatnonzero(np.abs(vals - 3.0) < 0.1)[0])
        own = check_bochner(mid, pair_data(mid.metric, 0, float(vals[i]),
                                           vecs[:, i]))
        fresh = weighted_spectrum(mid.metric, mid.u)
        assert np.max(np.abs(vals - fresh.vals[0]) / np.maximum(
            1.0, np.abs(fresh.vals[0]))) <= WARM_TOL
        sign = np.sign(np.sum(vecs * fresh.vecs[0], axis=0))
        assert np.max(np.abs(vecs - sign * fresh.vecs[0])) <= (
            WARM_VEC_TOL * np.max(np.abs(fresh.vecs[0])))
        start = weighted_spectrum(states[0].metric, states[0].u)
        lam0 = start.vals[0, 2]
        calls = []
        real = krflow.spectral.solve_mode

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(krflow.spectral, "solve_mode", counted)
        rep = evaluate_trajectory(p2_run_small, checks=(
            "eigenvalue_derivative", "bochner"))
        assert calls == []
        derivative, bochner = rep.checks
        assert derivative.aux["lambda_at_start"] == lam0
        assert (bochner.verdict, bochner.margin, bochner.aux) == (
            own.verdict, own.margin, own.aux)

    def test_gradient_estimate_solves_nothing(self, p2_run_small,
                                              monkeypatch):
        # the m = 0 band member is read from the middle state's axial
        # pairs and the m = 1 member from its band vectors, so the check
        # makes no solve; its report is the one of exactly those pairs,
        # and the one of a fresh full spectrum within rounding
        import krflow.spectral
        states = p2_run_small.states
        mid = states[len(states) // 2]
        c_s = sobolev_constant_estimate(mid.metric)

        def largest(eigs):
            return max((check_gradient_estimate(mid, e, sobolev_c=c_s)
                        for e in eigs), key=lambda r: r.aux["C_eff"])

        vals, vecs = mid.axial_pairs()
        held = [(0, vals[i], vecs[:, i])
                for i in np.flatnonzero(mid.band_members[0])]
        hvals, hvecs = mid.holo_pairs()
        held += [(1, lam, vec) for lam, vec in zip(hvals, hvecs.T)]
        kept = largest(pair_data(mid.metric, m, float(lam), vec)
                       for m, lam, vec in held)
        full = largest(band_eigen_data(weighted_spectrum(mid.metric,
                                                         mid.u)))
        calls = []
        real = krflow.spectral.solve_mode

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(krflow.spectral, "solve_mode", counted)
        (own,) = evaluate_trajectory(p2_run_small,
                                     ("gradient_estimate",)).checks
        assert calls == []
        assert (own.verdict, own.statement, own.aux) == (
            kept.verdict, kept.statement, kept.aux)
        assert (own.verdict, own.statement) == (full.verdict, full.statement)
        assert own.aux == pytest.approx(full.aux, rel=1e-8)

    def test_delta_defaults_per_check(self, p2_run_small):
        # bootstrap's floor uses delta = 1 and short_time's the measured
        # lambda(0) - 1
        boot, short = evaluate_trajectory(
            p2_run_small, ("bootstrap", "short_time"), {}).checks
        lam0 = p2_run_small.states[0].lambda_g
        direct = (bootstrap_tracker(p2_run_small, phi0=4.0),
                  check_short_time(p2_run_small, curvature_bound=2.0,
                                   t0=0.1))
        for shared, own in zip((boot, short), direct):
            assert (shared.verdict, shared.margin, shared.aux) == (
                own.verdict, own.margin, own.aux)
        assert short.aux["lambda_floor"] == 1.0 + (lam0 - 1.0) / 2.0
        assert lam0 - 1.0 != 1.0

    def test_hessian_norms_once_per_state(self, monkeypatch):
        import krflow.monitors
        traj = run(FlowConfig(t_end=0.2, record_dt=0.05),
                   legendre_bump(make_grid(64), 2, 1e-3))
        assert len(traj.states) == 5
        alone = [check_gradnorm_evolution(traj), check_Z_derivative(traj)]
        calls = []
        real = krflow.monitors.complex_hessian_norms

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(krflow.monitors, "complex_hessian_norms", counted)
        # checks may be a one-pass iterable
        rep = evaluate_trajectory(traj, checks=iter(("gradnorm_evolution",
                                                     "z_derivative")))
        # the five states at n = 64 fit in one block: one call for all
        assert len(calls) == 1
        for shared, own in zip(rep.checks, alone):
            assert (shared.verdict, shared.margin, shared.aux) == (
                own.verdict, own.margin, own.aux)


class TestFdRefinementFallback:
    def test_unresolved_transient_is_gate_not_met(self, multimode_run):
        # the multi-harmonic profile carries transients the 0.05 recording
        # cadence cannot difference; the spacing probe must classify the
        # mismatch as unresolved rather than as an identity violation
        rep = check_eigenvalue_derivative(multimode_run, index=2)
        assert rep.verdict == GATE_NOT_MET
        assert rep.aux.get("fd_limited") == 1.0
        assert rep.aux["wide_spacing_mismatch"] > rep.aux["max_rel_mismatch"]
