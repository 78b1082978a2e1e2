"""Flow integrator: fixed point, conservation, class identity, bookkeeping."""

import numpy as np
import pytest

from krflow import _kernels
from krflow.flow import (SAFETY, RK4_REAL_INTERVAL, FlowConfig, StepReject,
                         check_class, log_det_bookkeeping, log_det_residual,
                         run, stability_dt)
from krflow.geometry import (ConfigError, ConformalMetric, conformal_metric,
                             laplace_round, make_grid, round_metric)
from krflow.harness import legendre_bump, multi_mode
from krflow.monitors import evaluate_trajectory
from krflow.potential import VolumeMismatch, solve_ricci_potential


def P2(x):
    return 0.5 * (3 * x ** 2 - 1)


def conformal_velocity(metric):
    """dw/dt = (1/2)(1 - K) of the normalized flow."""
    return 0.5 * (1.0 - metric.curvature)


def fixed_steps(metric, dt, nsteps):
    """The t = 0 state and the state after nsteps RK4 steps of dt, through
    run with one record segment and no early stop.  The step run takes is
    t_end / nsteps, which may differ from dt in the last bit."""
    t_end = nsteps * dt
    traj = run(FlowConfig(t_end=t_end, record_dt=t_end, dt_init=dt,
                          early_stop=0.0), metric)
    s0, s1 = traj.states
    assert s1.t == t_end and s1.dt == pytest.approx(dt, rel=1e-12)
    return s0, s1


class TestVelocity:
    def test_round_is_stationary(self, grid128):
        v = conformal_velocity(round_metric(grid128))
        assert np.max(np.abs(v)) < 1e-13

    def test_volume_ode_rhs(self, grid128):
        # dV/dt = V - 4 pi, checked with one tiny explicit update
        c = 0.05
        m = conformal_metric(grid128, np.full(grid128.n_nodes, c))
        v0 = m.volume
        dt = 1e-7
        m1 = ConformalMetric(grid=grid128, w=m.w + dt * conformal_velocity(m))
        rate = (m1.volume - v0) / dt
        assert rate == pytest.approx(v0 - 4 * np.pi, rel=1e-6)


class TestFlowConfig:
    @pytest.mark.parametrize("kwargs", [
        {"record_dt": 0.0}, {"record_dt": -0.05}, {"t_end": np.inf},
        {"dt_init": 0.0}, {"vol_tol": np.nan}, {"band_tol": -1.0},
        {"band_tol": 1.0}, {"band_tol": 0.7}, {"early_stop": np.inf},
        {"early_stop": np.nan}, {"early_stop": -1.0}, {"vol_tol": 1e-5}],
        ids=["record_dt_zero", "record_dt_negative", "t_end_inf",
             "dt_init_zero", "vol_tol_nan", "band_tol_negative",
             "band_tol_one", "band_tol_no_room", "early_stop_inf",
             "early_stop_nan",
             "early_stop_negative", "vol_tol_over_potential_bound"])
    def test_bad_value_rejected_on_construction(self, kwargs):
        # record_dt = 0 made run loop forever, and a negative one flowed
        # backwards; the check is on the config, so library callers get it
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            FlowConfig(**kwargs)


class TestFixedPoint:
    def test_round_many_steps(self, grid128):
        m = round_metric(grid128)
        _, state = fixed_steps(m, stability_dt(m), 200)
        assert np.max(np.abs(state.metric.w)) < 1e-14
        assert state.metric.volume == pytest.approx(4 * np.pi, abs=1e-12)
        assert np.max(np.abs(state.phi)) < 1e-14

    def test_run_round_converges_immediately(self, grid128):
        traj = run(FlowConfig(t_end=5.0), round_metric(grid128))
        assert traj.converged_at == 0.0
        assert len(traj.states) == 1


class TestStep:
    def test_volume_guard_trips(self, grid128):
        # a volume offset beyond the step tolerance (but inside the
        # solver's solvability window) must reject the step
        m = legendre_bump(grid128, 2, 1e-2)
        off = conformal_metric(grid128, m.w + 5e-11)
        w, phi = off.w.copy(), np.zeros(grid128.n_nodes)
        assert _kernels.advance_rk4(w, phi, 1, stability_dt(off), grid128,
                                    1e-12 * 4 * np.pi) == (0, False)

    @pytest.mark.parametrize("kernel", ["advance_rk4",
                                        "advance_extrapolated"])
    def test_nan_state_fails_the_step(self, grid64, kernel):
        w, phi = np.full(grid64.n_nodes, np.nan), np.zeros(grid64.n_nodes)
        assert getattr(_kernels, kernel)(w, phi, 2, 1e-4, grid64,
                                         1.0) == (0, False)

    def test_nan_state_fails_the_class_check(self, grid64):
        m = legendre_bump(grid64, 2, 1e-3)
        w = m.w.copy()
        w[5] = np.nan
        with pytest.raises(StepReject, match="class identity"):
            check_class(w, np.zeros(grid64.n_nodes), 0.01, FlowConfig(), m)

    def test_p2_mode_decay_rate(self, grid128):
        # linearized flow damps the quadrupole at rate 2
        m = legendre_bump(grid128, 2, 1e-4)
        dt = stability_dt(m)
        p2 = P2(grid128.cos_nodes)
        norm = np.sum(p2 * p2 * grid128.quad_weights)

        def mode(s):
            return np.sum(s.metric.w * p2 * grid128.quad_weights) / norm

        nst = 200
        state0, state = fixed_steps(m, dt, nst)
        rate = -np.log(mode(state) / mode(state0)) / (nst * dt)
        assert rate == pytest.approx(2.0, rel=1e-3)

    def test_class_reject_halves_and_retries(self, grid64, monkeypatch):
        import krflow.flow
        real = krflow.flow._class_residual
        calls = []

        def fail_once(*args):
            # call 1 is the first segment's end: the t = 0 state, whose
            # residual is 0 by construction, takes no class check
            calls.append(1)
            return 1.0 if len(calls) == 1 else real(*args)

        monkeypatch.setattr(krflow.flow, "_class_residual", fail_once)
        m = legendre_bump(grid64, 2, 1e-3)
        traj = run(FlowConfig(t_end=0.1, record_dt=0.05), m)
        rejects = [e for e in traj.events if e[0] == "step_reject"]
        assert len(rejects) == 1
        assert rejects[0][1] == pytest.approx(0.05)
        s0, s1, s2 = traj.states
        # the cap record_dt, halved once, and it never grows back
        assert rejects[0][2] == 0.05
        assert s1.dt == s2.dt == rejects[0][2] / 2
        assert s2.t == 0.1
        assert max(s.class_residual for s in traj.states) < 1e-12


class TestSegments:
    """The integration alone: _segments solves nothing."""

    def test_segments_integrate_without_solving(self, grid64, monkeypatch):
        import krflow.flow

        def refuse(*args, **kwargs):
            raise AssertionError("_segments solved a state")

        for module, name in ((krflow.flow, "make_state"),
                             (krflow.flow, "solve_ricci_potential"),
                             (krflow.flow.spectral, "weighted_spectrum")):
            monkeypatch.setattr(module, name, refuse)
        m = legendre_bump(grid64, 2, 1e-2)
        config = FlowConfig(t_end=0.05, record_dt=0.02)
        segs = list(krflow.flow._segments(config, m))
        # the cap record_dt is above stability_dt: one extrapolated step a
        # segment, the last one cut to t_end
        assert [(s.t, s.dt) for s in segs] == [
            (0.0, 0.0), (0.02, 0.02), (0.04, 0.02), (0.05, 0.05 - 0.04)]
        assert segs[0].metric is m and segs[0].class_residual == 0.0
        assert not np.any(segs[0].phi)
        for s in segs:
            assert not s.phi.flags.writeable
            assert s.rejects == ()
            assert s.class_residual < config.class_tol

    def test_states_keep_the_segments_read_only_phi(self, grid64,
                                                    monkeypatch):
        import krflow.flow
        real = krflow.flow.make_state
        segs = []

        def spy(block, *args):
            segs.extend(block)
            return real(block, *args)

        monkeypatch.setattr(krflow.flow, "make_state", spy)
        traj = run(FlowConfig(t_end=0.05, record_dt=0.02),
                   legendre_bump(grid64, 2, 1e-2))
        assert len(traj.states) == len(segs) == 4
        for state, seg in zip(traj.states, segs):
            assert state.phi is seg.phi and not state.phi.flags.writeable
        assert traj.states[0].class_residual == 0.0


class TestRun:
    def test_volume_precondition(self, grid128):
        off = conformal_metric(grid128, np.full(grid128.n_nodes, 0.05))
        with pytest.raises(VolumeMismatch):
            run(FlowConfig(t_end=1.0), off)

    def test_y_monotone_and_converging(self, p2_run_small):
        ys = np.array([s.funcs.Y for s in p2_run_small.states])
        assert np.all(np.diff(ys) < 0)
        assert ys[-1] < ys[0] * np.exp(-3.5)

    def test_volume_conserved_along_run(self, p2_run_small):
        vols = np.array([s.metric.volume for s in p2_run_small.states])
        assert np.max(np.abs(vols - 4 * np.pi)) < 1e-11

    def test_every_state_solved_and_banded(self, p2_run_small):
        for s in p2_run_small.states:
            assert s.u.norm_residual < 1e-12
            assert np.isfinite(s.lambda_g)
            assert len(s.holo_band) == 3

    def test_early_stop(self, grid128):
        m = legendre_bump(grid128, 2, 4e-13)
        traj = run(FlowConfig(t_end=1.0), m)
        assert traj.converged_at == 0.0

    def test_strictly_increasing_times(self, p2_run_small):
        ts = p2_run_small.times()
        assert np.all(np.diff(ts) > 0)


class TestStabilityBound:
    @staticmethod
    def jacobian(m):
        # central differences of the w velocity of the RK4 right-hand side
        g = m.grid
        n = g.n_nodes
        jac = np.empty((n, n))
        eps = 1e-7
        for j in range(n):
            wp, wm = m.w.copy(), m.w.copy()
            wp[j] += eps
            wm[j] -= eps
            jac[:, j] = (_kernels._rhs_numpy(g, wp)[0]
                         - _kernels._rhs_numpy(g, wm)[0]) / (2 * eps)
        return jac

    @pytest.mark.parametrize("family", ["legendre_bump", "multi_mode"])
    def test_gershgorin_radius_tight(self, grid64, family):
        if family == "legendre_bump":
            m = legendre_bump(grid64, 2, 1e-2)
        else:
            m = multi_mode(grid64, seed=7, decay_rate=2.0, amplitude=5e-3)
        ev = np.linalg.eigvals(self.jacobian(m))
        assert np.max(np.abs(ev.imag)) < 1e-8
        rho_true = np.max(np.abs(ev))
        rho_gersh = SAFETY * RK4_REAL_INTERVAL / stability_dt(m)
        assert rho_true <= rho_gersh <= 1.1 * rho_true

    def test_default_step_matches_fine_step(self, grid128):
        m = legendre_bump(grid128, 2, 1e-2)
        coarse = run(FlowConfig(t_end=0.2, record_dt=0.1), m)
        fine = run(FlowConfig(t_end=0.2, record_dt=0.1,
                              dt_init=stability_dt(m) / 16), m)
        assert coarse.states[-1].t == fine.states[-1].t == 0.2
        assert np.max(np.abs(coarse.states[-1].metric.w
                             - fine.states[-1].metric.w)) <= 1e-12

    @pytest.mark.parametrize("family", ["legendre_bump", "multi_mode"])
    def test_jacobian_bands_match_central_differences(self, grid64, family):
        # the bands the extrapolated step factors, with K = 1 - 2 f_w as
        # the kernel takes it, and the ones stability_dt bounds, with K
        # from the metric's curvature, against the dense difference quotient:
        # off by at most 2.8e-9 on entries up to 418, and 0 off the bands
        m = family_metric(family, 64)
        fd = self.jacobian(m)
        fw = _kernels._rhs_numpy(m.grid, m.w)[0]
        for k in (1.0 - 2.0 * fw, m.curvature):
            lo, di, up = _kernels.jacobian_bands(m.em2w, k, m.grid.lap_bands)
            banded = np.diag(di) + np.diag(lo, -1) + np.diag(up, 1)
            assert np.max(np.abs(banded - fd)) <= 5e-8


class TestRegime:
    """run's choice between RK4 and the extrapolated step, per segment."""

    def test_cap_within_bound_takes_rk4(self, grid64, monkeypatch):
        import krflow.flow

        def refuse(*args):
            raise AssertionError("extrapolated step under a cap within "
                                 "the stability bound")

        monkeypatch.setattr(krflow.flow, "advance_extrapolated", refuse)
        m = legendre_bump(grid64, 2, 1e-2)
        rec = 1e-3
        assert rec <= stability_dt(m)
        traj = run(FlowConfig(t_end=0.01, record_dt=rec, early_stop=0.0), m)
        assert len(traj.states) == 11 and traj.states[-1].t == 0.01
        # one RK4 step of exactly record_dt per segment, bit for bit
        w, phi = m.w.copy(), np.zeros(grid64.n_nodes)
        for s in traj.states[1:]:
            assert s.dt == rec
            assert _kernels.advance_rk4(w, phi, 1, rec, grid64,
                                        1.0) == (1, True)
            assert np.array_equal(s.metric.w, w)
            assert np.array_equal(s.phi, phi)

    def test_cap_over_bound_takes_extrapolated(self, grid64, monkeypatch):
        import krflow.flow
        calls = []

        def counting(*args):
            calls.append(args[3])
            return _kernels.advance_extrapolated(*args)

        def refuse(*args):
            raise AssertionError("RK4 under a cap over the stability bound")

        monkeypatch.setattr(krflow.flow, "advance_extrapolated", counting)
        monkeypatch.setattr(krflow.flow, "advance_rk4", refuse)
        m = legendre_bump(grid64, 2, 1e-2)
        traj = run(FlowConfig(t_end=0.1, record_dt=0.05), m)
        assert calls[0] == 0.05
        assert [s.t for s in traj.states] == [0.0, 0.05, 0.1]

    def test_unsettled_tableau_halves_cap(self, grid64, monkeypatch):
        # no row can meet a negative tolerance, so every extrapolated step
        # fails, and the cap halves until it fits under the bound
        monkeypatch.setattr(_kernels, "EXTRAP_TOL", -1.0)
        m = legendre_bump(grid64, 2, 1e-2)
        traj = run(FlowConfig(t_end=0.05, record_dt=0.05), m)
        bound = stability_dt(m)
        rejects = [e for e in traj.events if e[0] == "step_reject"]
        assert rejects
        for i, (_, t, dt) in enumerate(rejects):
            assert t == 0.0 and dt == 0.05 * 0.5 ** i > bound
        s1 = traj.states[-1]
        assert s1.t == 0.05 and s1.dt == rejects[-1][2] / 2 <= bound


def flux_laplacian_ref(f, h, sfi, hs):
    flux = sfi * np.diff(f) / h
    out = np.empty_like(f)
    out[0] = flux[0]
    out[1:-1] = np.diff(flux)
    out[-1] = -flux[-1]
    out /= hs
    return out


def flux_potential_ref(w, e2w, h, sfi, hs, hs_sum):
    g = e2w - 1.0 + flux_laplacian_ref(w, h, sfi, hs)
    s = 2.0 * g * hs
    s -= (s.sum() / hs_sum) * hs
    flux = np.cumsum(s)[:-1]
    u0 = np.concatenate(([0.0], np.cumsum(h * flux / sfi)))
    return g, u0


def rhs_ref(w, h, q, sfi, hs, hs_sum):
    # phi's velocity u - a spelled out: u = u0 + log m, a its e^{-u} mean
    e2w = np.exp(2.0 * w)
    g, u0 = flux_potential_ref(w, e2w, h, sfi, hs, hs_sum)
    fw = 0.5 * g / e2w
    emu = np.exp(-u0)
    vol = np.sum(e2w * q)
    m = np.sum(emu * e2w * q) / vol
    logm = np.log(m)
    a = np.sum((u0 + logm) * emu * e2w * q) / (vol * m)
    fp = u0 + logm - a
    return fw, fp, 2 * np.pi * vol


def rk4_ref(w, phi, nsteps, dt, args):
    for _ in range(nsteps):
        k1w, k1p, _ = rhs_ref(w, *args)
        k2w, k2p, _ = rhs_ref(w + 0.5 * dt * k1w, *args)
        k3w, k3p, _ = rhs_ref(w + 0.5 * dt * k2w, *args)
        k4w, k4p, _ = rhs_ref(w + dt * k3w, *args)
        w += (dt / 6.0) * (k1w + 2.0 * (k2w + k3w) + k4w)
        phi += (dt / 6.0) * (k1p + 2.0 * (k2p + k3p) + k4p)


def family_metric(family, n):
    g = make_grid(n)
    if family == "legendre_bump":
        return legendre_bump(g, 2, 1e-2)
    return multi_mode(g, seed=7, decay_rate=2.0, amplitude=5e-3)


def kernel_args(grid):
    hs = grid.h * grid.sin_nodes
    return (grid.h, grid.quad_weights, grid.sin_flux[1:-1], hs,
            float(np.sum(hs)))


class TestKernelOracle:
    """The in-place kernels against their plain numpy spelling above."""

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    @pytest.mark.parametrize("family", ["legendre_bump", "multi_mode"])
    def test_stencils_bit_identical(self, family, n):
        m = family_metric(family, n)
        h, _, sfi, hs, hs_sum = kernel_args(m.grid)
        assert np.array_equal(laplace_round(m.grid, m.w),
                              flux_laplacian_ref(m.w, h, sfi, hs))
        for got, ref in zip(_kernels.flux_potential(m.grid, m.w, m.e2w),
                            flux_potential_ref(m.w, m.e2w, h, sfi, hs,
                                               hs_sum)):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("family", ["legendre_bump", "multi_mode"])
    def test_rk4_w_bit_identical_phi_at_rounding(self, family, n):
        m = family_metric(family, n)
        dt = stability_dt(m)
        w, phi = m.w.copy(), np.zeros(m.grid.n_nodes)
        assert _kernels.advance_rk4(w, phi, 50, dt, m.grid,
                                    1e-10 * 4 * np.pi) == (50, True)
        w_ref, phi_ref = m.w.copy(), np.zeros(m.grid.n_nodes)
        rk4_ref(w_ref, phi_ref, 50, dt, kernel_args(m.grid))
        assert np.array_equal(w, w_ref)
        # u - a = u0 - <u0>_r drops log m and the second normalization, so
        # phi moves at rounding level: the largest |dphi| over these four
        # cases was 2.2e-19 (max |phi| 1.7e-3); the bound is 20x that
        assert np.max(np.abs(phi - phi_ref)) <= 4e-18


def oracle_metric(case):
    g = make_grid(128)
    if case == "multi_mode":
        return multi_mode(g, seed=7, decay_rate=2.0, amplitude=5e-3)
    l, eps = {"bump_l2": (2, 1e-2), "bump_l6": (6, 1e-2),
              "bump_eps_0.3": (2, 0.3)}[case]
    return legendre_bump(g, l, eps)


class TestExtrapolatedOracle:
    """run over the stability bound against rk4_ref at 1/16 of it."""

    @pytest.mark.parametrize("case", ["bump_l2", "bump_l6", "multi_mode",
                                      "bump_eps_0.3"])
    def test_matches_fine_rk4(self, case):
        m = oracle_metric(case)
        # eps = 0.3 moves the holomorphic band past the grid's default width
        traj = run(FlowConfig(t_end=0.2, record_dt=0.1, early_stop=0.0,
                              band_tol=0.5), m)
        end = traj.states[-1]
        assert end.t == 0.2 and end.dt > stability_dt(m)
        nst = int(np.ceil(0.2 / (stability_dt(m) / 16)))
        w, phi = m.w.copy(), np.zeros(m.grid.n_nodes)
        rk4_ref(w, phi, nst, 0.2 / nst, kernel_args(m.grid))
        # the largest |dw| over the four cases was 3.5e-14, |dphi| 1.2e-14
        assert np.max(np.abs(end.metric.w - w)) <= 1e-12
        assert np.max(np.abs(end.phi - phi)) <= 1e-12


class TestConsistencyTriangle:
    def test_dt_e2w_equals_half_lap_u(self, grid128):
        # d/dt e^{2w} = e^{2w} (1 - K) = (1/2) lap_0 u links flow and solver
        m = legendre_bump(grid128, 2, 1e-2)
        # the former default step, so the tolerance below stays as strict
        dt = 0.25 * grid128.h ** 2 * np.exp(2 * m.w.min())
        s0, s1 = fixed_steps(m, dt, 1)
        fd = (np.exp(2 * s1.metric.w) - np.exp(2 * s0.metric.w)) / dt
        rhs = 0.5 * laplace_round(grid128, s0.u.values)
        assert np.max(np.abs(fd - rhs)) < 5 * (dt + grid128.h ** 2)


class TestKahlerClass:
    def test_zero_at_start(self, p2_run_small):
        assert p2_run_small.states[0].class_residual == 0.0

    def test_residual_at_rounding_along_run(self, p2_run_small):
        res = [s.class_residual for s in p2_run_small.states]
        assert max(res) < 1e-12

    def test_round_trajectory_exact(self, grid128):
        traj = run(FlowConfig(t_end=0.2), round_metric(grid128))
        assert all(s.class_residual == 0.0 for s in traj.states)


class TestLogDet:
    def test_identity_at_start(self, p2_run_small):
        s0 = p2_run_small.states[0]
        f, c = log_det_bookkeeping(s0, s0)
        assert np.max(np.abs(f)) == 0.0
        assert abs(c) < 1e-12

    def test_residual_small_along_run(self, p2_run_small):
        s0 = p2_run_small.states[0]
        res = [log_det_residual(s, s0) for s in p2_run_small.states]
        assert max(res) < 1e-11

    def test_round_trajectory(self, grid128):
        traj = run(FlowConfig(t_end=0.2), round_metric(grid128))
        for s in traj.states:
            f, c = log_det_bookkeeping(s, traj.states[0])
            assert np.max(np.abs(f)) < 1e-13
            assert abs(c) < 1e-13

    def test_check_reuses_recorded_potentials(self, p2_run_small,
                                              monkeypatch):
        # u(0) and u(t) come from the recorded states, never a new solve
        import krflow.flow
        import krflow.potential
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return solve_ricci_potential(*args, **kwargs)

        monkeypatch.setattr(krflow.flow, "solve_ricci_potential", counting)
        monkeypatch.setattr(krflow.potential, "solve_ricci_potential",
                            counting)
        rep = evaluate_trajectory(p2_run_small, ("log_det",))
        assert rep.verdicts() == {"log_det": "PASS"}
        assert calls == []


class TestGateEvents:
    def test_decay_gate_recorded(self, p2_run_small):
        gate_events = [e for e in p2_run_small.events if e[0] == "decay_gate"]
        assert gate_events and gate_events[0][1] == 0.0
        assert gate_events[0][2] == "on"  # small bump: gated from the start

    def test_gate_opens_later_for_large_amplitude(self, p2_run_large):
        gate_events = [e for e in p2_run_large.events if e[0] == "decay_gate"]
        assert gate_events[0][2] == "off"
