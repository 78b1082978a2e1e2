"""Flow integrator: fixed point, conservation, class identity, bookkeeping."""

import numpy as np
import pytest

from krflow import _kernels
from krflow.flow import (SAFETY, RK4_REAL_INTERVAL, FlowConfig, StepReject,
                         check_kahler_class, conformal_velocity,
                         initial_state, log_det_bookkeeping,
                         log_det_residual, run, stability_dt, step)
from krflow.geometry import (conformal_metric, laplace_round, make_grid,
                             normalize_volume, round_metric, volume)
from krflow.harness import legendre_bump, multi_mode
from krflow.monitors import evaluate_trajectory
from krflow.potential import VolumeMismatch, solve_ricci_potential


def P2(x):
    return 0.5 * (3 * x ** 2 - 1)


class TestVelocity:
    def test_round_is_stationary(self, grid128):
        v = conformal_velocity(round_metric(grid128))
        assert np.max(np.abs(v)) < 1e-13

    def test_volume_ode_rhs(self, grid128):
        # dV/dt = V - 4 pi, checked with one tiny explicit update
        c = 0.05
        m = conformal_metric(grid128, np.full(grid128.n_nodes, c))
        v0 = volume(m)
        dt = 1e-7
        m1 = conformal_metric(grid128, m.w + dt * conformal_velocity(m),
                              check_poles=False)
        rate = (volume(m1) - v0) / dt
        assert rate == pytest.approx(v0 - 4 * np.pi, rel=1e-6)


class TestFixedPoint:
    def test_round_many_steps(self, grid128):
        cfg = FlowConfig(t_end=1.0)
        state = initial_state(round_metric(grid128), cfg,
                              with_spectrum=False)
        dt = stability_dt(state.metric)
        for _ in range(200):
            state = step(state, dt, cfg)
        assert np.max(np.abs(state.metric.w)) < 1e-14
        assert volume(state.metric) == pytest.approx(4 * np.pi, abs=1e-12)
        assert np.max(np.abs(state.phi.values)) < 1e-14

    def test_run_round_converges_immediately(self, grid128):
        traj = run(FlowConfig(t_end=5.0), round_metric(grid128))
        assert traj.converged_at == 0.0
        assert len(traj.states) == 1


class TestStep:
    def test_dt_over_stability_rejected(self, grid128):
        cfg = FlowConfig()
        state = initial_state(round_metric(grid128), cfg, with_spectrum=False)
        with pytest.raises(ValueError, match="stability"):
            step(state, 1.0, cfg)

    def test_volume_guard_trips(self, grid128):
        # a volume offset beyond the step tolerance (but inside the
        # solver's solvability window) must reject the step
        m = legendre_bump(grid128, 2, 1e-2)
        off = conformal_metric(grid128, m.w + 5e-11)
        cfg = FlowConfig(vol_tol=1e-12)
        state = initial_state(off, replace_vol_tol(cfg, 1e-8),
                              with_spectrum=False)
        with pytest.raises(StepReject):
            step(state, stability_dt(off), cfg)

    def test_p2_mode_decay_rate(self, grid128):
        # linearized flow damps the quadrupole at rate 2
        m = legendre_bump(grid128, 2, 1e-4)
        cfg = FlowConfig()
        state = initial_state(m, cfg, with_spectrum=False)
        dt = stability_dt(m)
        p2 = P2(grid128.cos_nodes)
        norm = np.sum(p2 * p2 * grid128.quad_weights)

        def mode(s):
            return np.sum(s.metric.w * p2 * grid128.quad_weights) / norm

        a0 = mode(state)
        nst = 200
        for _ in range(nst):
            state = step(state, dt, cfg)
        rate = -np.log(mode(state) / a0) / (nst * dt)
        assert rate == pytest.approx(2.0, rel=1e-3)

    def test_class_reject_halves_and_retries(self, grid64, monkeypatch):
        import krflow.flow
        real = krflow.flow._class_residual
        calls = []

        def fail_once(*args):
            # call 1 is the t = 0 state, call 2 the first segment's end
            calls.append(1)
            return 1.0 if len(calls) == 2 else real(*args)

        monkeypatch.setattr(krflow.flow, "_class_residual", fail_once)
        m = legendre_bump(grid64, 2, 1e-3)
        traj = run(FlowConfig(t_end=0.1, record_dt=0.05), m)
        rejects = [e for e in traj.events if e[0] == "step_reject"]
        assert len(rejects) == 1
        assert rejects[0][1] == pytest.approx(0.05)
        s0, s1, s2 = traj.states
        assert rejects[0][2] <= stability_dt(s0.metric)
        assert s1.dt <= 0.5 * stability_dt(s0.metric) < rejects[0][2]
        assert s2.dt <= 0.5 * stability_dt(s1.metric)
        assert s2.t == 0.1
        assert max(s.class_residual for s in traj.states) < 1e-12


def replace_vol_tol(cfg, tol):
    from dataclasses import replace
    return replace(cfg, vol_tol=tol)


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
        vols = np.array([volume(s.metric) for s in p2_run_small.states])
        assert np.max(np.abs(vols - 4 * np.pi)) < 1e-11

    def test_every_state_solved_and_banded(self, p2_run_small):
        for s in p2_run_small.states:
            assert s.u.norm_residual < 1e-12
            assert s.lambda_g is not None
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
        args = (g.h, g.quad_weights, g.sin_flux[1:-1], g.h * g.sin_nodes,
                float(np.sum(g.h * g.sin_nodes)))
        n = g.n_nodes
        jac = np.empty((n, n))
        eps = 1e-7
        for j in range(n):
            wp, wm = m.w.copy(), m.w.copy()
            wp[j] += eps
            wm[j] -= eps
            jac[:, j] = (_kernels._rhs_numpy(wp, *args)[0]
                         - _kernels._rhs_numpy(wm, *args)[0]) / (2 * eps)
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

    @pytest.mark.parametrize("fixture", ["p2_run_small", "p2_run_large"])
    def test_recorded_dt_within_bound_of_previous(self, request, fixture):
        states = request.getfixturevalue(fixture).states
        assert len(states) > 2
        for prev, cur in zip(states, states[1:]):
            assert cur.dt <= stability_dt(prev.metric)


class TestConsistencyTriangle:
    def test_dt_e2w_equals_half_lap_u(self, grid128):
        # d/dt e^{2w} = e^{2w} (1 - K) = (1/2) lap_0 u links flow and solver
        m = legendre_bump(grid128, 2, 1e-2)
        cfg = FlowConfig()
        # the former default step, so the tolerance below stays as strict
        dt = 0.25 * grid128.h ** 2 * np.exp(2 * m.w.min())
        s0 = initial_state(m, cfg, with_spectrum=False)
        s1 = step(s0, dt, cfg)
        fd = (np.exp(2 * s1.metric.w) - np.exp(2 * s0.metric.w)) / dt
        rhs = 0.5 * laplace_round(grid128, s0.u.values)
        assert np.max(np.abs(fd - rhs)) < 5 * (dt + grid128.h ** 2)


class TestKahlerClass:
    def test_zero_at_start(self, p2_run_small):
        assert check_kahler_class(p2_run_small.states[0]) == 0.0

    def test_residual_at_rounding_along_run(self, p2_run_small):
        res = [check_kahler_class(s) for s in p2_run_small.states]
        assert max(res) < 1e-12

    def test_round_trajectory_exact(self, grid128):
        traj = run(FlowConfig(t_end=0.2), round_metric(grid128))
        assert all(check_kahler_class(s) == 0.0 for s in traj.states)

    def test_state_without_run_rejected(self, grid128):
        cfg = FlowConfig()
        s = initial_state(round_metric(grid128), cfg, with_spectrum=False)
        from dataclasses import replace
        with pytest.raises(ValueError):
            check_kahler_class(replace(s, initial=None))


class TestLogDet:
    def test_identity_at_start(self, p2_run_small):
        s0 = p2_run_small.states[0]
        f, c = log_det_bookkeeping(s0, s0)
        assert np.max(np.abs(f.values)) == 0.0
        assert abs(c) < 1e-12

    def test_residual_small_along_run(self, p2_run_small):
        s0 = p2_run_small.states[0]
        res = [log_det_residual(s, s0) for s in p2_run_small.states]
        assert max(res) < 1e-11

    def test_round_trajectory(self, grid128):
        traj = run(FlowConfig(t_end=0.2), round_metric(grid128))
        for s in traj.states:
            f, c = log_det_bookkeeping(s, traj.states[0])
            assert np.max(np.abs(f.values)) < 1e-13
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
