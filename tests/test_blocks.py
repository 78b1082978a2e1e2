"""Block passes over recorded states: each equals its one-row form bit for
bit, the first-state exceptions keep their state and message, and no pass
stacks more rows than the block budget."""

from dataclasses import replace

import numpy as np
import pytest

import krflow.geometry
from krflow.flow import FlowConfig, Trajectory, log_det_residual, run
from krflow.geometry import (BLOCK_NODES, Rows, ScaleOutOfRange,
                             block_slices, curvature_bounds, diameter,
                             make_grid, noncollapsing_kappa)
from krflow.harness import _timeseries_rows, legendre_bump, multi_mode
from krflow.monitors import (ALL_CHECKS, BranchCrossing, _c0_kappas,
                             _c0_report, check_c0_vs_Y,
                             check_eigenvalue_derivative,
                             check_weighted_poincare, evaluate_trajectory)
from krflow.potential import complex_hessian_norms

# the perfbench workload shapes, cut to one block of states plus one:
# (name, initial metric, record_dt)
SHAPES = {
    "flow_n256": (lambda: legendre_bump(make_grid(256), 2, 1e-2), 0.02),
    "spectrum_n1024": (lambda: legendre_bump(make_grid(1024), 3, 1e-2),
                       0.0005),
    "dense_n64": (lambda: multi_mode(make_grid(64), seed=7, decay_rate=2.0,
                                     amplitude=5e-3), 0.001),
}


def budget(n: int) -> int:
    return BLOCK_NODES // n


@pytest.fixture(scope="module", params=list(SHAPES))
def long_run(request):
    """A run of one block of states plus one."""
    make_metric, record_dt = SHAPES[request.param]
    metric = make_metric()
    rows = budget(metric.grid.n_nodes) + 1
    traj = run(FlowConfig(t_end=(rows - 1) * record_dt, record_dt=record_dt),
               metric)
    assert len(traj.states) == rows
    return traj


def cut(traj: Trajectory, count: int) -> Trajectory:
    return Trajectory(states=traj.states[:count])


def bits(report) -> str:
    """Every field of a report; repr round-trips floats, so equal strings
    mean equal bits."""
    return repr(vars(report))


@pytest.mark.parametrize("count", [1, 2, 3, None], ids=["S1", "S2", "S3",
                                                          "block_plus_1"])
def test_reports_equal_one_row_blocks(long_run, count, monkeypatch):
    # one state a block (three for the Hessian pass, which needs each
    # state's neighbours) against the default blocks
    traj = cut(long_run, count or len(long_run.states))
    n = traj.states[0].metric.grid.n_nodes
    blocked = evaluate_trajectory(traj)
    monkeypatch.setattr(krflow.geometry, "BLOCK_NODES", n)
    one_row = evaluate_trajectory(traj)
    assert [c.check_id for c in blocked.checks] == list(ALL_CHECKS)
    assert [bits(c) for c in blocked.checks] == [bits(c)
                                                 for c in one_row.checks]
    assert repr(blocked.rates) == repr(one_row.rates)
    ts = _timeseries_rows(traj)
    monkeypatch.undo()
    assert repr(ts) == repr(_timeseries_rows(traj))


def test_row_operators_equal_one_state(long_run):
    # the stacked operators against the per-state calls, bit for bit
    states = long_run.states
    s0, rho = states[0], 0.5
    n = s0.metric.grid.n_nodes
    for sl in block_slices(len(states), n):
        block = states[sl]
        rows = Rows(block)
        kappa = noncollapsing_kappa(rows.metric, rho)
        diam = diameter(rows.metric)
        kmin, kmax = curvature_bounds(rows.metric)
        mixed, pure = complex_hessian_norms(rows.u.values, rows.metric)
        log_det = log_det_residual(rows, s0)
        for i, s in enumerate(block):
            assert kappa[i] == noncollapsing_kappa(s.metric, rho)
            assert diam[i] == diameter(s.metric)
            assert (kmin[i], kmax[i]) == curvature_bounds(s.metric)
            one_mixed, one_pure = complex_hessian_norms(s.u.values, s.metric)
            assert np.array_equal(mixed[i], one_mixed)
            assert np.array_equal(pure[i], one_pure)
            assert log_det[i] == log_det_residual(s, s0)
    kappas = _c0_kappas(states, rho)
    for s, k in zip(states, kappas):
        assert bits(_c0_report(s, rho, k)) == bits(check_c0_vs_Y(s, rho))
    # the worst Poincare state is the per-state argmin
    (worst,) = evaluate_trajectory(long_run, ("weighted_poincare",)).checks
    margins = [check_weighted_poincare(s).margin for s in states]
    pos = int(np.argmin(margins))
    own = check_weighted_poincare(states[pos])
    own.aux["state_t"] = states[pos].t
    assert bits(worst) == bits(own)


def test_no_pass_stacks_more_than_the_budget(long_run, monkeypatch):
    real = krflow.geometry.stack_rows
    sizes = []

    def spy(rows):
        sizes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(krflow.geometry, "stack_rows", spy)
    evaluate_trajectory(long_run)
    _timeseries_rows(long_run)
    rows = budget(long_run.states[0].metric.grid.n_nodes)
    assert sizes and max(sizes) == rows


def test_block_slices_cover_with_overlap():
    for count in range(0, 12):
        plain = list(block_slices(count, BLOCK_NODES // 4))
        assert [i for sl in plain for i in range(count)[sl]] == list(
            range(count))
        # with two shared rows, every state with two neighbours is the
        # middle row of some block
        middles = {i for sl in block_slices(count, BLOCK_NODES // 4, 2)
                   for i in range(count)[sl][1:-1]}
        assert middles == set(range(1, count - 1))


# ---------------------------------------------------------------------------
# first-state exceptions
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_run():
    return run(FlowConfig(t_end=0.2, record_dt=0.02),
               legendre_bump(make_grid(64), 2, 1e-2))


def shrunk(state, factor):
    """The state with its metric scaled by factor^2: the diameter shrinks
    by factor and nothing else c0_vs_y reads changes."""
    metric = replace(state.metric, w=state.metric.w + np.log(factor))
    return replace(state, metric=metric)


def test_scale_error_from_first_gated_state(short_run, monkeypatch):
    # two states a block, so the refusals sit in the second and third
    # blocks; state 2 is outside the gate, states 3 and 5 refuse rho
    monkeypatch.setattr(krflow.geometry, "BLOCK_NODES", 2 * 64)
    states = list(short_run.states)
    rho = 0.5
    ungated = shrunk(states[2], 0.05)
    states[2] = replace(ungated, funcs=replace(ungated.funcs, grad_u_c0=2.0))
    states[3] = shrunk(states[3], 0.1)
    states[5] = shrunk(states[5], 0.05)
    with pytest.raises(ScaleOutOfRange) as one:
        check_c0_vs_Y(states[3], rho)
    assert "0.15" in str(one.value)  # 0.1 of half the round diameter
    with pytest.raises(ScaleOutOfRange) as blocked:
        evaluate_trajectory(Trajectory(states=states), ("c0_vs_y",))
    assert str(blocked.value) == str(one.value)


def test_branch_crossing_from_first_close_state(short_run):
    states = list(short_run.states)
    index = 2
    for i, width in ((4, 1e-9), (6, 0.0)):
        spectrum = states[i].spectrum.copy()
        spectrum[0, index + 1] = spectrum[0, index] + width
        states[i] = replace(states[i], spectrum=spectrum)
    with pytest.raises(BranchCrossing, match=f"at t = {states[4].t:.6g}$"):
        check_eigenvalue_derivative(Trajectory(states=states), index)


def test_no_k_eff_reports_state_zero(short_run):
    # a rho under |u - a| / 2 everywhere keeps every state out of the gate
    rho = 0.25 * min(s.funcs.c0_u_minus_a for s in short_run.states)
    (report,) = evaluate_trajectory(short_run, ("c0_vs_y",),
                                    {"rho": rho}).checks
    assert "state_t" not in report.aux
    assert bits(report) == bits(check_c0_vs_Y(short_run.states[0], rho))
