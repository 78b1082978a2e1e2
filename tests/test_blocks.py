"""Block passes over recorded states: each equals its one-row form bit for
bit, the first-state exceptions keep their state and message, and no pass
stacks more rows than the block budget.  The same holds for run, which
solves its states in blocks."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

import krflow.flow
import krflow.geometry
from krflow import spectral
from krflow.flow import (FlowConfig, StepReject, Trajectory, log_det_residual,
                         run)
from krflow.geometry import (BLOCK_NODES, NumericalError, Rows,
                             ScaleOutOfRange, block_slices, curvature_bounds,
                             diameter, make_grid, noncollapsing_kappa)
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


def long_inputs(name: str, **config):
    """The initial metric and config of a run of one block of states plus
    one on the named shape."""
    make_metric, record_dt = SHAPES[name]
    metric = make_metric()
    rows = budget(metric.grid.n_nodes) + 1
    return metric, FlowConfig(t_end=(rows - 1) * record_dt,
                              record_dt=record_dt, **config)


@pytest.fixture(scope="module", params=list(SHAPES))
def long_run(request):
    """A run of one block of states plus one."""
    metric, config = long_inputs(request.param)
    traj = run(config, metric)
    assert len(traj.states) == budget(metric.grid.n_nodes) + 1
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


# ---------------------------------------------------------------------------
# run in blocks of states against one state a block
# ---------------------------------------------------------------------------

def state_bits(x):
    """Every field of x, nested through dataclasses and sequences: arrays as
    dtype, shape and bytes, anything else by repr, which also tells a
    Python float from a numpy one."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return tuple((f.name, state_bits(getattr(x, f.name)))
                     for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(state_bits(v) for v in x)
    return repr(x)


def outcome(config, metric):
    """run's trajectory, or the numerical error it raised."""
    try:
        return run(config, metric)
    except NumericalError as exc:
        return exc


def blocked_and_one_state(config, metric, monkeypatch):
    """The outcomes of run in its own blocks and in blocks of one state,
    after checking they agree: every field of every state bit for bit,
    the events in order, the eigensolve counts and converged_at, or the
    type and message of the error."""
    blocked = outcome(config, metric)
    with monkeypatch.context() as mp:
        mp.setattr(krflow.geometry, "BLOCK_NODES", metric.grid.n_nodes)
        one = outcome(config, metric)
    assert type(blocked) is type(one)
    if isinstance(one, Exception):
        assert str(blocked) == str(one)
        return blocked, one
    assert len(blocked.states) == len(one.states)
    for a, b in zip(blocked.states, one.states):
        assert state_bits(a) == state_bits(b)
    assert repr(blocked.events) == repr(one.events)
    assert blocked.eigensolves == one.eigensolves
    assert repr(blocked.converged_at) == repr(one.converged_at)
    return blocked, one


@pytest.mark.parametrize("name", list(SHAPES))
def test_run_equals_one_state_blocks(name, monkeypatch):
    metric, config = long_inputs(name)
    blocked, _ = blocked_and_one_state(config, metric, monkeypatch)
    assert len(blocked.states) == budget(metric.grid.n_nodes) + 1


def test_no_run_block_stacks_more_than_the_budget(monkeypatch):
    metric, config = long_inputs("dense_n64")
    real = krflow.geometry.stack_rows
    sizes = []

    def spy(rows):
        sizes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(krflow.geometry, "stack_rows", spy)
    run(config, metric)
    assert sizes and max(sizes) == budget(64)


@pytest.fixture(scope="module")
def dense_block():
    """The dense_n64 shape's inputs without early stop, the states of its
    run, and a state in the middle of its first block after t = 0."""
    metric, config = long_inputs("dense_n64", early_stop=0.0)
    return metric, config, run(config, metric).states, budget(64) // 2


def converging_at(states, j):
    """An early_stop under which state j is the first to converge."""
    c0 = [s.funcs.c0_u_minus_a for s in states]
    stop = np.nextafter(c0[j], np.inf)
    assert min(c0[:j]) >= stop
    return float(stop)


def test_early_stop_mid_block(dense_block, monkeypatch):
    metric, config, states, j = dense_block
    config = replace(config, early_stop=converging_at(states, j))
    blocked, _ = blocked_and_one_state(config, metric, monkeypatch)
    assert len(blocked.states) == j + 1
    assert blocked.converged_at == states[j].t
    assert blocked.events[-1] == ("converged", states[j].t)


def test_early_stop_integrates_no_segment_past_its_block(dense_block,
                                                        monkeypatch):
    # on a run twice as long, state j converges in the first block after
    # t = 0: the segments to the end of that block are integrated, once
    # each, and none after it; in blocks of one state, none after j
    metric, config, states, j = dense_block
    config = replace(config, t_end=2 * config.t_end,
                     early_stop=converging_at(states, j))
    calls = []

    def counted(real):
        def advance(*args):
            calls.append(1)
            return real(*args)
        return advance

    for name in ("advance_rk4", "advance_extrapolated"):
        monkeypatch.setattr(krflow.flow, name,
                            counted(getattr(krflow.flow, name)))
    traj = run(config, metric)
    assert traj.converged_at == states[j].t
    assert not [e for e in traj.events if e[0] == "step_reject"]
    assert len(calls) == budget(64)
    calls.clear()
    monkeypatch.setattr(krflow.geometry, "BLOCK_NODES", 64)
    assert run(config, metric).converged_at == states[j].t
    assert len(calls) == j


def test_step_reject_precedes_its_state(dense_block, monkeypatch):
    # the first try of segment j fails its class check; the redone segment
    # gives the state that converges, and the reject is the event before
    metric, config, states, j = dense_block
    first_try = states[j].metric.w
    real = krflow.flow.check_class

    def reject_first_try(w, *args):
        if np.array_equal(w, first_try):
            raise StepReject("injected")
        return real(w, *args)

    monkeypatch.setattr(krflow.flow, "check_class", reject_first_try)
    redone = run(config, metric).states
    config = replace(config, early_stop=converging_at(redone, j))
    blocked, _ = blocked_and_one_state(config, metric, monkeypatch)
    t = states[j].t
    assert [e[0] for e in blocked.events[-2:]] == ["step_reject", "converged"]
    assert blocked.events[-2][1] == pytest.approx(t, abs=1e-15)
    assert blocked.events[-1] == ("converged", t)


def spoil_state(monkeypatch, w, change):
    """Pass the Spectrum solved for the metric of profile w, and the start
    Spectrum of that solve, through change(spec, warm) -> (spec, warm)."""
    real = spectral._row_spectrum

    def spoiled(metric, c, mass, warm):
        if not np.array_equal(metric.w, w):
            return real(metric, c, mass, warm)
        warm = change(None, warm)[1]
        return change(real(metric, c, mass, warm), warm)[0]

    monkeypatch.setattr(spectral, "_row_spectrum", spoiled)


def test_band_ambiguity_mid_block(dense_block, monkeypatch):
    # a stray eigenvalue in the state's spectrum: the block fails, and
    # state j raises the error of its own solve after the states before it
    metric, config, states, j = dense_block

    def stray(spec, warm):
        if spec is not None:
            vals = spec.vals.copy()
            vals[2, 0] = 0.5
            spec = replace(spec, vals=vals)
        return spec, warm

    spoil_state(monkeypatch, states[j].metric.w, stray)
    blocked, _ = blocked_and_one_state(config, metric, monkeypatch)
    assert isinstance(blocked, spectral.BandAmbiguity)
    assert str(blocked) == "unexpected eigenvalue 0.5 below the band"
    # a state before it converges: the run ends there, as state by state
    config = replace(config, early_stop=converging_at(states, j - 10))
    blocked, _ = blocked_and_one_state(config, metric, monkeypatch)
    assert blocked.converged_at == states[j - 10].t


def test_integrator_error_after_convergence_returns_the_run(dense_block,
                                                           monkeypatch):
    # every advance from the start of segment j + 4 fails, so the halvings
    # run out there; state j converged first, so run returns the
    # trajectory cut there, in blocks as state by state
    metric, config, states, j = dense_block
    config = replace(config, early_stop=converging_at(states, j))
    start = states[j + 3].metric.w
    hits = []

    def poisoned(real):
        def advance(w, *args):
            if np.array_equal(w, start):
                hits.append(1)
                # advance_extrapolated's tableau depth goes back as given
                return (0, False, *args[5:])
            return real(w, *args)
        return advance

    for name in ("advance_rk4", "advance_extrapolated"):
        monkeypatch.setattr(krflow.flow, name,
                            poisoned(getattr(krflow.flow, name)))
    with pytest.raises(StepReject, match="kept failing"):
        run(replace(config, early_stop=0.0), metric)
    hits.clear()
    blocked, _ = blocked_and_one_state(config, metric, monkeypatch)
    assert len(hits) == krflow.flow.MAX_HALVINGS + 1  # the blocked run only
    assert len(blocked.states) == j + 1
    assert blocked.converged_at == states[j].t


def test_spoiled_start_mid_block_falls_back(dense_block, monkeypatch):
    # mode 0's start block at state j loses its lowest eigenvector to the
    # sixth one of state j - 1: the Sturm guard refuses the pairs, mode 0
    # is bisected, and state j + 1 starts from the bisected block
    metric, config, states, j = dense_block
    prev = states[j - 1]
    six = spectral.solve_mode(
        *spectral.assemble_modes(prev.metric, prev.u), 0,
        spectral.K_PER_MODE + 1)[1]

    def lose_lowest(spec, warm):
        if spec is None:
            bad = warm.vecs.copy()
            bad[0, :, 0] = six[:, spectral.K_PER_MODE]
            warm = replace(warm, vecs=bad)
        return spec, warm

    spoil_state(monkeypatch, states[j].metric.w, lose_lowest)
    blocked, _ = blocked_and_one_state(config, metric, monkeypatch)
    t = states[j].t
    assert [e for e in blocked.events if e[0] == "spectrum_fallback"] == [
        ("spectrum_fallback", t, 0, "sturm")]
    assert blocked.eigensolves["fallback"] == 1
    s = blocked.states[j]
    cold = spectral.solve_mode(*spectral.assemble_modes(s.metric, s.u), 0,
                               spectral.K_PER_MODE)
    np.testing.assert_array_equal(s.spectrum[0], cold[0])
    np.testing.assert_array_equal(s.axial_vectors, cold[1])
    # the next state, started from the bisected block, still converges to
    # the pairs of the run without the spoiled start
    gap = np.abs(blocked.states[j + 1].spectrum - states[j + 1].spectrum)
    assert np.max(gap) <= 1e-9


def test_fault_in_a_block_solve_propagates(monkeypatch):
    # a TypeError of the block path alone is a fault, not a property of
    # a state: it leaves run, where a one-state solve of each state of
    # the block used to hide it
    metric = multi_mode(make_grid(64), seed=7, decay_rate=2.0,
                        amplitude=5e-3)
    config = FlowConfig(t_end=0.01, record_dt=0.001, early_stop=0.0)
    real = krflow.flow.functional_bundle

    def stacks_fail(u, metric, **kwargs):
        if len(np.atleast_2d(metric.w)) > 1:
            raise TypeError("injected into a stack of rows")
        return real(u, metric, **kwargs)

    monkeypatch.setattr(krflow.flow, "functional_bundle", stacks_fail)
    with pytest.raises(TypeError, match="injected"):
        run(config, metric)
    # in blocks of one state the path is never taken, and the run ends
    monkeypatch.setattr(krflow.geometry, "BLOCK_NODES", 64)
    assert len(run(config, metric).states) == 11


def test_fault_in_the_integration_propagates_at_once(dense_block,
                                                     monkeypatch):
    # a TypeError from the advance of segment j + 4 is raised at once:
    # unlike a NumericalError, it does not wait for state j, which
    # converges, to end the run first
    metric, config, states, j = dense_block
    config = replace(config, early_stop=converging_at(states, j))
    start = states[j + 3].metric.w

    def faulty(real):
        def advance(w, *args):
            if np.array_equal(w, start):
                raise TypeError("injected into the advance")
            return real(w, *args)
        return advance

    for name in ("advance_rk4", "advance_extrapolated"):
        monkeypatch.setattr(krflow.flow, name,
                            faulty(getattr(krflow.flow, name)))
    with pytest.raises(TypeError, match="injected"):
        run(config, metric)
