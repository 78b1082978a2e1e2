"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned
here, not tuned at runtime; the expensive trajectories are shared through
module-scoped fixtures.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from krflow.flow import FlowConfig, run, stability_dt
from krflow.geometry import conformal_metric, make_grid, round_metric
from krflow.harness import legendre_bump, loads, multi_mode, sweep_epsilon
from krflow.monitors import (FAIL, GATE_NOT_MET, PASS, bootstrap_tracker,
                             check_bochner, check_c0_vs_Y,
                             check_eigenvalue_derivative,
                             check_gradnorm_evolution, check_weighted_poincare,
                             check_Y_decay, check_Z_derivative)
from krflow.flow import log_det_residual
from krflow.potential import VolumeMismatch, futaki_dilation
from krflow.spectral import merged_spectrum, weighted_spectrum

from helpers import convergence_order, eigen_data


def verdict(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def l2_exact(count):
    out, l = [], 0
    while len(out) < count:
        out.extend([l * (l + 1) / 2.0] * (2 * l + 1))
        l += 1
    return np.array(out[:count])


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def run512_eps2():
    metric = legendre_bump(make_grid(512), 2, 1e-2)
    return run(FlowConfig(t_end=5.0, record_dt=0.02), metric)


@pytest.fixture(scope="module")
def run256_eps2_long():
    metric = legendre_bump(make_grid(256), 2, 1e-2)
    return run(FlowConfig(t_end=10.0, record_dt=0.01), metric)


@pytest.fixture(scope="module")
def run256_eps3():
    metric = legendre_bump(make_grid(256), 2, 1e-3)
    return run(FlowConfig(t_end=5.0, record_dt=0.01), metric)


# (grid n, record_dt) of the identity ladder; the extrapolated step runs it
LADDER = ((128, 0.024), (256, 0.006), (512, 0.0015))


@pytest.fixture(scope="module")
def ladder_runs():
    out = {}
    for n, rec in LADDER:
        metric = legendre_bump(make_grid(n), 2, 1e-3)
        out[n] = run(FlowConfig(t_end=0.36, record_dt=rec), metric)
    return out


FAMILY_EPS = (1e-3, 3e-3, 1e-2)


@pytest.fixture(scope="module")
def family_runs():
    out = {}
    for n in (256, 512):
        for eps in FAMILY_EPS:
            metric = legendre_bump(make_grid(n), 2, eps)
            out[(n, eps)] = run(FlowConfig(t_end=1.3, record_dt=0.02), metric)
    return out


@pytest.fixture(scope="module")
def multimode256():
    metric = multi_mode(make_grid(256), seed=7, decay_rate=2.0, amplitude=5e-3)
    return run(FlowConfig(t_end=1.0, record_dt=0.02), metric)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_01_round_spectrum():
    exact = l2_exact(10)
    devs = {}
    for n in (256, 512):
        m = round_metric(make_grid(n))
        spec = weighted_spectrum(m, None)
        devs[n] = merged_spectrum(spec.vals)[0][:10] - exact
    maxdev = float(np.max(np.abs(devs[512])))
    # Richardson ratio where the fine-grid deviation is measurable; two
    # superconvergent entries sit at rounding and count as converged
    floor = 1e-8
    measurable = np.abs(devs[512]) > floor
    ratios = devs[256][measurable] / devs[512][measurable]
    ratio_ok = bool(np.all((ratios > 3.5) & (ratios < 4.5)))
    floored_ok = bool(np.all(np.abs(devs[256][~measurable]) < 10 * floor))
    verdict(1, "round-spectrum",
            maxdev <= 1e-4 and ratio_ok and floored_ok,
            f"maxdev={maxdev:.2e}, richardson={ratios.min():.2f}.."
            f"{ratios.max():.2f} on {int(measurable.sum())} modes, "
            f"{int((~measurable).sum())} at rounding")


def test_02_holomorphic_pinning(run512_eps2):
    worst = 0.0
    for s in run512_eps2.states:
        worst = max(worst, max(abs(b - 1.0) for b in s.holo_band))
    # reaching this point at all means the band extraction never refused
    verdict(2, "holomorphic-pinning", worst <= 5e-4,
            f"max|band-1|={worst:.2e} over {len(run512_eps2.states)} states")


def test_03_round_fixed_point():
    m = round_metric(make_grid(256))
    dt = stability_dt(m)
    # 1e4 steps of exactly dt in one record segment, no early stop
    nst = 10_000
    traj = run(FlowConfig(t_end=nst * dt, record_dt=nst * dt, dt_init=dt,
                          early_stop=0.0), m)
    state = traj.states[-1]
    assert len(traj.states) == 2 and state.dt == dt
    wdev = float(np.max(np.abs(state.metric.w)))
    vdev = abs(state.metric.volume - 4 * np.pi) / (4 * np.pi)
    verdict(3, "round-fixed-point", wdev <= 1e-12 and vdev <= 1e-10,
            f"sup|w|={wdev:.2e}, |V-4pi|/4pi={vdev:.2e} after 1e4 steps")


def test_04_y_decay(run256_eps3, run256_eps2_long):
    details = []
    ok = True
    for traj in (run256_eps3, run256_eps2_long):
        rep = check_Y_decay(traj)
        y0 = traj.states[0].funcs.Y
        ok &= rep.verdict == PASS and rep.margin >= -1e-10 * y0
        ok &= rep.aux["fitted_rate"] >= 1.0
        details.append(f"margin/Y0={rep.margin / y0:.2e}, "
                       f"rate={rep.aux['fitted_rate']:.2f}")
    verdict(4, "lyapunov-decay", ok, "; ".join(details))


def test_05_identity_suite(ladder_runs):
    hs = [math.pi / n for n, _ in LADDER]
    resids = {"kahler_class": [], "log_det": [], "bochner": [],
              "eigen_derivative": [], "gradnorm": []}
    for n, _ in LADDER:
        traj = ladder_runs[n]
        resids["kahler_class"].append(
            max(s.class_residual for s in traj.states))
        resids["log_det"].append(
            max(log_det_residual(s, traj.states[0]) for s in traj.states))
        mid = traj.states[len(traj.states) // 2]
        spec = weighted_spectrum(mid.metric, mid.u)
        i = int(np.flatnonzero(np.abs(spec.vals[0] - 3.0) < 0.1)[0])
        resids["bochner"].append(
            check_bochner(mid, eigen_data(spec, 0, i)).aux["residual"])
        resids["eigen_derivative"].append(
            check_eigenvalue_derivative(traj, index=2).aux["max_rel_mismatch"])
        resids["gradnorm"].append(
            check_gradnorm_evolution(traj).aux["max_residual"])
    ok = True
    details = []
    for name, vals in resids.items():
        order = convergence_order(hs, vals, floor=1e-11)
        ok &= order >= 1.8
        shown = "floor" if order == math.inf else f"{order:.2f}"
        details.append(f"{name}: order {shown}")
    verdict(5, "identity-suite", ok, "; ".join(details))


def test_06_eigenvalue_derivative(ladder_runs):
    rep = check_eigenvalue_derivative(ladder_runs[256], index=2)
    mism = rep.aux["max_rel_mismatch"]
    verdict(6, "eigenvalue-derivative", rep.verdict == PASS and mism <= 1e-2,
            f"max relative mismatch {mism:.2e} on the axial branch near 3")


def test_07_c0_effective_constant(family_runs):
    k_eff = {}
    raw_t0 = {}
    for (n, eps), traj in family_runs.items():
        y_ref = family_runs[(n, FAMILY_EPS[0])].states[0].funcs.Y
        ys = np.array([s.funcs.Y for s in traj.states])
        state = traj.states[int(np.argmin(np.abs(np.log(ys / y_ref))))]
        rep = check_c0_vs_Y(state, rho=0.5)
        assert "K_eff" in rep.aux, "matched state skipped unexpectedly"
        k_eff[(n, eps)] = rep.aux["K_eff"]
        raw_t0[(n, eps)] = check_c0_vs_Y(traj.states[0], 0.5).aux["K_eff"]
    ok = True
    details = []
    for n in (256, 512):
        vals = [k_eff[(n, e)] for e in FAMILY_EPS]
        spread = max(vals) / min(vals)
        ok &= spread < 2.0
        details.append(f"N={n} matched-Y spread {spread:.3f}x")
    for eps in FAMILY_EPS:
        drift = abs(k_eff[(512, eps)] - k_eff[(256, eps)]) / k_eff[(256, eps)]
        ok &= drift < 0.10
    details.append("grid drift < 10%")
    raw = [raw_t0[(256, e)] for e in FAMILY_EPS]
    details.append(f"raw t=0 spread {max(raw) / min(raw):.2f}x "
                   "(amplitude-dependent, reported only)")
    verdict(7, "c0-effective-constant", ok, "; ".join(details))


def test_08_scaling_law(tmp_path):
    spec = loads(
        "scenario = legendre_bump\ngrid_n = 256\n"
        "[scenario]\nl = 2\n"
        "[flow]\nt_end = 0.12\nrecord_dt = 0.02\n"
        "[monitors]\nchecks = short_time\nt0 = 0.1\n"
        "[sweep]\neps = 1e-6..1e-2:9\ntarget = calabi\n")
    art = sweep_epsilon(spec, base_dir=tmp_path / "sweep8")
    assert art.exit_code == 0, "sweep must complete cleanly"
    ratios = np.array([r["ratio"] for r in art.rows])
    cals = np.array([r["eps_calabi"] for r in art.rows])
    grads = np.array([r["grad_c0_at_t0"] for r in art.rows])
    spread = float(ratios.max() / ratios.min())
    slope = float(np.polyfit(np.log(cals), np.log(grads), 1)[0])
    monotone = bool(np.all(np.diff(ratios) > 0))
    verdict(8, "scaling-law", spread <= 10.0,
            f"ratio max/min={spread:.3f}, fitted slope={slope:.4f}, "
            f"monotone={monotone}")


def test_09_weighted_poincare_everywhere(family_runs, multimode256):
    trajs = [family_runs[(n, e)] for n in (256, 512) for e in FAMILY_EPS]
    trajs.append(multimode256)
    trajs.append(run(FlowConfig(t_end=1.0), round_metric(make_grid(256))))
    worst = np.inf
    count = 0
    for traj in trajs:
        for s in traj.states:
            rep = check_weighted_poincare(s)
            assert rep.verdict == PASS
            worst = min(worst, rep.margin)
            count += 1
    verdict(9, "weighted-poincare", worst >= -1e-8,
            f"min margin {worst:.2e} over {count} states")


def test_10_futaki_vanishing(family_runs, multimode256):
    worst_rel = 0.0
    grids = {}
    for (n, eps), traj in family_runs.items():
        s = traj.states[0]
        h2 = 10 * s.metric.grid.h ** 2
        worst_rel = max(worst_rel,
                        abs(futaki_dilation(s.u.values, s.metric)) / h2)
    for s in (multimode256.states[0], multimode256.states[-1]):
        h2 = 10 * s.metric.grid.h ** 2
        worst_rel = max(worst_rel,
                        abs(futaki_dilation(s.u.values, s.metric)) / h2)
    # parity-breaking profile: the dilation pairing shrinks at second order
    vals = []
    for n in (128, 256, 512):
        g = make_grid(n)
        m = multi_mode(g, seed=7, decay_rate=2.0, amplitude=5e-3)
        from krflow.potential import solve_ricci_potential
        vals.append(futaki_dilation(solve_ricci_potential(m).values, m))
    r1, r2 = vals[0] / vals[1], vals[1] / vals[2]
    richardson_ok = 3.0 < r1 < 5.0 and 3.0 < r2 < 5.0
    verdict(10, "futaki-vanishing", worst_rel <= 1.0 and richardson_ok,
            f"max|Fut|/(10 h^2)={worst_rel:.2e}, richardson {r1:.2f},{r2:.2f}")


def test_11_exponential_convergence(run256_eps2_long):
    states = run256_eps2_long.states
    c0 = np.array([s.funcs.c0_u_minus_a for s in states])
    ts = np.array([s.t for s in states])
    final = c0[ts >= 10.0 - 1e-9]
    reached = len(final) > 0 and final[0] <= 1e-8
    # log-linear tail fit over the last three orders of magnitude
    mask = (c0 > 1e-11) & (c0 < 1e-5)
    rate = float(-np.polyfit(ts[mask], np.log(c0[mask]), 1)[0])
    verdict(11, "exponential-convergence", reached and rate >= 1.0,
            f"|u-a|(10)={final[0]:.2e}, tail rate={rate:.2f}")


def test_12_gate_semantics(tmp_path):
    results = []
    # adversarial sharpening constant: genuine FAIL
    small = run(FlowConfig(t_end=0.1, record_dt=0.01),
                legendre_bump(make_grid(128), 2, 1e-2))
    s = small.states[0]
    rigged = check_weighted_poincare(
        replace(s, funcs=replace(s.funcs, delta_prime_0=s.lambda_g)))
    results.append(("adversarial d'", rigged.verdict == FAIL))
    # adversarial equivalence corridor: FAIL at the first observed state
    boot = bootstrap_tracker(small, phi0=1.0001)
    results.append(("phi0=1.0001", boot.verdict == FAIL
                    and boot.aux["violation_equiv"] <= small.states[1].t))
    # volume-violating input: hard error before the first step
    off = conformal_metric(make_grid(128), np.full(128, 0.05))
    try:
        run(FlowConfig(t_end=1.0), off)
        results.append(("volume-violation", False))
    except VolumeMismatch:
        results.append(("volume-violation", True))
    # large-amplitude run: conditional estimates report GATE_NOT_MET, never
    # FAIL (explicit band width: at this amplitude the holomorphic band
    # spreads beyond the refinement default, the refusal path's territory)
    big = run(FlowConfig(t_end=0.2, record_dt=0.05, band_tol=0.2),
              legendre_bump(make_grid(128), 2, 0.3))
    results.append(("eps=0.3 y-decay", check_Y_decay(big).verdict
                    == GATE_NOT_MET))
    results.append(("eps=0.3 z-derivative", check_Z_derivative(big).verdict
                    == GATE_NOT_MET))
    ok = all(r[1] for r in results)
    verdict(12, "gate-semantics", ok,
            "; ".join(f"{name}: {'ok' if good else 'BAD'}"
                      for name, good in results))
