"""Property tests: the shared flux Laplacian, the volume normalization,
the spectrum's conformal scaling and the extrapolated flow step on random
even profiles, and the spec text round trip.

Profiles are w = sum_{l=2..6} a_l P_l(cos theta), |a_l| <= 0.5, shifted to
volume 4 pi, on grids of 16 to 512 nodes.  Over 2000 derandomized
examples the largest values seen were 6.9e-17 for the telescoping sum
(scaled by max|w| / h^2), 8.9e-15 for the Gauss-Bonnet defect, 9.9e-11
for the potential's PDE residual, 8.9e-15 for |V - 4 pi| after
normalize_volume and 8.2e-11 for the constant-shift scaling of the
spectrum (relative to max(1, |lambda|), shifts |c| <= 1); each bound
below is 14-50x of those.

The extrapolated step runs on w = sum a_l P_l, |a_l| <= 0.1, on grids of
32 to 96 nodes, over t = 0.02 in two macro steps, each halved as run
halves a failing segment.  The reference is rk4_ref at min(stability_dt
/ 16, 1e-4): at stability_dt / 16 alone, RK4's own error reaches 1e-11 on
the coarsest grids.  Over 40 derandomized examples the largest values
seen were 5.0e-14 for |w - w_ref|, 2.8e-15 for |phi - phi_ref|, 9.7e-13
for the class residual and 8.7e-14 for |V - 4 pi|; the class bound is
20x of its maximum, and the others are the flow's own tolerances.
"""

import string

import numpy as np
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import legendre

from krflow import _kernels
from krflow.flow import FlowConfig, _class_residual, stability_dt
from krflow.geometry import (ROUND_VOLUME, ConformalMetric, laplace_round,
                             make_grid, normalize_volume, weighted_integral)
from krflow.harness import (SCENARIOS, SWEEP_TARGETS, ExperimentSpec, dumps,
                            loads)
from krflow.monitors import ALL_CHECKS
from krflow.potential import VOLUME_TOL, solve_ricci_potential
from krflow.spectral import K_PER_MODE, weighted_spectrum
from test_flow import kernel_args, rk4_ref

PROPERTY = settings(derandomize=True, deadline=None)

profiles = st.tuples(
    st.integers(16, 512),
    st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5))


def even_metric(profile):
    n, amps = profile
    grid = make_grid(n)
    w = legendre.legval(grid.cos_nodes, [0.0, 0.0, *amps])
    # even by construction; the pole-slope test is too coarse at n = 16
    return normalize_volume(ConformalMetric(grid=grid, w=w))


@PROPERTY
@given(profiles)
def test_flux_laplacian_telescopes(profile):
    m = even_metric(profile)
    g = m.grid
    lap = laplace_round(g, m.w)
    scale = max(np.max(np.abs(m.w)), 1e-300) / g.h ** 2
    assert abs(np.sum(lap * g.quad_weights)) / scale < 1e-15


@PROPERTY
@given(profiles)
def test_discrete_gauss_bonnet(profile):
    m = even_metric(profile)
    total = weighted_integral(m.curvature, m)
    assert abs(total - ROUND_VOLUME) < 2e-13


@PROPERTY
@given(profiles)
def test_potential_pde_residual(profile):
    m = even_metric(profile)
    assert solve_ricci_potential(m).pde_residual < 5e-9


@PROPERTY
@given(profiles)
def test_volume_normalization_exact(profile):
    assert abs(even_metric(profile).volume - ROUND_VOLUME) < 2e-13


@PROPERTY
@given(profiles, st.floats(-1.0, 1.0))
def test_spectrum_constant_shift_scaling(profile, c):
    # w + c scales the mass by e^{2c} and leaves the stiffness alone
    m = even_metric(profile)
    shifted = ConformalMetric(grid=m.grid, w=m.w + c)
    expected = np.exp(-2.0 * c) * weighted_spectrum(m, None).vals
    err = np.abs(weighted_spectrum(shifted, None).vals - expected)
    assert np.max(err / np.maximum(1.0, np.abs(expected))) < 2e-9


flow_profiles = st.tuples(
    st.integers(32, 96),
    st.lists(st.floats(-0.1, 0.1), min_size=5, max_size=5))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(flow_profiles)
def test_extrapolated_step_against_rk4(profile):
    m = even_metric(profile)
    g = m.grid
    vol_limit = FlowConfig().vol_tol * ROUND_VOLUME
    t_end, nsteps = 0.02, 2
    while True:
        w, phi = m.w.copy(), np.zeros(g.n_nodes)
        if _kernels.advance_extrapolated(w, phi, nsteps, t_end / nsteps, g,
                                         vol_limit)[1]:
            break
        nsteps *= 2
        assert nsteps <= 2 ** 12
    metric = ConformalMetric(grid=g, w=w)
    assert abs(metric.volume - ROUND_VOLUME) <= vol_limit
    assert _class_residual(metric, m, phi) < 2e-11
    nst = int(np.ceil(t_end / min(stability_dt(m) / 16, 1e-4)))
    w_ref, phi_ref = m.w.copy(), np.zeros(g.n_nodes)
    rk4_ref(w_ref, phi_ref, nst, t_end / nst, kernel_args(g))
    assert np.max(np.abs(w - w_ref)) <= 1e-12
    assert np.max(np.abs(phi - phi_ref)) <= 1e-12


# valid spec values as loads can produce them: "auto" / "none" read as
# None only for the keys whose default is None, the time steps and the
# tolerances are positive, vol_tol is at most the potential solve's bound,
# 3 band_tol is under 2, t_end is finite and >= 0, the monitor values are in
# the ranges monitor_params checks, t0 is not past t_end, no check id is
# listed twice, and text values carry no surrounding blanks
real = st.floats(allow_nan=False)
positive = st.floats(min_value=0.0, exclude_min=True)
finite_positive = st.floats(min_value=0.0, exclude_min=True,
                            allow_infinity=False)
word = st.text(st.sampled_from(string.ascii_letters + string.digits
                               + string.punctuation))
SCENARIO_VALUES = {"l": st.integers(2, 10), "eps": real,
                   "seed": st.integers(), "decay_rate": real,
                   "amplitude": real, "file": word}
MONITOR_VALUES = {
    "rho": finite_positive, "curvature_bound": finite_positive,
    "phi0": st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    "branch_index": st.integers(0, K_PER_MODE - 2)}


@st.composite
def specs(draw):
    checks = tuple(draw(st.lists(st.sampled_from(ALL_CHECKS), max_size=4,
                                 unique=True)))
    flow = FlowConfig(record_dt=draw(positive),
                      dt_init=draw(st.none() | positive),
                      band_tol=draw(st.none() | st.floats(
                          0.0, 2.0 / 3.0, exclude_min=True,
                          exclude_max=True)),
                      t_end=draw(st.floats(0.0, allow_infinity=False)),
                      early_stop=draw(st.floats(0.0, allow_infinity=False)),
                      vol_tol=draw(st.floats(0.0, VOLUME_TOL,
                                             exclude_min=True)),
                      class_tol=draw(positive))
    monitors = draw(st.fixed_dictionaries({}, optional={
        **MONITOR_VALUES, "t0": st.floats(0.0, flow.t_end)}))
    # a scenario takes only the keys of its own table entry
    name = draw(st.sampled_from(tuple(SCENARIOS)))
    scenario = draw(st.fixed_dictionaries({}, optional={
        k: SCENARIO_VALUES[k] for k in SCENARIOS[name][1]}))
    return ExperimentSpec(
        scenario=name, scenario_params=tuple(sorted(scenario.items())),
        # loads refuses a grid under 28 nodes without an explicit band_tol
        grid_n=draw(st.integers(28 if flow.band_tol is None else 16,
                                10 ** 6)),
        flow=flow, checks=checks,
        monitor_params=tuple(sorted(monitors.items())),
        sweep=tuple(draw(st.lists(real, max_size=3))),
        sweep_target=draw(st.sampled_from(SWEEP_TARGETS)),
        output_dir=draw(word))


@PROPERTY
@given(specs())
@example(ExperimentSpec(sweep_target="calabi"))  # a target without eps
def test_spec_text_round_trip(spec):
    assert loads(dumps(spec)) == spec
