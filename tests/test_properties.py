"""Property tests: the shared flux Laplacian on random even profiles, and
the spec text round trip.

Profiles are w = sum_{l=2..6} a_l P_l(cos theta), |a_l| <= 0.5, shifted to
volume 4 pi, on grids of 16 to 512 nodes.  Over 2000 derandomized
examples the largest values seen were 6.9e-17 for the telescoping sum
(scaled by max|w| / h^2), 8.9e-15 for the Gauss-Bonnet defect and 9.9e-11
for the potential's PDE residual; each bound below is 14-50x of those.
"""

import string

import numpy as np
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import legendre

from krflow.flow import FlowConfig
from krflow.geometry import (ROUND_VOLUME, conformal_metric, flux_laplacian,
                             gaussian_curvature, laplace_round, make_grid,
                             normalize_volume, weighted_integral)
from krflow.harness import (SCENARIOS, SWEEP_TARGETS, ExperimentSpec, dumps,
                            loads)
from krflow.monitors import ALL_CHECKS
from krflow.potential import solve_ricci_potential

PROPERTY = settings(derandomize=True, deadline=None)

profiles = st.tuples(
    st.integers(16, 512),
    st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5))


def even_metric(profile):
    n, amps = profile
    grid = make_grid(n)
    w = legendre.legval(grid.cos_nodes, [0.0, 0.0, *amps])
    # even by construction; the pole-slope test is too coarse at n = 16
    return normalize_volume(conformal_metric(grid, w, check_poles=False))


@PROPERTY
@given(profiles)
def test_flux_laplacian_telescopes(profile):
    m = even_metric(profile)
    g = m.grid
    lap = laplace_round(g, m.w)
    # laplace_round is the raw-array stencil on the grid's own arrays
    assert np.array_equal(lap, flux_laplacian(
        m.w, g.h, g.sin_flux[1:-1], g.h * g.sin_nodes))
    scale = max(np.max(np.abs(m.w)), 1e-300) / g.h ** 2
    assert abs(np.sum(lap * g.quad_weights)) / scale < 1e-15


@PROPERTY
@given(profiles)
def test_discrete_gauss_bonnet(profile):
    m = even_metric(profile)
    total = weighted_integral(gaussian_curvature(m), m)
    assert abs(total - ROUND_VOLUME) < 2e-13


@PROPERTY
@given(profiles)
def test_potential_pde_residual(profile):
    m = even_metric(profile)
    assert solve_ricci_potential(m).pde_residual < 5e-9


# valid spec values as loads can produce them: "auto" / "none" read as
# None only for the keys whose default is None, the time steps are
# positive, and text values carry no surrounding blanks
real = st.floats(allow_nan=False)
real_or_none = st.none() | real
positive = st.floats(min_value=0.0, exclude_min=True)
word = st.text(st.sampled_from(string.ascii_letters + string.digits
                               + string.punctuation))
SCENARIO_VALUES = {"l": st.integers(2, 10), "eps": real,
                   "seed": st.integers(), "decay_rate": real,
                   "amplitude": real, "file": word}
MONITOR_FLOATS = ("rho", "curvature_bound", "phi0", "t0", "log_det_tol")
MONITOR_AUTO = ("delta", "D", "L", "epsilon", "delta_measured")
FLOW_FLOATS = ("t_end", "vol_tol", "class_tol", "potential_tol",
               "early_stop")


@st.composite
def specs(draw):
    checks = tuple(draw(st.lists(st.sampled_from(ALL_CHECKS), max_size=4)))
    monitors = draw(st.fixed_dictionaries({}, optional={
        **{k: real for k in MONITOR_FLOATS},
        **{k: real_or_none for k in MONITOR_AUTO}}))
    reads_branch = bool({"eigenvalue_derivative", "bochner"} & set(checks))
    with_index = draw(st.booleans())
    # the default branch index 2 needs k_per_mode >= 4
    k = draw(st.integers(4 if reads_branch and not with_index else 3, 12))
    if with_index:
        monitors["branch_index"] = draw(st.integers(0, k - 2))
    flow = FlowConfig(m_max=draw(st.integers(2, 6)), k_per_mode=k,
                      max_halvings=draw(st.integers()),
                      record_dt=draw(positive),
                      dt_init=draw(st.none() | positive),
                      band_tol=draw(real_or_none),
                      **{f: draw(real) for f in FLOW_FLOATS})
    scenario = draw(st.fixed_dictionaries({}, optional=SCENARIO_VALUES))
    return ExperimentSpec(
        scenario=draw(st.sampled_from(SCENARIOS)),
        scenario_params=tuple(sorted(scenario.items())),
        grid_n=draw(st.integers(16, 10 ** 6)), flow=flow, checks=checks,
        monitor_params=tuple(sorted(monitors.items())),
        sweep=tuple(draw(st.lists(real, max_size=3))),
        sweep_target=draw(st.sampled_from(SWEEP_TARGETS)),
        output_dir=draw(word))


@PROPERTY
@given(specs())
@example(ExperimentSpec(sweep_target="calabi"))  # a target without eps
def test_spec_text_round_trip(spec):
    assert loads(dumps(spec)) == spec
