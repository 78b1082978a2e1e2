"""Geometry operators against closed forms and independent quadrature oracles."""

import numpy as np
import pytest
from scipy.integrate import quad

from krflow.geometry import (ConformalMetric, conformal_metric,
                             curvature_bounds, diameter, dtheta, grad_norm_sq,
                             laplace_round, make_grid, noncollapsing_kappa,
                             normalize_volume, pole_slopes, round_metric,
                             weighted_integral)

FOUR_PI = 4 * np.pi


def P2(x):
    return 0.5 * (3 * x ** 2 - 1)


def metric_from_profile(grid, fn):
    return conformal_metric(grid, fn(grid.theta_nodes))


def grad_c0_norm(f, metric):
    """C0 norm of the complex gradient: sqrt of the max of |grad f|^2."""
    return float(np.sqrt(np.max(grad_norm_sq(f, metric))))


class TestGrid:
    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            make_grid(8)

    def test_nodes_interior_increasing(self, grid128):
        th = grid128.theta_nodes
        assert th[0] > 0 and th[-1] < np.pi
        assert np.all(np.diff(th) > 0)

    def test_quadrature_of_one_is_two(self, grid128):
        # exact cell weights: the sum telescopes to cos(0) - cos(pi)
        assert abs(grid128.quad_weights.sum() - 2.0) < 1e-14

    def test_legendre_orthogonality_within_h2(self, grid128):
        # integral P_l(cos) sin dtheta = 0 for l >= 1, midpoint error O(h^2)
        from numpy.polynomial import legendre
        x = grid128.cos_nodes
        for l in range(1, 7):
            c = np.zeros(l + 1)
            c[l] = 1.0
            val = np.sum(legendre.legval(x, c) * grid128.quad_weights)
            assert abs(val) < 5 * grid128.h ** 2


class TestConformalMetric:
    def test_pole_regularity_accepts_even_profiles(self, grid128):
        metric_from_profile(grid128, lambda th: 0.1 * P2(np.cos(th)))

    def test_pole_regularity_rejects_odd_profile(self, grid128):
        with pytest.raises(ValueError, match="pole"):
            metric_from_profile(grid128, lambda th: 0.1 * th)

    def test_rejects_nonfinite(self, grid128):
        w = np.zeros(grid128.n_nodes)
        w[3] = np.inf
        with pytest.raises(ValueError):
            ConformalMetric(grid=grid128, w=w)

    def test_w_is_a_read_only_copy(self, grid128):
        w = 0.1 * P2(grid128.cos_nodes)
        m = ConformalMetric(grid=grid128, w=w)
        w[0] = 1.0  # the caller's array, not the metric's
        assert m.w[0] == 0.1 * P2(grid128.cos_nodes[0])
        for field in ("w", "ew", "e2w", "em2w", "curvature"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(m, field)[0] = 0.0

    def test_cached_fields_equal_a_fresh_computation(self, grid128):
        m = metric_from_profile(grid128, lambda th: 0.2 * P2(np.cos(th)))
        w, q = m.w, grid128.quad_weights
        e2w, em2w = np.exp(2.0 * w), np.exp(-2.0 * w)
        k = em2w * (1.0 - laplace_round(grid128, w))
        assert np.array_equal(m.e2w, e2w)
        assert np.array_equal(m.em2w, em2w)
        assert np.array_equal(m.ew, np.exp(w))
        assert m.volume == float(2.0 * np.pi * np.sum(e2w * q))
        assert np.array_equal(m.curvature, k)
        f = np.cos(grid128.theta_nodes) ** 2
        assert weighted_integral(f, m) == float(
            2.0 * np.pi * np.sum(f * e2w * q))

    def test_pole_slopes_scale(self, grid128, grid256):
        for g in (grid128, grid256):
            n, s = pole_slopes(g, P2(g.cos_nodes))
            assert abs(n) < 10 * g.h ** 2 and abs(s) < 10 * g.h ** 2


class TestCurvature:
    def test_round_is_one(self, grid128):
        k = round_metric(grid128).curvature
        assert np.max(np.abs(k - 1.0)) < 1e-13

    def test_constant_shift_scales(self, grid128):
        c = 0.3
        m = conformal_metric(grid128, np.full(grid128.n_nodes, c))
        k = m.curvature
        assert np.max(np.abs(k - np.exp(-2 * c))) < 1e-13

    def test_cos_profile_closed_form(self):
        # w = eps cos: K = e^{-2 eps cos}(1 + 2 eps cos), lap cos = -2 cos
        eps = 0.05
        errs = []
        for n in (128, 256):
            g = make_grid(n)
            x = g.cos_nodes
            m = conformal_metric(g, eps * x)
            exact = np.exp(-2 * eps * x) * (1 + 2 * eps * x)
            errs.append(np.max(np.abs(m.curvature - exact)))
        assert errs[0] < 20 * (np.pi / 128) ** 2
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)

    def test_gauss_bonnet_exact_discretely(self, grid128):
        m = metric_from_profile(grid128, lambda th: 0.2 * P2(np.cos(th)))
        total = weighted_integral(m.curvature, m)
        assert abs(total - FOUR_PI) < 1e-11

    def test_bounds_round_and_shifted(self, grid128):
        assert curvature_bounds(round_metric(grid128)) == pytest.approx((1, 1))
        c = 0.2
        m = conformal_metric(grid128, np.full(grid128.n_nodes, c))
        lo, hi = curvature_bounds(m)
        assert lo == pytest.approx(np.exp(-2 * c), abs=1e-12)
        assert hi == pytest.approx(np.exp(-2 * c), abs=1e-12)

    def test_bounds_refined_grid_oracle(self):
        vals = []
        for n in (128, 1280):
            g = make_grid(n)
            m = conformal_metric(g, 0.1 * P2(g.cos_nodes))
            vals.append(curvature_bounds(m))
        assert vals[0][0] == pytest.approx(vals[1][0], abs=5e-4)
        assert vals[0][1] == pytest.approx(vals[1][1], abs=5e-4)


class TestVolume:
    def test_round(self, grid128):
        assert round_metric(grid128).volume == pytest.approx(FOUR_PI,
                                                             abs=1e-12)

    def test_constant_scaling_exact(self, grid128):
        c = 0.05
        m = conformal_metric(grid128, np.full(grid128.n_nodes, c))
        assert m.volume == pytest.approx(FOUR_PI * np.exp(2 * c), rel=1e-14)

    def test_p2_against_quad_oracle(self):
        # midpoint-in-cell quadrature is O(h^2); the error must shrink 4x
        oracle, _ = quad(lambda t: np.exp(0.2 * P2(np.cos(t))) * np.sin(t),
                         0, np.pi, epsabs=1e-13)
        errs = []
        for n in (128, 256):
            g = make_grid(n)
            m = conformal_metric(g, 0.1 * P2(g.cos_nodes))
            errs.append(abs(m.volume - 2 * np.pi * oracle))
        assert errs[1] < 10 * (np.pi / 256) ** 2
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.6)

    def test_normalize_volume_exact(self, grid128):
        m = conformal_metric(grid128, 0.3 * P2(grid128.cos_nodes))
        assert normalize_volume(m).volume == pytest.approx(FOUR_PI, abs=1e-12)


class TestWeightedIntegral:
    def test_unit(self, grid128):
        m = round_metric(grid128)
        assert weighted_integral(np.ones(grid128.n_nodes), m) == \
            pytest.approx(FOUR_PI, abs=1e-12)

    def test_odd_symmetry(self, grid128):
        m = round_metric(grid128)
        assert abs(weighted_integral(grid128.cos_nodes, m)) < 1e-13

    def test_p2_squared_normalization(self, grid256):
        # integral P2^2 over the sphere = 4 pi / 5
        m = round_metric(grid256)
        val = weighted_integral(P2(grid256.cos_nodes) ** 2, m)
        assert val == pytest.approx(FOUR_PI / 5, rel=1e-4)


class TestGradNorm:
    def test_constant_is_zero(self, grid128):
        m = round_metric(grid128)
        g = grad_norm_sq(np.ones(grid128.n_nodes), m)
        assert np.max(np.abs(g)) == 0.0

    def test_cos_closed_form(self, grid128):
        m = round_metric(grid128)
        g = grad_norm_sq(grid128.cos_nodes, m)
        exact = 0.5 * np.sin(grid128.theta_nodes) ** 2
        assert np.max(np.abs(g - exact)) < 5 * grid128.h ** 2

    def test_p2_max_value(self, grid256):
        # |grad P2|^2 = (1/2)(3 sin cos)^2, max 9/8 at theta = pi/4
        m = round_metric(grid256)
        g = grad_norm_sq(P2(grid256.cos_nodes), m)
        assert np.max(g) == pytest.approx(1.125, abs=1e-3)
        assert grad_c0_norm(P2(grid256.cos_nodes), m) == \
            pytest.approx(np.sqrt(1.125), abs=1e-3)


class TestDiameter:
    def test_round(self, grid128):
        assert diameter(round_metric(grid128)) == pytest.approx(np.pi, rel=1e-4)

    def test_constant_scaling(self, grid128):
        c = 0.4
        m = conformal_metric(grid128, np.full(grid128.n_nodes, c))
        assert diameter(m) == pytest.approx(np.pi * np.exp(c), rel=1e-4)

    def test_meridian_against_quad_oracle(self, grid256):
        # the pole-to-pole meridian is the exact distance between poles
        m = conformal_metric(grid256, 0.1 * P2(grid256.cos_nodes))
        oracle, _ = quad(lambda t: np.exp(0.1 * P2(np.cos(t))), 0, np.pi,
                         epsabs=1e-13)
        assert diameter(m) == pytest.approx(oracle, abs=1e-5)

    def test_belt_branch_engages_for_dumbbell(self, grid256):
        # deep equatorial bulge: half the waist circumference dominates
        m = conformal_metric(grid256, -0.8 * P2(grid256.cos_nodes))
        th = grid256.theta_nodes
        belt_oracle = np.max(np.pi * np.exp(-0.8 * P2(np.cos(th))) * np.sin(th))
        meridian, _ = quad(lambda t: np.exp(-0.8 * P2(np.cos(t))), 0, np.pi)
        assert belt_oracle > meridian
        assert diameter(m) == pytest.approx(belt_oracle, rel=1e-6)


def kappa_by_loop(metric, rho, n_radii=48):
    """noncollapsing_kappa one radius and one pole at a time: the scalar
    reference for the vectorized ball volumes."""
    g = metric.grid
    vol_total = metric.volume
    flux_angles = np.arange(g.n_nodes + 1) * g.h
    kappa = np.inf
    for south in (False, True):
        ew = np.exp(metric.w)
        e2w = np.exp(2.0 * metric.w)
        if south:
            ew, e2w = ew[::-1], e2w[::-1]
        radii = np.concatenate(([0.0], np.cumsum(ew * g.h)))
        cum_vol = np.concatenate(
            ([0.0], np.cumsum(2.0 * np.pi * e2w * g.quad_weights)))
        for r in np.geomspace(rho / 100.0, rho, n_radii):
            if r >= radii[-1]:
                ball = cum_vol[-1]
            else:
                j = int(np.searchsorted(radii, r, side="right") - 1)
                theta_r = flux_angles[j] + (r - radii[j]) / ew[j]
                ball = cum_vol[j] + 2.0 * np.pi * e2w[j] * (
                    np.cos(flux_angles[j]) - np.cos(theta_r))
            kappa = min(kappa, ball / (vol_total * r * r))
    return float(kappa)


class TestNonCollapsing:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("amp", [-3.0, -0.1, 0.1, 0.4])
    def test_equals_scalar_loop(self, n, amp):
        g = make_grid(n)
        m = normalize_volume(conformal_metric(g, amp * P2(g.cos_nodes)))
        half = 0.5 * diameter(m)
        if amp == -3.0:
            # a thin belt: radii past the far pole hold the whole volume
            assert half > np.sum(np.exp(m.w)) * g.h
        for rho in (0.1, 0.5, half):
            assert noncollapsing_kappa(m, rho) == kappa_by_loop(m, rho)

    def test_round_rho_one_closed_form(self, grid256):
        # cap volume 2 pi (1 - cos r): worst ratio at r = rho = 1
        val = noncollapsing_kappa(round_metric(grid256), 1.0)
        assert val == pytest.approx((1 - np.cos(1.0)) / 2, abs=2e-4)

    def test_round_small_rho_quarter(self, grid256):
        val = noncollapsing_kappa(round_metric(grid256), 1e-2)
        assert val == pytest.approx(0.25, abs=1e-3)

    def test_rho_beyond_half_diameter_rejected(self, grid128):
        with pytest.raises(ValueError, match="diameter"):
            noncollapsing_kappa(round_metric(grid128), 2.0)

    def test_p2_refined_grid_oracle(self):
        vals = []
        for n in (128, 1280):
            g = make_grid(n)
            m = conformal_metric(g, 0.1 * P2(g.cos_nodes))
            vals.append(noncollapsing_kappa(m, 0.5))
        assert vals[0] == pytest.approx(vals[1], rel=2e-3)

    def test_scaling_equivariance(self, grid256):
        # kappa r^2 is the scale-invariant combination: under w -> w + c
        # with rho -> e^c rho the value picks up e^{-2c}
        m = conformal_metric(grid256, 0.05 * P2(grid256.cos_nodes))
        c = 0.3
        shifted = conformal_metric(grid256, m.w + c)
        k1 = noncollapsing_kappa(m, 0.5)
        k2 = noncollapsing_kappa(shifted, 0.5 * np.exp(c))
        assert k2 * np.exp(2 * c) == pytest.approx(k1, rel=1e-10)


class TestScalingCovariance:
    def test_shift_covariance(self, grid128):
        base = conformal_metric(grid128, 0.1 * P2(grid128.cos_nodes))
        c = 0.25
        shifted = conformal_metric(grid128, base.w + c)
        assert shifted.volume == pytest.approx(np.exp(2 * c) * base.volume,
                                                rel=1e-14)
        assert diameter(shifted) == pytest.approx(np.exp(c) * diameter(base),
                                                  rel=1e-12)
        k0 = base.curvature
        k1 = shifted.curvature
        assert np.max(np.abs(k1 - np.exp(-2 * c) * k0)) < 1e-13


class TestOperators:
    def test_laplace_legendre_eigen(self, grid256):
        # lap P_l = -l(l+1) P_l
        from numpy.polynomial import legendre
        for l in (1, 2, 3):
            c = np.zeros(l + 1)
            c[l] = 1.0
            f = legendre.legval(grid256.cos_nodes, c)
            lap = laplace_round(grid256, f)
            assert np.max(np.abs(lap + l * (l + 1) * f)) < 30 * grid256.h ** 2

    def test_laplace_telescopes_to_zero(self, grid128):
        rng = np.random.default_rng(3)
        f = np.cumsum(rng.standard_normal(grid128.n_nodes)) * 1e-2
        lap = laplace_round(grid128, f)
        total = np.sum(lap * grid128.h * grid128.sin_nodes)
        assert abs(total) < 1e-13

    def test_dtheta_even_odd_parity(self, grid128):
        th = grid128.theta_nodes
        even = np.cos(th)
        d_even = dtheta(grid128, even, parity=1)
        assert np.max(np.abs(d_even + np.sin(th))) < 5 * grid128.h ** 2
        odd = np.sin(th)
        d_odd = dtheta(grid128, odd, parity=-1)
        assert np.max(np.abs(d_odd - np.cos(th))) < 5 * grid128.h ** 2
