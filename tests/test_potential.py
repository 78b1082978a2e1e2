"""Ricci potential solve and the derived functionals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from krflow.geometry import (conformal_metric, dtheta, grad_norm_sq,
                             laplace_round, make_grid, normalize_volume,
                             round_metric, weighted_integral)
from krflow.potential import (DomainError, RicciPotential, VolumeMismatch,
                              complex_hessian_norms, delta_prime,
                              functional_bundle, futaki_dilation,
                              hessian_t20, solve_ricci_potential)

from helpers import potential_residuals


def P2(x):
    return 0.5 * (3 * x ** 2 - 1)


def P3(x):
    return 0.5 * (5 * x ** 3 - 3 * x)


def grad_c0_norm(f, metric):
    """C0 norm of the complex gradient: sqrt of the max of |grad f|^2."""
    return float(np.sqrt(np.max(grad_norm_sq(f, metric))))


def functionals(potential, metric):
    """functional_bundle of a potential; lambda_g only sets delta_prime_0."""
    return functional_bundle(potential, metric, lambda_g=3.0)


def normalization_constant_bisect(u0, metric, xtol=1e-12):
    """Bisection on the monotone map c -> (1/V) integral e^{-(u0+c)} dv - 1,
    the independent cross-check of the solver's closed form
    log((1/V) integral e^{-u0} dv).  The root lies in [-max|u0|, max|u0|]."""
    vol = metric.volume

    def excess(c):
        return weighted_integral(np.exp(-(u0 + c)), metric) / vol - 1.0

    b = float(np.max(np.abs(u0)))
    if b == 0.0 or excess(-b) * excess(b) > 0.0:
        # constant u0 up to rounding; the map is already centered
        return math.log(weighted_integral(np.exp(-u0), metric) / vol)
    lo, hi = -b, b
    assert excess(lo) >= 0, "monotone map not bracketed"
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if excess(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bump(grid, eps, l=2):
    fn = P2 if l == 2 else P3
    return normalize_volume(conformal_metric(grid, eps * fn(grid.cos_nodes)))


class TestSolve:
    def test_round_gives_zero(self, grid128):
        m = round_metric(grid128)
        u = solve_ricci_potential(m)
        assert np.max(np.abs(u.values)) == 0.0
        assert u.norm_const == 0.0
        pde, norm = potential_residuals(u, m)
        assert pde < 1e-12 and norm < 1e-12

    def test_volume_mismatch_raises(self, grid128):
        off = conformal_metric(grid128, np.full(grid128.n_nodes, 0.05))
        with pytest.raises(VolumeMismatch):
            solve_ricci_potential(off)

    def test_linearized_p2_oracle(self):
        # (1/2) lap u = (lap + 2) w to first order: u = (4/3) eps P2 + O(eps^2)
        eps = 1e-3
        g = make_grid(512)
        u = solve_ricci_potential(bump(g, eps))
        expected = (4.0 / 3.0) * eps * P2(g.cos_nodes)
        assert np.max(np.abs(u.values - expected)) < 10 * eps ** 2

    def test_residuals_small(self, grid256):
        m = bump(grid256, 1e-2)
        pde, norm = potential_residuals(solve_ricci_potential(m), m)
        assert pde < 1e-11
        assert norm < 1e-13

    def test_bisection_agrees_with_closed_form(self, grid128):
        m = bump(grid128, 1e-2)
        u = solve_ricci_potential(m)
        # re-derive the constant by bisecting the monotone normalization map
        zero_based = u.values - u.values[0]
        c = normalization_constant_bisect(zero_based, m)
        assert c == pytest.approx(u.values[0], abs=1e-11)

    def test_weight_is_a_read_only_fresh_exp(self, grid128):
        # the e^{-u} the solve keeps is the one every weighted integral reads
        u = solve_ricci_potential(bump(grid128, 0.1))
        assert np.array_equal(u.emu, np.exp(-u.values))
        with pytest.raises(ValueError, match="read-only"):
            u.emu[0] = 0.0


class TestAverage:
    def test_round_zero(self, grid128):
        m = round_metric(grid128)
        assert functionals(solve_ricci_potential(m), m).a == 0.0

    def test_jensen_sign_family(self, grid128):
        for eps in (1e-3, 1e-2, 0.1, 0.3):
            m = bump(grid128, eps)
            a = functionals(solve_ricci_potential(m), m).a
            assert a <= 0.0
            assert a == pytest.approx(0.0, abs=5 * eps ** 2)


class TestY:
    def test_round_zero(self, grid128):
        m = round_metric(grid128)
        assert functionals(solve_ricci_potential(m), m).Y == 0.0

    def test_linearized_value(self, grid256):
        # Y ~ (16/9) eps^2 <P2^2> = (16/45) eps^2
        eps = 1e-3
        m = bump(grid256, eps)
        y = functionals(solve_ricci_potential(m), m).Y
        assert y == pytest.approx((16.0 / 45.0) * eps ** 2, rel=5e-3)

    def test_richardson_ratio(self):
        # grid error of Y is O(h^2): successive-difference ratio about 4
        eps = 1e-2
        ys = []
        for n in (128, 256, 512):
            m = bump(make_grid(n), eps)
            ys.append(functionals(solve_ricci_potential(m), m).Y)
        ratio = (ys[0] - ys[1]) / (ys[1] - ys[2])
        assert ratio == pytest.approx(4.0, abs=0.8)


class TestZ:
    def test_round_zero(self, grid128):
        m = round_metric(grid128)
        assert functionals(solve_ricci_potential(m), m).Z == 0.0

    def test_cos_profile_quad_oracle(self, grid256):
        # Z for u = cos on the round metric, against adaptive quadrature
        m = round_metric(grid256)
        u = np.cos(grid256.theta_nodes)
        weight = RicciPotential(values=u, norm_const=0.0, emu=np.exp(-u))
        val = functionals(weight, m).Z
        num, _ = quad(lambda t: 0.5 * np.sin(t) ** 2 * np.exp(-np.cos(t))
                      * np.sin(t), 0, np.pi, epsabs=1e-13)
        assert val == pytest.approx(2 * np.pi * num / (4 * np.pi), rel=1e-4)

    def test_sup_bound(self, grid128):
        m = bump(grid128, 0.05)
        u = solve_ricci_potential(m)
        z = functionals(u, m).Z
        assert z <= grad_c0_norm(u.values, m) ** 2 + 1e-15


class TestDeltaPrime:
    def test_direct_values(self):
        assert delta_prime(1.0, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert delta_prime(0.5, 1.0) == pytest.approx(
            0.5 / (1 + 1.5 * np.e), rel=1e-15)

    def test_limit_a_to_zero(self):
        assert delta_prime(0.0, 1.0) == 0.0
        assert delta_prime(1e-12, 2.0) < 1e-12

    def test_negative_arguments_rejected(self):
        with pytest.raises(DomainError):
            delta_prime(-0.1, 1.0)
        with pytest.raises(DomainError):
            delta_prime(1.0, -0.1)

    def test_monotone_on_lattice(self):
        a_vals = np.linspace(0.05, 2.0, 10)
        s_vals = np.linspace(0.05, 2.0, 10)
        table = np.array([[delta_prime(a, s) for s in s_vals] for a in a_vals])
        assert np.all(np.diff(table, axis=0) > 0)   # increasing in a
        assert np.all(np.diff(table, axis=1) < 0)   # decreasing in s


class TestFutaki:
    def test_round_all_zero(self, grid128):
        m = round_metric(grid128)
        u = solve_ricci_potential(m).values
        assert futaki_dilation(u, m) == 0.0

    def test_even_profile_dilation_vanishes_by_parity(self, grid128):
        m = bump(grid128, 0.1)
        u = solve_ricci_potential(m).values
        dil = futaki_dilation(u, m)
        assert abs(dil) < 1e-13

    def test_odd_profile_character_vanishing(self):
        # odd harmonics break equator parity; the dilation pairing still
        # vanishes, but only through the character identity, at O(h^2)
        vals = []
        for n in (128, 256, 512):
            g = make_grid(n)
            w = 0.05 * P2(g.cos_nodes) + 0.08 * P3(g.cos_nodes)
            m = normalize_volume(conformal_metric(g, w))
            u = solve_ricci_potential(m).values
            dil = futaki_dilation(u, m)
            vals.append(dil)
            assert abs(dil) < 10 * g.h ** 2
        assert vals[0] / vals[1] == pytest.approx(4.0, abs=0.5)
        assert vals[1] / vals[2] == pytest.approx(4.0, abs=0.5)


class TestHessians:
    def test_round_zero_potential(self, grid128):
        m = round_metric(grid128)
        mixed, pure = complex_hessian_norms(np.zeros(grid128.n_nodes), m)
        assert np.max(np.abs(mixed)) == 0.0
        assert np.max(np.abs(pure)) == 0.0

    def test_p2_closed_forms(self, grid256):
        # lap_c P2 = -3 P2 so the mixed norm is 9 P2^2; the trace-free part
        # is (3/2) sin^2 so the pure norm is (9/4) sin^4
        m = round_metric(grid256)
        x = grid256.cos_nodes
        mixed, pure = complex_hessian_norms(P2(x), m)
        h2 = grid256.h ** 2
        assert np.max(np.abs(mixed - 9 * P2(x) ** 2)) < 100 * h2
        sin2 = 1 - x ** 2
        assert np.max(np.abs(pure - 2.25 * sin2 ** 2)) < 100 * h2

    def test_cos_is_conformal_killing_potential(self, grid256):
        # lap_c cos = -cos, and degree-one harmonics have vanishing
        # trace-free Hessian
        m = round_metric(grid256)
        mixed, pure = complex_hessian_norms(grid256.cos_nodes, m)
        x = grid256.cos_nodes
        assert np.max(np.abs(mixed - x ** 2)) < 1e-3
        assert np.max(np.abs(pure)) < 1e-3

    def test_mixed_equals_curvature_defect_for_potential(self, grid256):
        # for the solved potential, lap_c u = 1 - K identically
        m = bump(grid256, 0.05)
        u = solve_ricci_potential(m).values
        mixed, _ = complex_hessian_norms(u, m)
        k = m.curvature
        assert np.max(np.abs(mixed - (1 - k) ** 2)) < 1e-10

    def test_t20_sign_convention(self, grid256):
        u = P2(grid256.cos_nodes)
        t20 = hessian_t20(u, round_metric(grid256), dtheta(grid256, u),
                          laplace_round(grid256, u))
        expected = 1.5 * (1 - grid256.cos_nodes ** 2)
        assert np.max(np.abs(t20 - expected)) < 1e-3


class TestPoincareProperties:
    @pytest.mark.parametrize("eps", [1e-3, 1e-2, 0.1])
    def test_weighted_poincare_floor(self, grid128, eps):
        m = bump(grid128, eps)
        b = functionals(solve_ricci_potential(m), m)
        assert b.Z >= b.Y - 1e-12

    def test_sharpened_inequality(self, grid128):
        # with the measured gap the sharpened constant still leaves margin
        from krflow.spectral import lambda_second, weighted_spectrum
        m = bump(grid128, 1e-2)
        u = solve_ricci_potential(m)
        lam = lambda_second(weighted_spectrum(m, u))[0]
        b = functional_bundle(u, m, lambda_g=lam)
        dp = delta_prime(lam - 1.0, b.osc_u)
        assert b.Z >= (1.0 + dp) * b.Y - 1e-12


class TestBundle:
    def test_fields_consistent(self, grid128):
        m = bump(grid128, 1e-2)
        b = functional_bundle(solve_ricci_potential(m), m, lambda_g=3.0)
        assert b.Y >= 0 and b.Z >= 0
        assert b.c0_u_minus_a <= b.osc_u + 1e-15
        assert 0 <= b.delta_prime_0 < 1.0
