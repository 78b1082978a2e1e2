"""Weighted-Laplacian spectra: round oracles, pinning, band extraction."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from krflow import spectral
from krflow.cli import main
from krflow.flow import FlowConfig, run
from krflow.geometry import (conformal_metric, make_grid, normalize_volume,
                             round_metric, weighted_integral)
from krflow.harness import (EXIT_NUMERICAL, ExperimentSpec, legendre_bump,
                            multi_mode, write_report)
from krflow.potential import solve_ricci_potential
from krflow.spectral import (BANDWIDTH, K_PER_MODE, N_MODES, BandAmbiguity,
                             SolveFail, assemble_modes, eigen_data,
                             lambda_second, merged_spectrum,
                             rayleigh_residual, sobolev_constant_estimate,
                             solve_mode, weighted_spectrum)


def P2(x):
    return 0.5 * (3 * x ** 2 - 1)


def bump(grid, eps):
    return normalize_volume(conformal_metric(grid, eps * P2(grid.cos_nodes)))


def plain_lambda1(metric):
    """First positive eigenvalue of the unweighted complex Laplacian."""
    vals = merged_spectrum(weighted_spectrum(metric, None).vals)[0]
    zero_scale = max(abs(vals[0]), 1e-12)
    positive = vals[vals > 100.0 * zero_scale + 1e-10]
    return float(positive[0])


def spherical_eigs(count):
    """Eigenvalues l(l+1)/2 with multiplicity 2l+1, merged ascending."""
    out = []
    l = 0
    while len(out) < count:
        out.extend([l * (l + 1) / 2.0] * (2 * l + 1))
        l += 1
    return np.array(out[:count])


class TestRoundSpectrum:
    def test_merged_first_ten(self, grid256):
        m = round_metric(grid256)
        spec = weighted_spectrum(m, solve_ricci_potential(m))
        exact = spherical_eigs(10)
        vals = merged_spectrum(spec.vals)[0]
        assert np.max(np.abs(vals[:10] - exact)) < 1e-3

    def test_mode_zero_alone(self, grid256):
        m = round_metric(grid256)
        prob = assemble_modes(m, solve_ricci_potential(m))[0]
        vals, _ = solve_mode(prob, 4)
        assert np.allclose(vals, [0.0, 1.0, 3.0, 6.0], atol=1e-3)

    def test_constant_shift_scaling_exact(self, grid128):
        # off the normalized class the pinning at 1 fails, exactly as the
        # conformal scaling predicts: every eigenvalue picks up e^{-2c}
        c = 0.2
        m = conformal_metric(grid128, np.full(grid128.n_nodes, c))
        vals = merged_spectrum(weighted_spectrum(m, None).vals)[0]
        m0 = round_metric(grid128)
        vals0 = merged_spectrum(weighted_spectrum(m0, None).vals)[0]
        assert np.allclose(vals, np.exp(-2 * c) * vals0, rtol=1e-12)
        assert abs(vals[1] - 1.0) > 0.2

    def test_zero_mode_and_positivity(self, grid128):
        m = round_metric(grid128)
        vals = merged_spectrum(weighted_spectrum(m, None).vals)[0]
        assert abs(vals[0]) < 1e-10
        assert vals[1] > 1.0 - 1e-3

    def test_plus_minus_m_doubling(self, grid128):
        spec = weighted_spectrum(round_metric(grid128), None)
        modes = merged_spectrum(spec.vals)[1]
        for m in (1, 2):
            count = np.count_nonzero(modes == m)
            assert count == 2 * 5  # K_PER_MODE entries, each twice


ORACLE_METRICS = {
    # equator-symmetric: its odd-parity eigenvectors must not come from
    # rounding noise in the start vector
    "legendre_bump": lambda g: legendre_bump(g, 2, 1e-2),
    "multi_mode": lambda g: multi_mode(g, 7, 2.0, 5e-3),
}


def scaled_band(prob):
    """Upper band storage of B^{-1/2} A B^{-1/2}, as eig_banded takes it."""
    n = prob.mass.size
    binv = 1.0 / np.sqrt(prob.mass)
    band = np.zeros((BANDWIDTH + 1, n))
    for kk in range(BANDWIDTH + 1):
        band[BANDWIDTH - kk, kk:] = (prob.bands[kk, :n - kk] * binv[:n - kk]
                                     * binv[kk:])
    return band


def dense_stiffness(prob):
    n = prob.mass.size
    a = np.diag(prob.bands[0])
    for kk in range(1, BANDWIDTH + 1):
        a += np.diag(prob.bands[kk, :n - kk], kk)
        a += np.diag(prob.bands[kk, :n - kk], -kk)
    return a


def pencil_residual(prob, lam, vecs):
    """|| A v - lam B v || in the B^{-1} norm per column of the (n, k)
    block vecs, with the eigenvalues lam, on the dense pencil."""
    r = dense_stiffness(prob) @ vecs - lam * prob.mass[:, None] * vecs
    return np.sqrt(np.sum(r * r / prob.mass[:, None], axis=0))


def rayleigh_quotients(prob, vecs):
    """v^T A v / v^T B v per column, summed in long double."""
    v = vecs.astype(np.longdouble)
    a = dense_stiffness(prob).astype(np.longdouble)
    return (np.sum(v * (a @ v), axis=0)
            / np.sum(prob.mass[:, None] * v * v, axis=0))


class TestSolveModeOracle:
    K = 5

    @pytest.fixture(scope="class", params=sorted(ORACLE_METRICS))
    def metric_u(self, request):
        m = ORACLE_METRICS[request.param](make_grid(128))
        return m, solve_ricci_potential(m)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_against_eig_banded_and_eigh(self, metric_u, mode):
        metric, u = metric_u
        prob = assemble_modes(metric, u)[mode]
        vals, vecs = solve_mode(prob, self.K)
        ref_vals = scipy.linalg.eig_banded(
            scaled_band(prob), lower=False, select="i",
            select_range=(0, self.K - 1), eigvals_only=True)
        scale = np.maximum(1.0, np.abs(ref_vals))
        assert np.max(np.abs(vals - ref_vals) / scale) <= 1e-12
        # Rayleigh-Ritz values sit on their own vectors' quotients, and the
        # constants are in mode 0's kernel exactly
        quotients = rayleigh_quotients(prob, vecs)
        assert np.max(np.abs(vals - quotients) / scale) <= 1e-13
        if mode == 0:
            assert abs(vals[0]) <= 1e-13
        gram = vecs.T @ (prob.mass[:, None] * vecs)
        assert np.max(np.abs(gram - np.eye(self.K))) < 1e-12
        _, dense = scipy.linalg.eigh(dense_stiffness(prob), np.diag(prob.mass),
                                     subset_by_index=(0, self.K - 1))
        for i in range(self.K):
            flip = np.sign(np.dot(vecs[:, i], prob.mass * dense[:, i]))
            assert np.max(np.abs(flip * vecs[:, i] - dense[:, i])) < 1e-10
        assert np.all(pencil_residual(prob, vals, vecs) < 1e-10)

    def test_block_residual_matches_columns(self, metric_u):
        # the residual of a block in reduced coordinates, C applied to the
        # whole block, against each column applied alone
        metric, u = metric_u
        prob = assemble_modes(metric, u)[1]
        vals, vecs = solve_mode(prob, self.K)
        c = spectral._reduced_bands(prob.bands, prob.mass)
        y = np.sqrt(prob.mass)[:, None] * vecs
        block = rayleigh_residual(y, spectral._band_apply(c, y), vals)
        single = [rayleigh_residual(y[:, i:i + 1],
                                    spectral._band_apply(c, y[:, i:i + 1]),
                                    vals[i:i + 1])[0]
                  for i in range(self.K)]
        np.testing.assert_allclose(block, single, rtol=1e-12, atol=1e-300)


def _wrap_output(name, patch):
    """Wrap the LAPACK call `name` in krflow.spectral, editing its output."""
    real = getattr(spectral, name)
    return lambda *args, **kwargs: patch(real(*args, **kwargs))


SOLVE_FAULTS = {
    "bisection_info": ("dsbevx", lambda out: out[:4] + (1,)),
    "bisection_short": ("dsbevx",
                        lambda out: out[:2] + (out[2] - 1,) + out[3:]),
    "zero_pivot": ("dgbtrf", lambda out: out[:2] + (3,)),
}


class TestSolveFail:
    @pytest.mark.parametrize("fault", sorted(SOLVE_FAULTS))
    def test_lapack_fault_raises_and_exits_three(self, fault, monkeypatch,
                                                 grid64, tmp_path):
        name, patch = SOLVE_FAULTS[fault]
        monkeypatch.setattr(spectral, name, _wrap_output(name, patch))
        prob = assemble_modes(round_metric(grid64), None)[0]
        with pytest.raises(SolveFail):
            solve_mode(prob, 5)
        self._assert_run_exits_three(tmp_path)

    def test_nan_residual_fails_the_check(self, monkeypatch, grid64,
                                          tmp_path):
        # a NaN compares False with any tolerance; it must still fail
        monkeypatch.setattr(spectral, "rayleigh_residual",
                            lambda y, cy, vals: np.full(vals.shape, np.nan))
        with pytest.raises(SolveFail, match="residual nan"):
            weighted_spectrum(round_metric(grid64), None)
        self._assert_run_exits_three(tmp_path)

    @staticmethod
    def _assert_run_exits_three(tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text(f"output_dir = {tmp_path / 'o'}\n"
                        "scenario = round\ngrid_n = 64\n")
        assert main(["run", str(path)]) == EXIT_NUMERICAL
        assert "SolveFail" in (tmp_path / "o" / "report.txt").read_text()


class TestLambdaSecond:
    def test_round(self, grid256):
        m = round_metric(grid256)
        spec = weighted_spectrum(m, solve_ricci_potential(m))
        lam, band, _ = lambda_second(spec)
        assert lam == pytest.approx(3.0, abs=1e-3)
        assert len(band) == 3
        assert np.max(np.abs(np.array(band) - 1.0)) < 1e-3

    def test_perturbed_band_stays_pinned(self):
        for n in (128, 256):
            g = make_grid(n)
            m = bump(g, 1e-3)
            spec = weighted_spectrum(m, solve_ricci_potential(m))
            lam, band, _ = lambda_second(spec)
            assert np.max(np.abs(np.array(band) - 1.0)) < 50 * g.h ** 2
            assert lam == pytest.approx(3.0, abs=0.05)

    def test_pinning_refines_at_second_order(self):
        # m = 0 band member converges at O(h^2) toward exactly 1
        devs = []
        for n in (128, 256, 512):
            g = make_grid(n)
            m = bump(g, 1e-3)
            spec = weighted_spectrum(m, solve_ricci_potential(m))
            _, band, _ = lambda_second(spec)
            devs.append(abs(min(band) - 1.0))
        assert devs[0] / devs[1] == pytest.approx(4.0, abs=1.0)
        assert devs[1] / devs[2] == pytest.approx(4.0, abs=1.0)

    def test_zero_band_tol_is_ambiguous(self, grid128):
        m = round_metric(grid128)
        spec = weighted_spectrum(m, solve_ricci_potential(m))
        with pytest.raises(BandAmbiguity):
            lambda_second(spec, band_tol=0.0)


class TestEigenData:
    def test_p2_eigenfunction_closed_form(self, grid256):
        # lambda = 3 axial eigenfunction is sqrt(5) P2 up to sign
        m = round_metric(grid256)
        spec = weighted_spectrum(m, solve_ricci_potential(m))
        # find the axial lambda = 3 entry
        i = int(np.flatnonzero(np.abs(spec.vals[0] - 3.0) < 1e-2)[0])
        eig = eigen_data(spec, 0, i)
        exact = np.sqrt(5) * P2(grid256.cos_nodes)
        flip = np.sign(np.dot(eig.psi, exact))
        assert np.max(np.abs(flip * eig.psi - exact)) < 5e-3
        assert np.sqrt(np.max(eig.grad_bar_sq)) == pytest.approx(
            2.3717, abs=2e-3)

    def test_normalization_and_rayleigh(self, grid128):
        m = bump(grid128, 1e-2)
        u = solve_ricci_potential(m)
        spec = weighted_spectrum(m, u)
        problems = assemble_modes(m, u)
        for mode, i in ((0, 1), (0, 2), (1, 1)):
            eig = eigen_data(spec, mode, i)
            norm = weighted_integral(
                eig.psi ** 2 * np.exp(-u.values), m) / m.volume
            assert norm == pytest.approx(1.0, rel=1e-12)
            stored = spec.vecs[mode][:, i:i + 1]
            assert pencil_residual(problems[mode], eig.lam, stored)[0] < 1e-8
            # integration-by-parts identity at quadrature accuracy
            mean_grad = weighted_integral(
                eig.grad_bar_sq * np.exp(-u.values), m) / m.volume
            assert mean_grad == pytest.approx(eig.lam, rel=5e-3)

    def test_constant_eigenfunction_zero_gradient(self, grid128):
        m = round_metric(grid128)
        spec = weighted_spectrum(m, None)
        eig = eigen_data(spec, 0, 0)
        assert eig.lam == pytest.approx(0.0, abs=1e-10)
        assert np.max(eig.grad_bar_sq) < 1e-10

    def test_band_members(self, grid128):
        m = bump(grid128, 1e-3)
        u = solve_ricci_potential(m)
        spec = weighted_spectrum(m, u)
        # one axial member and one m = 1 member, which stands for m = +-1
        members = lambda_second(spec)[2]
        assert members.sum(axis=1).tolist() == [1, 1, 0]


class TestStructure:
    def test_stiffness_psd_mass_positive(self, grid128):
        m = bump(grid128, 0.1)
        u = solve_ricci_potential(m)
        for mode, prob in enumerate(assemble_modes(m, u)):
            assert np.all(prob.mass > 0)
            # the form is a sum of squares: smallest eigenvalue >= 0, and
            # the axial block annihilates constants exactly
            vals, _ = solve_mode(prob, 1)
            assert vals[0] > -1e-10
            if mode == 0:
                av = spectral._band_apply(prob.bands,
                                          np.ones((grid128.n_nodes, 1)))
                assert np.max(np.abs(av)) < 1e-12

    def test_nodal_potential_is_not_a_weight(self, grid128):
        # the weight is the solved potential's e^{-u}: bare nodal values
        # raise
        m = bump(grid128, 0.1)
        with pytest.raises(AttributeError):
            assemble_modes(m, solve_ricci_potential(m).values)

    def test_refinement_richardson(self):
        # each tracked eigenvalue converges at O(h^2)
        vals = {n: None for n in (128, 256, 512)}
        for n in vals:
            m = round_metric(make_grid(n))
            spec = weighted_spectrum(m, None)
            vals[n] = merged_spectrum(spec.vals)[0][:10]
        exact = spherical_eigs(10)
        for i in (1, 4, 9):
            r = (vals[128][i] - exact[i]) / (vals[256][i] - exact[i])
            assert r == pytest.approx(4.0, abs=0.5)
            r = (vals[256][i] - exact[i]) / (vals[512][i] - exact[i])
            assert r == pytest.approx(4.0, abs=0.5)


# warm-started eigenvalues agree with the cold solve within this share of
# max(1, |lam|), and B-orthonormal eigenvectors within this share of their
# largest entry
WARM_TOL = 1e-10
WARM_VEC_TOL = 1e-9

# the dense_n64, flow_n256 and spectrum_n1024 shapes of perfbench, cut
# short, and a large step between records, where one inverse-iteration
# sweep leaves residuals up to 200 times RESIDUAL_TOL and a second runs
WARM_RUNS = {
    "n64": lambda: (multi_mode(make_grid(64), seed=7, decay_rate=2.0,
                               amplitude=5e-3),
                    FlowConfig(t_end=0.05, record_dt=1e-3)),
    "n256": lambda: (legendre_bump(make_grid(256), 2, 1e-2),
                     FlowConfig(t_end=0.2, record_dt=0.02)),
    "n1024": lambda: (legendre_bump(make_grid(1024), 3, 1e-2),
                      FlowConfig(t_end=2e-3, record_dt=5e-4)),
    "large_step": lambda: (legendre_bump(make_grid(64), 2, 0.3),
                           FlowConfig(t_end=0.25, record_dt=0.05)),
}


def assert_same_vectors(a, b):
    """Columns of a equal those of b up to sign, within WARM_VEC_TOL."""
    sign = np.sign(np.sum(a * b, axis=0))
    assert np.max(np.abs(a - sign * b)) <= WARM_VEC_TOL * np.max(np.abs(b))


class TestWarmStart:
    @pytest.mark.parametrize("case", sorted(WARM_RUNS))
    def test_warm_matches_cold_along_trajectory(self, case):
        metric, config = WARM_RUNS[case]()
        traj = run(config, metric)
        later = len(traj.states) - 1
        assert later >= 4
        assert traj.eigensolves == {"cold": N_MODES,
                                    "warm": N_MODES * later, "fallback": 0}
        for s in traj.states[1:]:
            cold = weighted_spectrum(s.metric, s.u)
            rel = np.abs(s.spectrum - cold.vals) / np.maximum(
                1.0, np.abs(cold.vals))
            assert np.max(rel) <= WARM_TOL
            assert_same_vectors(s.axial_vectors, cold.vecs[0])
            assert_same_vectors(s.holo_vectors, cold.vecs[1][
                :, lambda_second(cold)[2][1]])

    def test_bad_block_falls_back_to_cold(self, monkeypatch, tmp_path):
        # mode 0's block loses its lowest eigenvector to the sixth one: the
        # warm pairs are the second to sixth, and the Sturm guard refuses
        # them; the state gets the cold result and the run an event
        metric, _ = WARM_RUNS["n64"]()
        s0 = run(FlowConfig(t_end=0.0), metric).states[0]
        start = weighted_spectrum(s0.metric, s0.u)
        _, six = solve_mode(assemble_modes(s0.metric, s0.u)[0],
                            K_PER_MODE + 1)
        bad = start.vecs[0].copy()
        bad[:, 0] = six[:, K_PER_MODE]
        real = spectral.weighted_spectrum

        def spoiled(metric, u, warm=None):
            if warm is not None:
                np.testing.assert_array_equal(warm.vecs[0], start.vecs[0])
                warm = replace(warm, vecs=(bad, *warm.vecs[1:]))
            return real(metric, u, warm)

        monkeypatch.setattr(spectral, "weighted_spectrum", spoiled)
        traj = run(FlowConfig(t_end=1e-3, record_dt=1e-3), metric)
        assert traj.eigensolves == {"cold": N_MODES, "warm": N_MODES - 1,
                                    "fallback": 1}
        assert ("spectrum_fallback", 1e-3, 0, "sturm") in traj.events
        s1 = traj.states[1]
        cold = real(s1.metric, s1.u)
        np.testing.assert_array_equal(s1.spectrum[0], cold.vals[0])
        np.testing.assert_array_equal(s1.axial_vectors, cold.vecs[0])
        write_report(tmp_path / "report.txt", ExperimentSpec(), traj, None)
        text = (tmp_path / "report.txt").read_text()
        assert "\neigensolves = cold 3, warm 2, fallback 1\n" in text
        assert "\nevent = spectrum_fallback, 0.001, 0, sturm\n" in text


class TestPlainLambda1:
    def test_round_is_one(self, grid256):
        assert plain_lambda1(round_metric(grid256)) == pytest.approx(
            1.0, abs=1e-3)

    def test_constant_shift(self, grid128):
        c = 0.2
        m = conformal_metric(grid128, np.full(grid128.n_nodes, c))
        lam0 = plain_lambda1(round_metric(grid128))
        assert plain_lambda1(m) == pytest.approx(np.exp(-2 * c) * lam0,
                                                 rel=1e-12)

    def test_p2_refined_oracle(self):
        vals = [plain_lambda1(bump(make_grid(n), 0.1)) for n in (128, 1024)]
        assert vals[0] == pytest.approx(vals[1], abs=2e-3)


class TestSobolev:
    def test_round_constant_probe_value(self, grid256):
        # the constant probe alone gives (4 pi)^{-1/2}
        est = sobolev_constant_estimate(round_metric(grid256))
        assert est >= (4 * np.pi) ** -0.5 - 1e-12

    def test_refinement_stability(self):
        vals = [sobolev_constant_estimate(round_metric(make_grid(n)))
                for n in (128, 256)]
        assert vals[0] == pytest.approx(vals[1], rel=1e-2)

    def test_scaling_audit(self, grid128):
        # under g -> e^{2c} g each probe transforms exactly: the quartic
        # piece picks up e^c, the Dirichlet piece is conformally invariant,
        # the mass piece picks up e^{2c}
        from krflow.spectral import sobolev_probe_parts
        c = 0.3
        m = conformal_metric(grid128, np.full(grid128.n_nodes, c))
        base = sobolev_probe_parts(round_metric(grid128))
        shifted = sobolev_probe_parts(m)
        for (q0, d0, f0), (q1, d1, f1) in zip(base, shifted):
            assert q1 == pytest.approx(np.exp(c) * q0, rel=1e-12)
            assert d1 == pytest.approx(d0, rel=1e-12)
            assert f1 == pytest.approx(np.exp(2 * c) * f0, rel=1e-12)
        est = sobolev_constant_estimate(m)
        predicted = max(np.exp(c) * q / (d + np.exp(2 * c) * f)
                        for q, d, f in base)
        assert est == pytest.approx(predicted, rel=1e-12)
