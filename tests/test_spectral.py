"""Weighted-Laplacian spectra: round oracles, pinning, band extraction."""

from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg

import krflow.flow
from krflow import spectral
from krflow.cli import main
from krflow.flow import FlowConfig, run
from krflow.geometry import (Rows, conformal_metric, make_grid,
                             normalize_volume, round_metric,
                             weighted_integral)
from krflow.harness import (EXIT_NUMERICAL, ExperimentSpec, legendre_bump,
                            multi_mode, write_report)
from krflow.potential import solve_ricci_potential
from krflow.spectral import (BANDWIDTH, K_PER_MODE, N_MODES, BandAmbiguity,
                             SolveFail, assemble_modes, lambda_second,
                             merged_spectrum, rayleigh_residual,
                             sobolev_constant_estimate, solve_mode,
                             weighted_spectrum)

from helpers import eigen_data


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
        vals, _ = solve_mode(*assemble_modes(m, solve_ricci_potential(m)), 0,
                             4)
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


class Pencil(NamedTuple):
    """Mode m's pencil for the dense oracles, which are written in A: the
    bands of A, the mass, and the reduced bands c of every mode, which
    solve_mode reads."""
    m: int
    bands: np.ndarray
    mass: np.ndarray
    c: np.ndarray


def pencils(metric, u):
    """The Pencil of each mode: A from spectral._assemble, and C reduced
    from a copy of it."""
    bands, mass = spectral._assemble(metric, None if u is None else u.emu)
    c = spectral._reduced_bands(bands.copy(), mass)[0]
    return [Pencil(m, bands[m], mass, c) for m in range(N_MODES)]


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
        prob = pencils(metric, u)[mode]
        vals, vecs = solve_mode(prob.c, prob.mass, mode, self.K)
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
        c, mass = assemble_modes(metric, u)
        vals, vecs = solve_mode(c, mass, 1, self.K)
        c = c[1]
        y = np.sqrt(mass)[:, None] * vecs
        block = rayleigh_residual(y, spectral._band_apply(c, y), vals)
        single = [rayleigh_residual(y[:, i:i + 1],
                                    spectral._band_apply(c, y[:, i:i + 1]),
                                    vals[i:i + 1])[0]
                  for i in range(self.K)]
        np.testing.assert_allclose(block, single, rtol=1e-12, atol=1e-300)


def drop_constant_harmonic(monkeypatch):
    """Mode 0's harmonic start loses its constant column: its Ritz pairs
    then miss the lowest eigenvalue, and the Sturm guard refuses them."""
    real = spectral._harmonic_start

    def spoiled(grid, mass):
        blocks = real(grid, mass)
        yield next(blocks)[:, 1:]
        yield from blocks

    monkeypatch.setattr(spectral, "_harmonic_start", spoiled)


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
        c, mass = assemble_modes(round_metric(grid64), None)
        with pytest.raises(SolveFail):
            solve_mode(c, mass, 0, 5)
        # the run reaches the bisection through mode 0's refused start
        drop_constant_harmonic(monkeypatch)
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
        problems = pencils(m, u)
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
        for mode, prob in enumerate(pencils(m, u)):
            assert np.all(prob.mass > 0)
            # the form is a sum of squares: smallest eigenvalue >= 0, and
            # the axial block annihilates constants exactly
            vals, _ = solve_mode(prob.c, prob.mass, mode, 1)
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

    @pytest.mark.parametrize("n", [16, 17, 64, 255])
    @pytest.mark.parametrize("family", ["legendre_bump", "multi_mode"])
    def test_bands_match_dense_reference(self, family, n):
        # A = D^T diag(cf) D + diag(pi m^2 e ht / sin), with D the dense
        # (n - 1) x n four-node flux quotient whose ghosts fold with the
        # parity of m, against the bands of every mode
        g = make_grid(n)
        metrics = [legendre_bump(g, l, 0.2) for l in (3, 2, 4)]
        if family == "multi_mode":
            metrics = [multi_mode(g, seed=seed, decay_rate=2.0,
                                  amplitude=5e-2) for seed in (7, 8, 9)]
        m = metrics[0]
        u = solve_ricci_potential(m)
        e = u.emu
        ht = 2.0 * np.sin(g.h / 2)
        cf = np.pi * 0.5 * (e[:-1] + e[1:]) * g.sin_flux[1:-1] * ht
        for prob in pencils(m, u):
            parity = 1.0 if prob.m % 2 == 0 else -1.0
            d = np.zeros((n - 1, n))
            for j in range(1, n):
                for off, wgt in zip(range(-2, 2), spectral.STENCIL_WEIGHTS):
                    i, sign = j + off, wgt / (24.0 * g.h)
                    if i < 0:
                        i, sign = -1 - i, parity * sign
                    elif i >= n:
                        i, sign = 2 * n - 1 - i, parity * sign
                    d[j - 1, i] += sign
            a = d.T @ (cf[:, None] * d)
            a += np.diag(np.pi * prob.m ** 2 * e * ht / g.sin_nodes)
            assert not np.triu(a, BANDWIDTH + 1).any()
            scale = np.max(np.abs(a))
            for k in range(BANDWIDTH + 1):
                err = np.max(np.abs(prob.bands[k, :n - k] - np.diag(a, k)))
                assert err <= 1e-14 * scale
                # the unused tail of upper storage stays zero
                assert not prob.bands[k, n - k:].any()
        # a stack of rows: each row's bands, the ghosts folded with both
        # parities, are its own one-row assembly bit for bit (at n = 16
        # and 17 the two poles' ghost terms sit closest together)
        emus = [solve_ricci_potential(mi).emu for mi in metrics]
        bands, mass = spectral._assemble(Rows(metrics), np.stack(emus))
        for i, (mi, ei) in enumerate(zip(metrics, emus)):
            one, one_mass = spectral._assemble(mi, ei)
            assert np.array_equal(bands[i], one)
            assert np.array_equal(mass[i], one_mass)
            for k in range(1, BANDWIDTH + 1):
                assert not bands[i, :, k, n - k:].any()

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
        # them; the state gets the bisection's result and the run an event
        metric, _ = WARM_RUNS["n64"]()
        s0 = run(FlowConfig(t_end=0.0), metric).states[0]
        start = weighted_spectrum(s0.metric, s0.u)
        _, six = solve_mode(*assemble_modes(s0.metric, s0.u), 0,
                            K_PER_MODE + 1)
        bad = start.vecs[0].copy()
        bad[:, 0] = six[:, K_PER_MODE]
        real = spectral.weighted_spectrum

        def spoiled(metric, u, warm=None):
            if warm is not None:
                np.testing.assert_array_equal(warm.vecs[0], start.vecs[0])
                vecs = warm.vecs.copy()
                vecs[0] = bad
                warm = replace(warm, vecs=vecs)
            return real(metric, u, warm)

        monkeypatch.setattr(spectral, "weighted_spectrum", spoiled)
        traj = run(FlowConfig(t_end=1e-3, record_dt=1e-3), metric)
        assert traj.eigensolves == {"cold": N_MODES, "warm": N_MODES - 1,
                                    "fallback": 1}
        assert ("spectrum_fallback", 1e-3, 0, "sturm") in traj.events
        s1 = traj.states[1]
        vals, vecs = solve_mode(*assemble_modes(s1.metric, s1.u), 0,
                                K_PER_MODE)
        np.testing.assert_array_equal(s1.spectrum[0], vals)
        np.testing.assert_array_equal(s1.axial_vectors, vecs)
        write_report(tmp_path / "report.txt", ExperimentSpec(), traj, None)
        text = (tmp_path / "report.txt").read_text()
        assert "\neigensolves = cold 3, warm 2, fallback 1\n" in text
        assert "\nevent = spectrum_fallback, 0.001, 0, sturm\n" in text


def spy(monkeypatch, name, record):
    """Wrap krflow.spectral's `name`, passing each call's arguments to
    record first."""
    real = getattr(spectral, name)

    def spied(*args, **kwargs):
        record(*args, **kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, name, spied)


def moebius(grid, k):
    """The round metric pulled back by the dilation z -> k z, on the
    normalized class: e^{w} = 2 k / ((1 + cos) + k^2 (1 - cos))."""
    c = grid.cos_nodes
    w = np.log(2.0 * k / ((1.0 + c) + k * k * (1.0 - c)))
    return normalize_volume(conformal_metric(grid, w))


# metrics far from round that no other test solves: large and high
# degree bumps, a rough multi_mode, and the Kaehler-Einstein orbit at two
# dilations (osc w 0.81 and 2.20)
FAR_METRICS = {
    "bump_l2_eps0.8": lambda g: legendre_bump(g, 2, 0.8),
    "bump_l2_eps1.3": lambda g: legendre_bump(g, 2, 1.3),
    "bump_l6_eps0.3": lambda g: legendre_bump(g, 6, 0.3),
    "bump_l40_eps0.01": lambda g: legendre_bump(g, 40, 1e-2),
    "multi_mode_amp0.2": lambda g: multi_mode(g, 7, 2.0, 0.2),
    "moebius_k1.5": lambda g: moebius(g, 1.5),
    "moebius_k3": lambda g: moebius(g, 3.0),
}


def assert_matches_bisection(metric, u, monkeypatch):
    """The solve without an earlier state bisects no mode, and each mode's
    pairs are solve_mode's: eigenvalues within 1e-11 of max(1, |lam|),
    and the eigenvector blocks span the same space."""
    sizes = []
    spy(monkeypatch, "solve_mode",
        lambda c, mass, m, k: sizes.append(mass.size))
    spec = weighted_spectrum(metric, u)
    assert sizes == []
    assert spec.fallbacks == () and not spec.warm
    c, mass = assemble_modes(metric, u)
    for m in range(N_MODES):
        vals, vecs = solve_mode(c, mass, m, K_PER_MODE)
        scale = np.maximum(1.0, np.abs(vals))
        assert np.max(np.abs(spec.vals[m] - vals) / scale) <= 1e-11
        # the cosines of the principal angles between the two blocks, in
        # the B inner product, are all 1
        cosines = np.linalg.svd(spec.vecs[m].T @ (mass[:, None] * vecs),
                                compute_uv=False)
        assert np.min(cosines) >= 1.0 - 1e-12


class TestHarmonicStart:
    """Without an earlier state, every mode starts from the round sphere's
    harmonics, and bisects only when the guard refuses its pairs."""

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    @pytest.mark.parametrize("family", sorted(ORACLE_METRICS))
    def test_matches_bisection(self, family, n, monkeypatch):
        metric = ORACLE_METRICS[family](make_grid(n))
        assert_matches_bisection(metric, solve_ricci_potential(metric),
                                 monkeypatch)

    # the block's width is pinned here: with 10 harmonics per mode in
    # place of 20, the l = 2 bumps and moebius_k3 are refused
    @pytest.mark.parametrize("n", [16, 64, 1024])
    @pytest.mark.parametrize("family", sorted(FAR_METRICS))
    def test_far_from_round(self, family, n, monkeypatch):
        metric = FAR_METRICS[family](make_grid(n))
        assert_matches_bisection(metric, solve_ricci_potential(metric),
                                 monkeypatch)

    def test_no_band_reaches_bisection(self, monkeypatch):
        # ?sbevx, O(n^2) in the band reduction, sees no band at all
        metric = legendre_bump(make_grid(1024), 3, 1e-2)
        widths = []
        spy(monkeypatch, "dsbevx",
            lambda band, *args, **kwargs: widths.append(band.shape[1]))
        spec = weighted_spectrum(metric, solve_ricci_potential(metric))
        assert spec.fallbacks == ()
        assert widths == []

    def test_refused_start_bisects_at_full_n(self, monkeypatch, tmp_path):
        # mode 0's harmonics lose their constant column: its pairs are the
        # second to sixth, the Sturm guard refuses them, and that mode
        # alone is bisected
        metric = legendre_bump(make_grid(256), 2, 1e-2)
        drop_constant_harmonic(monkeypatch)
        sizes = []
        spy(monkeypatch, "solve_mode",
            lambda c, mass, m, k: sizes.append((m, mass.size)))
        traj = run(FlowConfig(t_end=0.0), metric)
        assert sizes == [(0, 256)]
        assert traj.eigensolves == {"cold": N_MODES - 1, "warm": 0,
                                    "fallback": 1}
        assert traj.events[0] == ("spectrum_fallback", 0.0, 0, "sturm")
        s0 = traj.states[0]
        vals, vecs = solve_mode(*assemble_modes(s0.metric, s0.u), 0,
                                K_PER_MODE)
        np.testing.assert_array_equal(s0.spectrum[0], vals)
        np.testing.assert_array_equal(s0.axial_vectors, vecs)
        write_report(tmp_path / "report.txt", ExperimentSpec(), traj, None)
        text = (tmp_path / "report.txt").read_text()
        assert "\neigensolves = cold 2, warm 0, fallback 1\n" in text
        assert "\nevent = spectrum_fallback, 0.0, 0, sturm\n" in text


class TestOneForm:
    """The spectral layer hands on the pencil in one form, the reduced
    bands with the mass, and each state's eigenvectors in one stack."""

    def test_block_step_reduces_once_in_place(self, monkeypatch):
        metric, config = WARM_RUNS["n64"]()
        steps, reductions = [], []
        real_step = krflow.flow.make_state

        def counted(*args, **kwargs):
            steps.append(1)
            return real_step(*args, **kwargs)

        real = spectral._reduced_bands

        def spied(bands, mass):
            out = real(bands, mass)
            reductions.append(out[0] is bands)
            return out

        monkeypatch.setattr(krflow.flow, "make_state", counted)
        monkeypatch.setattr(spectral, "_reduced_bands", spied)
        run(config, metric)
        assert len(steps) >= 2
        assert reductions == [True] * len(steps)

    def test_solve_mode_never_reduces(self, monkeypatch):
        metric = legendre_bump(make_grid(128), 2, 1e-2)
        c, mass = assemble_modes(metric, solve_ricci_potential(metric))
        before = c.copy()
        calls = []
        spy(monkeypatch, "_reduced_bands", lambda *args: calls.append(1))
        for m in range(N_MODES):
            solve_mode(c, mass, m, K_PER_MODE)
        assert calls == []
        np.testing.assert_array_equal(c, before)

    def test_start_reduces_only_its_own_pencil(self, monkeypatch):
        # the solve without an earlier state reduces no second, coarser
        # pencil
        metric = legendre_bump(make_grid(256), 2, 1e-2)
        u = solve_ricci_potential(metric)
        sizes = []
        spy(monkeypatch, "_reduced_bands",
            lambda bands, mass: sizes.append(mass.shape[-1]))
        weighted_spectrum(metric, u)
        assert sizes == [256]

    def test_states_keep_no_view_of_the_stack(self, monkeypatch):
        metric, config = WARM_RUNS["n64"]()
        solved = []
        real = krflow.flow.make_state

        def kept(*args, **kwargs):
            out = real(*args, **kwargs)
            solved.extend(out)
            return out

        monkeypatch.setattr(krflow.flow, "make_state", kept)
        traj = run(config, metric)
        assert len(solved) == len(traj.states)
        assert all(s is t for (s, _), t in zip(solved, traj.states))
        for state, spec in solved:
            assert type(spec.vecs) is np.ndarray
            assert spec.vecs.shape == (N_MODES, 64, K_PER_MODE)
            assert not np.shares_memory(state.axial_vectors, spec.vecs)
            assert not np.shares_memory(state.holo_vectors, spec.vecs)


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


def lambda_second_by_loops(spectrum, band_tol):
    """lambda_second as list comprehensions over the merged spectrum: the
    reference for the masks over spectrum.vals."""
    members = np.abs(spectrum.vals - 1.0) <= band_tol
    vals = merged_spectrum(spectrum.vals)[0]
    band = [float(v) for v in vals if abs(v - 1.0) <= band_tol]
    if len(band) != 3:
        raise BandAmbiguity(
            f"holomorphic band holds {len(band)} eigenvalues "
            f"(band_tol = {band_tol:.3e}), expected 3")
    strays = [v for v in vals if band_tol < v < 1.0 - band_tol]
    if strays:
        raise BandAmbiguity(
            f"unexpected eigenvalue {strays[0]:.6g} below the band")
    above = vals[vals > 1.0 + band_tol]
    if len(above) == 0:
        raise BandAmbiguity("no eigenvalue above the holomorphic band")
    lam_g = float(above[0])
    if lam_g - (1.0 + band_tol) < 2.0 * band_tol:
        raise BandAmbiguity(
            f"gap {lam_g - 1.0 - band_tol:.3e} above the band is under "
            f"2 band_tol = {2 * band_tol:.3e}")
    return lam_g, band, members


def outcome(fn, spectrum, band_tol):
    try:
        return fn(spectrum, band_tol)
    except BandAmbiguity as exc:
        return str(exc)


class TestLambdaSecondMasks:
    """The masks over spectrum.vals give the loop form's band list, members
    mask, lambda(g) and every BandAmbiguity message."""

    TOL = 0.05

    def same(self, vals, tol=TOL):
        spec = spectral.Spectrum(metric=None, mass=None,
                                 vals=np.asarray(vals, dtype=float), vecs=())
        new = outcome(lambda_second, spec, tol)
        ref = outcome(lambda_second_by_loops, spec, tol)
        if isinstance(ref, str):
            assert new == ref
        else:
            assert new[0] == ref[0] and new[1] == ref[1]
            assert type(new[1]) is list and type(new[1][0]) is float
            assert np.array_equal(new[2], ref[2])
        return ref

    def test_accepted_layouts(self):
        for vals in ([[0.0, 1.01, 3.0, 6.0, 9.0], [0.99, 3.1, 6.1, 9.1, 12.],
                      [3.2, 6.2, 9.2, 12.2, 15.]],
                     [[0.0, 0.98, 1.0, 1.02, 4.0], [3.1, 6.1, 9.1, 12., 15.],
                      [3.2, 6.2, 9.2, 12.2, 15.]]):
            assert not isinstance(self.same(vals), str)

    @pytest.mark.parametrize("vals, start", [
        ([[0.0, 1.0, 3.0, 6.0, 9.0], [3.1, 6.1, 9.1, 12.0, 15.0],
          [3.2, 6.2, 9.2, 12.2, 15.2]], "holomorphic band holds 1"),
        ([[0.0, 0.5, 1.0, 6.0, 9.0], [0.99, 6.1, 9.1, 12.0, 15.0],
          [3.2, 6.2, 9.2, 12.2, 15.2]], "unexpected eigenvalue 0.5 "),
        ([[0.0, 1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0],
          [0.0, 0.0, 0.0, 0.0, 0.0]], "no eigenvalue above"),
        ([[0.0, 1.0, 1.12, 6.0, 9.0], [1.0, 6.1, 9.1, 12.0, 15.0],
          [3.2, 6.2, 9.2, 12.2, 15.2]], "gap "),
    ], ids=["band_count", "stray", "nothing_above", "gap"])
    def test_each_refusal(self, vals, start):
        assert self.same(vals).startswith(start)

    def test_random_spectra(self):
        # values drawn by kind: at or under band_tol, in the band (its
        # edges included), strays below it, just above it, far above it;
        # half the cases hold a band of one m = 0 and one m > 0 member, and
        # some nothing above it, so every branch and ties turn up
        rng = np.random.default_rng(20261019)
        seen = set()
        for _ in range(2000):
            tol = float(rng.choice([0.01, 0.05, 0.2]))
            kinds = {
                "low": lambda: rng.choice([0.0, tol]),
                "band": lambda: 1.0 + tol * rng.choice(
                    [-1.0, 0.0, 1.0, rng.uniform(-1.0, 1.0)]),
                "stray": lambda: rng.uniform(tol, 1.0 - tol),
                "edge": lambda: 1.0 + tol * rng.uniform(1.0, 3.5),
                "far": lambda: rng.uniform(1.0 + 4.0 * tol, 20.0)}
            weights = [0.02, 0.05, 0.02, 0.13, 0.78]
            if rng.random() < 0.1:  # nothing above the band
                weights = [0.97, 0.02, 0.01, 0.0, 0.0]
            names = rng.choice(list(kinds), p=weights,
                               size=(N_MODES, K_PER_MODE))
            vals = np.vectorize(lambda k: kinds[k]())(names)
            vals[0, 0] = 0.0
            if rng.random() < 0.5:
                vals[0, 1] = kinds["band"]()
                vals[1 + rng.integers(N_MODES - 1), 0] = kinds["band"]()
            ref = self.same(np.sort(vals, axis=1), tol)
            seen.add(ref.split(" ")[0] if isinstance(ref, str) else "ok")
        assert seen == {"holomorphic", "unexpected", "no", "gap", "ok"}
