"""Config round-trip, presets, artifacts, sweep isolation, CLI surface."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from krflow.cli import main
from krflow.flow import FlowConfig, run
from krflow.geometry import make_grid
from krflow.harness import (EXIT_CONFIG, EXIT_FAIL, EXIT_NUMERICAL, EXIT_OK,
                            ConfigError,
                            ExperimentSpec, TIMESERIES_COLUMNS, dumps,
                            legendre_bump, legendre_bump_for_calabi,
                            load_spec, loads, measured_calabi, multi_mode,
                            run_scenario, sweep_epsilon, write_report)
from krflow.monitors import ALL_CHECKS, MONITOR_PARAMS

MINIMAL = "scenario = round\ngrid_n = 128\n"
BUMP64 = "scenario = legendre_bump\ngrid_n = 64\n[scenario]\neps = 1e-3\n"
# each hung, crashed or exited 3 before loads checked it
TIME_CONTROL_MISTAKES = (
    "[flow]\nrecord_dt = 0\n", "[flow]\nrecord_dt = -0.01\n",
    "[flow]\nrecord_dt = auto\n", "[flow]\nt_end = auto\n",
    "[flow]\ndt_init = 0\n", "[flow]\ndt_init = -0.01\n",
    "[flow]\nvol_tol = auto\n", "[monitors]\nrho = auto\n")
# values the run cannot use: each exited 0 or 3 before loads (or, for rho,
# check_scale) caught it
VALUE_MISTAKES = (
    "[flow]\nt_end = -1\n", "[flow]\nt_end = nan\n", "[flow]\nt_end = inf\n",
    "[flow]\nvol_tol = -1e-8\n", "[flow]\nclass_tol = -1\n",
    "[flow]\nband_tol = -1\n", "[monitors]\nrho = nan\n")
# early_stop = inf stopped every run at t = 0, and nan or a negative value
# turned the early stop off; 0 is the way to turn it off
EARLY_STOP_MISTAKES = (
    "[flow]\nearly_stop = inf\n", "[flow]\nearly_stop = nan\n",
    "[flow]\nearly_stop = -1\n")
# keys with one value in every run, now constants
REMOVED_FLOW_KEYS = ("m_max", "k_per_mode", "potential_tol", "max_halvings")
# monitor keys that held one value in every run, now constants or measured
# values; each line ran (some to a traceback or a false FAIL) before
BUMP_SHORT = ("scenario = legendre_bump\ngrid_n = 64\n[scenario]\n"
              "eps = 1e-2\n[flow]\nt_end = 0.1\nrecord_dt = 0.05\n")
REMOVED_MONITOR_KEYS = (
    "delta = 1.0", "D = 4.0", "L = 1.0", "epsilon = 0",
    "delta_measured = nan", "log_det_tol = -1")
# monitor values the checks cannot use: each was a traceback, a false
# bootstrap FAIL or a run that exited 0 with a nan or inf in the report
MONITOR_VALUE_MISTAKES = (
    "phi0 = 0", "phi0 = -1", "phi0 = 1", "phi0 = nan", "t0 = nan",
    "t0 = -5", "curvature_bound = nan")
# w = 0.5 theta at grid_n = 64: pole slopes of 0.5 against a tolerance of
# 0.25, so the custom_w pole check must reject it
TILTED_W = "scenario = custom_w\ngrid_n = 64\n[scenario]\nfile = {tilted_w}\n"
# the volume-normalized 0.5 P_6 at grid_n = 16: even, with pole slopes of
# 1.67 against a tolerance of 4.22 that its fourth differences widen
P6_W = "scenario = custom_w\ngrid_n = 16\n[scenario]\nfile = {p6_w}\n"
# the round metric with its volume 1e-6 (relative) off 4 pi
OFF_VOLUME_W = ("scenario = custom_w\ngrid_n = 64\n[scenario]\n"
                "file = {off_volume_w}\n")
# the profile file each placeholder names
PROFILES = {"tilted_w": lambda: 0.5 * make_grid(64).theta_nodes,
            "p6_w": lambda: legendre_bump(make_grid(16), 6, 0.5).w,
            "off_volume_w": lambda: np.full(64, 0.5 * np.log1p(1e-6))}


class TestConfig:
    def test_minimal_with_defaults(self):
        spec = loads(MINIMAL)
        assert spec.scenario == "round"
        assert spec.grid_n == 128
        assert spec.flow == FlowConfig()
        assert spec.output_dir == "out"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="grdi_n"):
            loads("grdi_n = 128\n")

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            loads("scenario = torus\n")

    def test_unknown_check_id(self):
        with pytest.raises(ConfigError, match="no_such"):
            loads(MINIMAL + "[monitors]\nchecks = y_decay, no_such\n")

    def test_repeated_key_names_both_lines(self):
        # a second t_end overrode the first, and the run exited 0
        text = BUMP64 + "[flow]\nt_end = 0.05\nt_end = 0.02\n"
        with pytest.raises(ConfigError, match="^line 7: key 't_end' already "
                           "set on line 6$"):
            loads(text)
        with pytest.raises(ConfigError, match="line 3: key 'grid_n' already "
                           "set on line 2"):
            loads(MINIMAL + "grid_n = 64\n")
        # per section, and across a section opened twice
        with pytest.raises(ConfigError, match="line 8: key 'eps' already "
                           "set on line 4"):
            loads(BUMP64 + "[flow]\nt_end = 0.1\n[scenario]\neps = 1e-2\n")
        spec = loads(BUMP64 + "[flow]\nt_end = 0.1\n[scenario]\nl = 3\n"
                     "[flow]\nrecord_dt = 0.05\n")
        assert dict(spec.scenario_params) == {"eps": 1e-3, "l": 3}
        assert (spec.flow.t_end, spec.flow.record_dt) == (0.1, 0.05)

    def test_check_id_listed_twice(self):
        # it wrote two [check y_decay] blocks, and the run exited 0
        with pytest.raises(ConfigError, match="^line 4: check id 'y_decay' "
                           "listed twice$"):
            loads(MINIMAL + "[monitors]\nchecks = y_decay, c2_estimate, "
                  "y_decay\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            loads("scenario = round\ngrid_n = lots\n")

    def test_sweep_range_log_spaced(self):
        spec = loads(MINIMAL + "[sweep]\neps = 1e-6..1e-2:9\n")
        assert len(spec.sweep) == 9
        ratios = np.diff(np.log10(spec.sweep))
        assert np.allclose(ratios, 0.5)  # half-decade spacing

    def test_sweep_list(self):
        spec = loads(MINIMAL + "[sweep]\neps = 1e-3, 3e-3, 1e-2\n")
        assert spec.sweep == (1e-3, 3e-3, 1e-2)

    def test_roundtrip_identity(self):
        text = (
            "scenario = legendre_bump\ngrid_n = 192\noutput_dir = artifacts\n"
            "[scenario]\nl = 3\neps = 0.002\n"
            "[flow]\nt_end = 2.5\nrecord_dt = 0.02\ndt_init = 1e-4\n"
            "[monitors]\nchecks = y_decay, kahler_class\nrho = 0.4\n"
            "[sweep]\neps = 1e-4, 1e-3\ntarget = calabi\n")
        spec = loads(text)
        assert loads(dumps(spec)) == spec

    def test_branch_index_range(self):
        # the pair above the tracked one must be kept: 0..K_PER_MODE - 2,
        # checked whether or not a check reads the branch
        for checks in ("eigenvalue_derivative", "y_decay"):
            base = f"{MINIMAL}[monitors]\nchecks = {checks}\n"
            for index in (0, 3):
                spec = loads(base + f"branch_index = {index}\n")
                assert spec.monitor_dict()["branch_index"] == index
            for index in (-1, 4):
                with pytest.raises(ConfigError, match="branch_index"):
                    loads(base + f"branch_index = {index}\n")

    def test_check_order_pinned(self):
        # the default spec text, and so every default run's spec_sha256,
        # lists the checks in this order
        assert ALL_CHECKS == (
            "weighted_poincare", "c0_vs_y", "y_decay", "c2_estimate",
            "z_derivative", "gradnorm_evolution", "eigenvalue_derivative",
            "bootstrap", "short_time", "kahler_class", "log_det", "bochner",
            "gradient_estimate")
        text = dumps(ExperimentSpec())
        assert "checks = " + ", ".join(ALL_CHECKS) + "\n" in text
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "04749f8ac658f81ec068dea9d755de6a4a4cbc6322219753df12b33e2a4034f6")

    def test_t0_past_t_end_names_both(self):
        with pytest.raises(ConfigError, match=r"t0 = 100.0 .* t_end = 0.1"):
            loads(BUMP_SHORT + "[monitors]\nt0 = 100\n")
        # the default t0 = 0.1 is not the spec's choice: t_sampled says
        # which state a shorter run read
        assert loads(BUMP_SHORT.replace("t_end = 0.1", "t_end = 0.05"))
        assert loads(BUMP_SHORT + "[monitors]\nt0 = 0.1\n")

    def test_monitor_keys_are_the_parameter_table(self):
        # loads takes exactly the table's keys; class_tol is a flow key only
        # (2 is a valid value of every key: phi0 must be over 1)
        candidates = set(MONITOR_PARAMS) | {
            "class_tol", "branch_mode", "tolerance", "tolerance_rel",
            "rel_tol", "tol_factor", "y_floor", "pole_margin", "n_radii",
            "epsilon_calabi", "t_end", "eps", "delta", "D", "L", "epsilon",
            "delta_measured", "log_det_tol"}
        accepted = set()
        for key in candidates:
            try:
                spec = loads(MINIMAL + f"[monitors]\n{key} = 2\n")
            except ConfigError:
                continue
            accepted.add(key)
            assert spec.monitor_params == ((key, 2),)
            assert loads(dumps(spec)) == spec
        assert accepted == set(MONITOR_PARAMS)

    def test_auto_only_where_the_default_is_none(self):
        def takes_auto(section, key):
            try:
                loads(MINIMAL + f"[{section}]\n{key} = auto\n")
            except ConfigError:
                return False
            return True

        flow_keys = [f.name for f in dataclasses.fields(FlowConfig)]
        assert {k for k in flow_keys if takes_auto("flow", k)} == {
            "dt_init", "band_tol"}
        assert not {k for k in MONITOR_PARAMS if takes_auto("monitors", k)}

    def test_removed_flow_keys_rejected(self):
        # RK4 is the only scheme and the class-identity guard is always on;
        # the spectrum sizes, the potential's tolerance and the halving cap
        # are constants
        with pytest.raises(ConfigError, match="scheme"):
            loads(MINIMAL + "[flow]\nscheme = rk4\n")
        with pytest.raises(ConfigError, match="track_phi"):
            loads(MINIMAL + "[flow]\ntrack_phi = false\n")
        for key in REMOVED_FLOW_KEYS:
            with pytest.raises(ConfigError, match=f"unknown flow key '{key}'"):
                loads(MINIMAL + f"[flow]\n{key} = 5\n")

    def test_flow_keys_pinned(self):
        # [flow] takes exactly the fields of FlowConfig
        keys = ("t_end", "dt_init", "vol_tol", "class_tol", "record_dt",
                "band_tol", "early_stop")
        assert tuple(f.name for f in dataclasses.fields(FlowConfig)) == keys
        for key in keys:
            # vol_tol may not exceed the potential solve's bound, 1e-8
            value = 1e-9 if key == "vol_tol" else 0.5
            loads(MINIMAL + f"[flow]\n{key} = {value}\n")

    def test_default_spec_roundtrip(self):
        spec = ExperimentSpec()
        assert loads(dumps(spec)) == spec

    def test_legendre_l1_rejected(self):
        with pytest.raises(ConfigError, match="l >= 2"):
            loads("scenario = legendre_bump\n[scenario]\nl = 1\n")

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_spec(tmp_path / "nope.cfg")

    def test_readme_spec_example_loads(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("## Spec format")[1].split("```\n")[1]
        spec = loads(block)
        assert spec.scenario == "legendre_bump"
        assert spec.scenario_params == (("eps", 1e-3), ("l", 2))
        assert spec.checks == ALL_CHECKS
        assert spec.sweep_target == "calabi" and len(spec.sweep) == 9


class TestPresets:
    def test_legendre_bump_normalized(self, grid128):
        m = legendre_bump(grid128, 2, 1e-2)
        assert m.volume == pytest.approx(4 * np.pi, abs=1e-12)

    def test_multi_mode_deterministic(self, grid128):
        m1 = multi_mode(grid128, 7, 2.0, 5e-3)
        m2 = multi_mode(grid128, 7, 2.0, 5e-3)
        assert np.array_equal(m1.w, m2.w)
        m3 = multi_mode(grid128, 8, 2.0, 5e-3)
        assert not np.array_equal(m1.w, m3.w)

    def test_calabi_tuned_amplitude(self, grid128):
        for target in (1e-6, 1e-4, 1e-2):
            m = legendre_bump_for_calabi(grid128, 2, target)
            assert measured_calabi(m) == pytest.approx(target, rel=1e-10)
            # the oblate orientation: poles contract
            assert m.w[0] < m.w[grid128.n_nodes // 2]

    def test_calabi_target_out_of_reach(self, grid128):
        # not positive, not finite, or below what the grid resolves: the
        # curvature energy of a 1e-20 bump rounds to zero
        for target in (0.0, -1e-3, np.nan, np.inf, 1e-40):
            with pytest.raises(ConfigError):
                legendre_bump_for_calabi(grid128, 2, target)

    def test_custom_w_length_mismatch(self, tmp_path, grid128):
        # too few lines, and the right count of values on two columns: the
        # message gives the file's shape, so it never reads "holds 128
        # values, grid needs 128"
        from krflow.harness import initial_metric
        path = tmp_path / "w.txt"
        for vals, shape in ((np.zeros(37), "(37,)"),
                            (np.zeros((64, 2)), "(64, 2)")):
            np.savetxt(path, vals)
            spec = loads(f"scenario = custom_w\ngrid_n = 128\n"
                         f"[scenario]\nfile = {path}\n")
            with pytest.raises(ConfigError, match="128") as exc:
                initial_metric(spec)
            assert f"shape {shape}" in str(exc.value)


class TestRunScenario:
    def test_round_run_artifacts(self, tmp_path):
        spec = loads(MINIMAL)
        art = run_scenario(spec, base_dir=tmp_path / "run")
        assert art.exit_code == EXIT_OK
        header = art.timeseries_path.read_text().splitlines()[0]
        assert header == ",".join(TIMESERIES_COLUMNS)
        report = art.report_path.read_text()
        assert "verdict = PASS" in report
        assert "spec_sha256" in report

    def test_report_spec_echo_round_trips(self, tmp_path):
        # a run is reproducible from its report alone: the [spec] echo
        # loads back to the run's spec and hashes to its spec_sha256
        spec = loads("scenario = legendre_bump\ngrid_n = 32\n"
                     "[scenario]\nl = 3\neps = 2e-3\n"
                     "[flow]\nt_end = 0.05\nrecord_dt = 0.025\n"
                     "band_tol = 0.05\nearly_stop = 0\n"
                     "[monitors]\nchecks = y_decay, kahler_class\n"
                     "rho = 0.4\nbranch_index = 1\n")
        art = run_scenario(spec, base_dir=tmp_path / "run")
        report = art.report_path.read_text()
        echo = "".join(line[2:] + "\n" for line in
                       report.split("\n[spec]\n")[1].splitlines())
        assert loads(echo) == spec
        sha = hashlib.sha256(echo.encode()).hexdigest()
        assert f"spec_sha256 = {sha}\n" in report

    def test_timeseries_deterministic(self, tmp_path):
        spec = loads("scenario = legendre_bump\ngrid_n = 64\n"
                     "[scenario]\neps = 1e-3\n[flow]\nt_end = 0.1\n"
                     "record_dt = 0.05\n")
        a1 = run_scenario(spec, base_dir=tmp_path / "a")
        a2 = run_scenario(spec, base_dir=tmp_path / "b")
        assert (a1.timeseries_path.read_bytes()
                == a2.timeseries_path.read_bytes())

    def test_dense_run_records_one_dt(self, tmp_path):
        # the flow of the dense benchmark spec (multi_mode seed 7, 1000
        # segments of one RK4 step): segment k ends at k record_dt, where
        # t summed segment by segment listed 7 dt_history values
        spec = loads("scenario = multi_mode\ngrid_n = 64\n"
                     "[scenario]\nseed = 7\ndecay_rate = 2.0\n"
                     "amplitude = 0.005\n[flow]\nt_end = 1.0\n"
                     "record_dt = 0.001\nvol_tol = 1e-08\n"
                     "class_tol = 1e-06\n"
                     f"band_tol = {50 * (np.pi / 64) ** 2!r}\n"
                     "[monitors]\nchecks = kahler_class\n")
        art = run_scenario(spec, base_dir=tmp_path / "run")
        assert art.exit_code == EXIT_OK
        assert "\ndt_history = 0.001\n" in art.report_path.read_text()
        ts = [s.t for s in art.trajectory.states]
        assert ts == [k * 0.001 for k in range(1000)] + [1.0]

    def test_dt_history_sorted_by_value(self, tmp_path):
        # sorted as text, 0.0025 came before 5e-05
        traj = run(FlowConfig(t_end=0.01, record_dt=0.01),
                   legendre_bump(make_grid(64), 2, 1e-3))
        s0, s1 = traj.states
        rigged = dataclasses.replace(traj, states=[
            s0, dataclasses.replace(s1, dt=0.0025),
            dataclasses.replace(s1, dt=5e-05)])
        path = tmp_path / "report.txt"
        write_report(path, ExperimentSpec(), rigged, None)
        assert "\ndt_history = 5e-05, 0.0025\n" in path.read_text()

    def test_volume_violating_custom_w(self, tmp_path, grid64):
        path = tmp_path / "w.txt"
        np.savetxt(path, np.full(64, 0.05))
        spec = loads(f"scenario = custom_w\ngrid_n = 64\n"
                     f"[scenario]\nfile = {path}\n")
        art = run_scenario(spec, base_dir=tmp_path / "run")
        assert art.exit_code == EXIT_NUMERICAL
        assert "VolumeMismatch" in art.report_path.read_text()

    def test_failing_check_sets_exit_one(self, tmp_path):
        # adversarial metric-equivalence corridor: bootstrap FAILs
        spec = loads("scenario = legendre_bump\ngrid_n = 64\n"
                     "[scenario]\neps = 1e-3\n"
                     "[flow]\nt_end = 0.2\nrecord_dt = 0.05\n"
                     "[monitors]\nchecks = bootstrap\nphi0 = 1.0001\n")
        art = run_scenario(spec, base_dir=tmp_path / "run")
        assert art.exit_code == 1
        assert "verdict = FAIL" in art.report_path.read_text()

    def test_bootstrap_equality_edge_passes(self, tmp_path):
        # phi0 equal to the run's own largest Phi_meas: the corridor
        # margin is exactly 0, which is no violation, so the run exits 0
        # with bootstrap PASS and no first-violation time
        text = ("scenario = legendre_bump\ngrid_n = 64\n"
                "[scenario]\nl = 2\neps = 0.05\n[flow]\nt_end = 0.05\n")
        probe = run_scenario(loads(text), base_dir=tmp_path / "probe")
        phi_max = max(s.phi_meas for s in probe.trajectory.states)
        out = tmp_path / "o"
        path = tmp_path / "spec.cfg"
        path.write_text(f"output_dir = {out}\n{text}"
                        f"[monitors]\nphi0 = {phi_max!r}\n")
        assert main(["run", str(path)]) == EXIT_OK
        report = (out / "report.txt").read_text()
        block = report[report.index("[check bootstrap]"):].split("\n\n")[0]
        assert "\nverdict = PASS\n" in block
        assert "\nmargin = 0.0\n" in block
        assert "aux.violation_" not in block


class TestSweep:
    def test_sweep_without_values_rejected(self):
        with pytest.raises(ConfigError):
            sweep_epsilon(loads(MINIMAL))

    def test_sweep_needs_legendre_bump(self, tmp_path):
        # rejected once, before any point directory is made
        with pytest.raises(ConfigError, match="legendre_bump"):
            sweep_epsilon(loads(MINIMAL + "[sweep]\neps = 1e-3\n"),
                          base_dir=tmp_path / "sw")
        assert not (tmp_path / "sw").exists()

    def test_small_sweep_with_regression(self, tmp_path):
        spec = loads(
            "scenario = legendre_bump\ngrid_n = 64\n"
            "[scenario]\nl = 2\n"
            "[flow]\nt_end = 0.12\nrecord_dt = 0.02\n"
            "[monitors]\nchecks = short_time, c0_vs_y\nt0 = 0.1\n"
            "[sweep]\neps = 1e-4..1e-2:3\ntarget = calabi\n")
        art = sweep_epsilon(spec, base_dir=tmp_path / "sw")
        assert art.exit_code == EXIT_OK
        assert len(art.rows) == 3
        text = art.report_path.read_text()
        assert "slope" in text
        # slope of log|grad u| against log eps_calabi is about one half
        slope = float(next(l for l in text.splitlines()
                           if l.startswith("slope")).split("=")[1])
        assert slope == pytest.approx(0.5, abs=0.05)

    def test_single_point_skips_regression(self, tmp_path):
        spec = loads(
            "scenario = legendre_bump\ngrid_n = 64\n"
            "[flow]\nt_end = 0.05\nrecord_dt = 0.05\n"
            "[monitors]\nchecks = short_time\n"
            "[sweep]\neps = 1e-3\n")
        art = sweep_epsilon(spec, base_dir=tmp_path / "sw")
        assert art.exit_code == EXIT_OK
        assert "slope" not in art.report_path.read_text()

    def test_failure_isolation(self, tmp_path):
        # an absurd amplitude breaks the band extraction for that point
        # only; the remaining points still complete
        spec = loads(
            "scenario = legendre_bump\ngrid_n = 64\n"
            "[flow]\nt_end = 0.05\nrecord_dt = 0.05\n"
            "[monitors]\nchecks = short_time\n"
            "[sweep]\neps = 1e-3, 3.0, 1e-2\n")
        art = sweep_epsilon(spec, base_dir=tmp_path / "sw")
        assert art.exit_code == EXIT_NUMERICAL
        codes = [r["exit_code"] for r in art.rows]
        assert codes.count(EXIT_OK) == 2
        assert sum(1 for r in art.rows if r["error"]) == 1

    def test_calabi_target_zero_isolated(self, tmp_path):
        # no bump has curvature energy 0: that point is a config error
        # (exit 2 in its row), and the other points still run
        spec = loads(
            "scenario = legendre_bump\ngrid_n = 32\n"
            "[flow]\nt_end = 0.05\nrecord_dt = 0.05\n"
            "[monitors]\nchecks = short_time\n"
            "[sweep]\neps = 1e-4, 0, 1e-3\ntarget = calabi\n")
        art = sweep_epsilon(spec, base_dir=tmp_path / "sw")
        assert art.exit_code == EXIT_CONFIG
        assert [r["exit_code"] for r in art.rows] == [
            EXIT_OK, EXIT_CONFIG, EXIT_OK]
        assert art.rows[1]["error"].startswith("ConfigError: ")
        assert np.isfinite(art.rows[2]["grad_c0_at_t0"])

    def test_worker_env_parallel_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KRFLOW_WORKERS", "2")
        spec = loads(
            "scenario = legendre_bump\ngrid_n = 64\n"
            "[flow]\nt_end = 0.05\nrecord_dt = 0.05\n"
            "[monitors]\nchecks = short_time\n"
            "[sweep]\neps = 1e-3, 1e-2\n")
        art = sweep_epsilon(spec, base_dir=tmp_path / "sw")
        assert art.exit_code == EXIT_OK
        assert len(art.rows) == 2


class TestCli:
    def write_spec(self, tmp_path, text):
        """The spec file, with each PROFILES placeholder naming its file."""
        for name, profile in PROFILES.items():
            if "{" + name + "}" in text:
                wfile = tmp_path / f"{name}.txt"
                np.savetxt(wfile, profile())
                text = text.replace("{" + name + "}", str(wfile))
        path = tmp_path / "spec.cfg"
        path.write_text(text)
        return str(path)

    def test_run_round(self, tmp_path, capsys):
        path = self.write_spec(
            tmp_path, MINIMAL + f"output_dir = {tmp_path / 'o'}\n")
        assert main(["run", path]) == EXIT_OK
        assert "report written" in capsys.readouterr().out

    def test_check_at_time(self, tmp_path, capsys):
        path = self.write_spec(
            tmp_path,
            "scenario = legendre_bump\ngrid_n = 64\n"
            "[scenario]\neps = 1e-3\n[flow]\nt_end = 0.1\nrecord_dt = 0.05\n")
        assert main(["check", path, "--at", "0.1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "weighted_poincare: PASS" in out

    def test_spectrum_dump(self, tmp_path, capsys):
        path = self.write_spec(tmp_path, MINIMAL)
        assert main(["spectrum", path, "--at", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("index,eigenvalue,mode")
        assert "lambda_g" in out

    def test_spectrum_dump_solves_once(self, tmp_path, capsys, monkeypatch):
        # the dump reads the spectrum the flow solved for the state: one
        # solve of the state's modes, and no bisection
        import krflow.spectral
        from krflow.harness import state_at
        calls = []
        for name in ("_row_spectrum", "solve_mode"):
            real = getattr(krflow.spectral, name)

            def counted(*args, real=real, name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(krflow.spectral, name, counted)
        path = self.write_spec(tmp_path, MINIMAL)
        assert main(["spectrum", path, "--at", "0"]) == EXIT_OK
        assert calls == ["_row_spectrum"]
        rows = capsys.readouterr().out.splitlines()[1:-2]
        state = state_at(load_spec(path), 0.0)
        fresh = krflow.spectral.weighted_spectrum(state.metric, state.u)
        # modes m > 0 twice, stably sorted from the mode-by-mode order
        pairs = sorted(((float(lam), m) for m, row in enumerate(fresh.vals)
                        for lam in row for _ in range(1 if m == 0 else 2)),
                       key=lambda pair: pair[0])
        assert rows == [f"{i},{lam!r},{m}"
                        for i, (lam, m) in enumerate(pairs)]

    @pytest.mark.parametrize("command", ["check", "spectrum"])
    def test_non_finite_at_exit_two(self, tmp_path, capsys, monkeypatch,
                                    command):
        import krflow.harness

        def no_flow(*args, **kwargs):
            raise AssertionError("the flow ran to a bad time")

        monkeypatch.setattr(krflow.harness, "run", no_flow)
        path = self.write_spec(tmp_path, BUMP64)
        # a negative flow time is a usage mistake too, not the t = 0 state
        for at in ("nan", "inf", "-inf", "-1", "-0.01"):
            assert main([command, path, "--at", at]) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    def test_sweep_command(self, tmp_path, capsys):
        path = self.write_spec(
            tmp_path,
            "scenario = legendre_bump\ngrid_n = 64\n"
            f"output_dir = {tmp_path / 'sw'}\n"
            "[flow]\nt_end = 0.05\nrecord_dt = 0.05\n"
            "[monitors]\nchecks = short_time\n"
            "[sweep]\neps = 1e-3\n")
        assert main(["sweep", path]) == EXIT_OK

    def test_config_error_exit_two(self, tmp_path):
        path = self.write_spec(tmp_path, "grid_n = banana\n")
        assert main(["run", path]) == EXIT_CONFIG

    def test_spec_not_utf8_exit_two(self, tmp_path, capsys):
        path = tmp_path / "spec.cfg"
        path.write_bytes(b"\xff\xfe")
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert "cannot read spec file" in capsys.readouterr().err

    def test_band_tol_without_room_exit_two(self, tmp_path, capsys):
        # lambda(g) must clear the band edge by 2 band_tol, as under the
        # default band: a band_tol of 2/3 or more exited 3 at t = 0 with
        # BandAmbiguity, the round sphere included
        out = tmp_path / "o"
        path = self.write_spec(
            tmp_path, f"output_dir = {out}\nscenario = round\ngrid_n = 64\n"
            "[flow]\nt_end = 0.1\nband_tol = 0.7\n")
        assert main(["run", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "band_tol = 0.7 leaves no room for the gap to lambda(g)" in err
        assert "3 band_tol < 2" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["two", "0"])
    def test_bad_worker_count_exit_two(self, tmp_path, monkeypatch, workers):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        # sweep_epsilon imports the pool from here when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        monkeypatch.setenv("KRFLOW_WORKERS", workers)
        path = self.write_spec(
            tmp_path,
            "scenario = legendre_bump\ngrid_n = 64\n"
            f"output_dir = {tmp_path / 'sw'}\n"
            "[flow]\nt_end = 0.05\nrecord_dt = 0.05\n"
            "[monitors]\nchecks = short_time\n"
            "[sweep]\neps = 1e-3, 1e-2\n")
        assert main(["sweep", path]) == EXIT_CONFIG
        assert not (tmp_path / "sw").exists()

    def test_sweep_config_error_exit_two(self, tmp_path, monkeypatch):
        # the same rho over half the diameter that makes `krflow run` exit
        # 2 must make every sweep point, its report and the sweep exit 2,
        # not 3
        monkeypatch.delenv("KRFLOW_WORKERS", raising=False)
        path = self.write_spec(
            tmp_path,
            "scenario = legendre_bump\ngrid_n = 32\n"
            f"output_dir = {tmp_path / 'sw'}\n"
            "[flow]\nt_end = 0.05\nrecord_dt = 0.05\n"
            "[monitors]\nchecks = short_time, c0_vs_y\nrho = 5.0\n"
            "[sweep]\neps = 1e-3, 2e-3\n")
        assert main(["sweep", path]) == EXIT_CONFIG
        summary = (tmp_path / "sw" / "sweep_summary.csv").read_text()
        assert [l.split(",")[-1] for l in summary.splitlines()[1:]] == [
            str(EXIT_CONFIG)] * 2
        for i in range(2):
            report = (tmp_path / "sw" / f"point_{i:02d}" / "report.txt")
            assert f"exit_code = {EXIT_CONFIG}" in report.read_text()

    @pytest.mark.parametrize("command", [
        ["run"], ["sweep"], ["check", "--at", "0.05"]],
        ids=["run", "sweep", "check"])
    def test_rho_rejected_before_flow(self, tmp_path, monkeypatch, command):
        import krflow.harness

        def no_flow(*args, **kwargs):
            raise AssertionError("the flow ran before rho was checked")

        monkeypatch.setattr(krflow.harness, "run", no_flow)
        monkeypatch.delenv("KRFLOW_WORKERS", raising=False)
        path = self.write_spec(
            tmp_path,
            "scenario = legendre_bump\ngrid_n = 64\n"
            f"output_dir = {tmp_path / 'o'}\n[scenario]\neps = 1e-3\n"
            "[flow]\nt_end = 0.05\nrecord_dt = 0.05\n"
            "[monitors]\nchecks = y_decay, c0_vs_y\nrho = 5.0\n"
            "[sweep]\neps = 1e-3\n")
        assert main([command[0], path, *command[1:]]) == EXIT_CONFIG

    @pytest.mark.parametrize("text, code", [
        ("scenario = round\ngrid_n = 64\n", EXIT_OK),
        ("scenario = legendre_bump\ngrid_n = 64\n[scenario]\neps = 1e-3\n"
         "[flow]\nt_end = 0.2\nrecord_dt = 0.05\n"
         "[monitors]\nchecks = bootstrap\nphi0 = 1.0001\n", EXIT_FAIL),
        ("grid_n = banana\n", EXIT_CONFIG),
        ("scenario = round\ngrid_n = 8\n", EXIT_CONFIG),
        # a step cap over RK4's stability bound takes extrapolated steps
        ("scenario = legendre_bump\ngrid_n = 64\n[scenario]\neps = 1e-3\n"
         "[flow]\nt_end = 0.05\nrecord_dt = 0.05\ndt_init = 1.0\n",
         EXIT_OK),
        ("scenario = round\ngrid_n = 64\n[flow]\ndt_init = 1.0\n",
         EXIT_OK),
        ("scenario = legendre_bump\ngrid_n = 64\n[scenario]\neps = 1e-3\n"
         "[flow]\nt_end = 0.05\nrecord_dt = 0.05\n"
         "[monitors]\nchecks = c0_vs_y\nrho = 5.0\n", EXIT_CONFIG),
        # at N = 16 the branch guard is wider than the in-mode gaps
        ("scenario = legendre_bump\ngrid_n = 16\n[scenario]\neps = 1e-3\n"
         "[flow]\nt_end = 0.1\nrecord_dt = 0.05\n"
         "band_tol = 0.5\n[monitors]\nchecks = eigenvalue_derivative\n"
         "branch_index = 1\n", EXIT_NUMERICAL),
        (TILTED_W, EXIT_CONFIG),
        # N = 16 cannot resolve the holomorphic band under the default
        # band_tol, 50 h^2 = 1.93, so loads refuses the grid; it exited 3
        ("scenario = legendre_bump\ngrid_n = 16\n[scenario]\nl = 6\n"
         "eps = 0.5\n", EXIT_CONFIG),
        *((f"scenario = round\ngrid_n = 64\n[flow]\n{key} = 5\n", EXIT_CONFIG)
          for key in REMOVED_FLOW_KEYS),
        ("scenario = legendre_bump\ngrid_n = 64\n[scenario]\neps = 1e-3\n"
         "[flow]\nt_end = 0.05\nrecord_dt = 0.05\n"
         "[monitors]\nchecks = bochner\nbranch_index = 7\n", EXIT_CONFIG),
        ("scenario = round\ngrid_n = 64\n[monitors]\n"
         "checks = eigenvalue_derivative\nbranch_mode = 0\n", EXIT_CONFIG),
        # time controls, and auto for a key whose default is not auto
        *((BUMP64 + line, EXIT_CONFIG) for line in TIME_CONTROL_MISTAKES),
        *((BUMP64 + line, EXIT_CONFIG) for line in VALUE_MISTAKES),
        *((BUMP64 + line, EXIT_CONFIG) for line in EARLY_STOP_MISTAKES),
        # a [scenario] key its scenario does not take; each ran on the
        # defaults before
        ("scenario = legendre_bump\ngrid_n = 64\n[scenario]\n"
         "amplitude = 0.1\n", EXIT_CONFIG),
        ("scenario = round\ngrid_n = 64\n[scenario]\neps = 0.3\n",
         EXIT_CONFIG),
        ("scenario = multi_mode\ngrid_n = 64\n[scenario]\nl = 3\n",
         EXIT_CONFIG),
        # a preset parameter that gives no finite metric (1e3: the volume
        # overflows); each was a traceback
        ("scenario = legendre_bump\ngrid_n = 32\n[scenario]\neps = nan\n",
         EXIT_CONFIG),
        ("scenario = legendre_bump\ngrid_n = 32\n[scenario]\neps = 1e3\n",
         EXIT_CONFIG),
        ("scenario = multi_mode\ngrid_n = 32\n[scenario]\n"
         "amplitude = nan\n", EXIT_CONFIG),
        ("scenario = multi_mode\ngrid_n = 32\n[scenario]\n"
         "decay_rate = -1000\n", EXIT_CONFIG),
        ("scenario = multi_mode\ngrid_n = 32\n[scenario]\nseed = -1\n",
         EXIT_CONFIG),
        *((BUMP_SHORT + f"[monitors]\n{line}\n", EXIT_CONFIG)
          for line in REMOVED_MONITOR_KEYS + MONITOR_VALUE_MISTAKES),
        # a band that holds the zero eigenvalue: no state can pass
        (BUMP_SHORT + "band_tol = 1\n", EXIT_CONFIG),
        (BUMP_SHORT + "band_tol = 10\n", EXIT_CONFIG),
        # a band that leaves lambda(g) no room to clear its edge by
        # 2 band_tol: each exited 3 with BandAmbiguity at t = 0
        (BUMP_SHORT + "band_tol = 0.7\n", EXIT_CONFIG),
        ("scenario = round\ngrid_n = 64\n[flow]\nt_end = 0.1\n"
         "band_tol = 0.9\n", EXIT_CONFIG),
        # N = 16 under the default band_tol: refused by loads, before the
        # pole check; it exited 3
        (P6_W, EXIT_CONFIG),
        # with a band_tol set, it passes the pole check and the flow runs;
        # N = 16 cannot keep it in the normalized class
        (P6_W + "[flow]\nband_tol = 0.5\n", EXIT_NUMERICAL),
        # a short_time sampling point the run never reaches; it exited 0
        # with the t = 0.1 state's values
        (BUMP_SHORT + "[monitors]\nchecks = short_time\nt0 = 100\n",
         EXIT_CONFIG),
        # a vol_tol over the potential solve's bound: the run's own volume
        # check passed this profile, then the solve refused it; it exited 3
        (OFF_VOLUME_W + "[flow]\nvol_tol = 1e-5\n", EXIT_CONFIG),
        # a key or a check id given twice: the last value won, or the check
        # ran twice, and each exited 0
        (BUMP_SHORT + "t_end = 0.05\n", EXIT_CONFIG),
        (BUMP_SHORT + "[monitors]\nchecks = y_decay, y_decay\n",
         EXIT_CONFIG),
    ], ids=["ok", "failed_check", "bad_value", "grid_below_minimum",
            "dt_init_over_bound", "round_dt_init_over_bound",
            "rho_over_half_diameter", "branch_crossing", "irregular_pole",
            "even_preset_unresolved",
            "m_max_removed", "k_per_mode_removed", "potential_tol_removed",
            "max_halvings_removed", "branch_index_over_k",
            "branch_mode_removed",
            "record_dt_zero", "record_dt_negative", "record_dt_auto",
            "t_end_auto", "dt_init_zero", "dt_init_negative",
            "vol_tol_auto", "rho_auto", "t_end_negative", "t_end_nan",
            "t_end_inf", "vol_tol_negative", "class_tol_negative",
            "band_tol_negative", "rho_nan",
            "early_stop_inf", "early_stop_nan", "early_stop_negative",
            "bump_takes_no_amplitude", "round_takes_no_eps",
            "multi_mode_takes_no_l", "bump_eps_nan", "bump_eps_overflow",
            "multi_mode_amplitude_nan", "multi_mode_decay_overflow",
            "multi_mode_seed_negative",
            "delta_removed", "D_removed", "L_removed", "epsilon_removed",
            "delta_measured_removed", "log_det_tol_removed",
            "phi0_zero", "phi0_negative", "phi0_one", "phi0_nan",
            "t0_nan", "t0_negative", "curvature_bound_nan",
            "band_tol_one", "band_tol_ten", "band_tol_no_room",
            "round_band_tol_no_room", "custom_w_even_unresolved",
            "custom_w_even_explicit_band", "t0_past_t_end",
            "vol_tol_over_potential_bound", "flow_key_twice",
            "check_id_twice"])
    def test_exit_code_table(self, tmp_path, capsys, text, code):
        path = self.write_spec(tmp_path,
                               f"output_dir = {tmp_path / 'o'}\n" + text)
        assert main(["run", path]) == code
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [
        ("scenario = legendre_bump\ngrid_n = 64\n[scenario]\neps = 1e-3\n"
         "[flow]\nt_end = 0.05\nrecord_dt = 0.05\n"
         "[monitors]\nchecks = c0_vs_y\nrho = 5.0\n", "ScaleOutOfRange"),
        (TILTED_W, "IrregularPole"),
    ], ids=["rho_over_half_diameter", "irregular_pole"])
    def test_config_error_writes_report(self, tmp_path, text, error):
        # a config error found from the initial metric still leaves a
        # report that names it and carries exit code 2
        out = tmp_path / "o"
        path = self.write_spec(tmp_path, f"output_dir = {out}\n" + text)
        assert main(["run", path]) == EXIT_CONFIG
        report = (out / "report.txt").read_text()
        assert f"exit_code = {EXIT_CONFIG}" in report
        assert f"error = {error}: " in report
        assert not (out / "timeseries.csv").exists()

    def test_rho_broken_by_later_state_keeps_timeseries(self, tmp_path):
        # rho = 1.62 is under diam/2 = 1.682 at t = 0 but over it later,
        # so the error comes from the checks, after the whole flow
        out = tmp_path / "o"
        path = self.write_spec(
            tmp_path, f"output_dir = {out}\n"
            "scenario = legendre_bump\ngrid_n = 64\n[scenario]\neps = 0.3\n"
            "[flow]\nt_end = 2\nrecord_dt = 0.05\n"
            "[monitors]\nchecks = c0_vs_y\nrho = 1.62\n")
        assert main(["run", path]) == EXIT_CONFIG
        report = (out / "report.txt").read_text()
        assert f"exit_code = {EXIT_CONFIG}" in report
        assert "error = ScaleOutOfRange: " in report
        n_states = int(report.split("n_states = ")[1].split("\n")[0])
        rows = (out / "timeseries.csv").read_text().splitlines()[1:]
        assert len(rows) == n_states > 1
        assert float(rows[-1].split(",")[0]) == 2.0

    def test_non_finite_custom_w_exit_two(self, tmp_path, capsys):
        wfile = tmp_path / "w.txt"
        w = np.zeros(16)
        w[3] = np.nan
        np.savetxt(wfile, w)
        out = tmp_path / "o"
        path = self.write_spec(
            tmp_path, f"scenario = custom_w\ngrid_n = 16\noutput_dir = {out}\n"
            f"[scenario]\nfile = {wfile}\n[flow]\nband_tol = 0.5\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert "non-finite" in (out / "report.txt").read_text()

    def test_non_numeric_custom_w_exit_two(self, tmp_path, capsys):
        # a line that is not a number is a config mistake, not a failed
        # check: exit 2 with a report, no traceback
        wfile = tmp_path / "w.txt"
        wfile.write_text("0.0\n" * 31 + "abc\n")
        out = tmp_path / "o"
        path = self.write_spec(
            tmp_path, f"scenario = custom_w\ngrid_n = 32\noutput_dir = {out}\n"
            f"[scenario]\nfile = {wfile}\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        report = (out / "report.txt").read_text()
        assert f"exit_code = {EXIT_CONFIG}" in report
        assert "cannot read custom_w file" in report

    def test_usage_error_exit_two(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_numerical_error_exit_three(self, tmp_path):
        wfile = tmp_path / "w.txt"
        np.savetxt(wfile, np.full(64, 0.05))
        path = self.write_spec(
            tmp_path,
            f"scenario = custom_w\ngrid_n = 64\n"
            f"output_dir = {tmp_path / 'o'}\n[scenario]\nfile = {wfile}\n")
        # run_scenario captures the error into the report, exit 3
        assert main(["run", path]) == EXIT_NUMERICAL
        # the check command hits it directly
        assert main(["check", path, "--at", "0"]) == EXIT_NUMERICAL

    def test_nan_step_exits_three(self, tmp_path, capsys, monkeypatch):
        # every step leaves a NaN in w: each segment is rejected, halved
        # and retried until the halvings run out, with no traceback
        import krflow.flow
        real = krflow.flow.advance_rk4

        def poisoned(w, *args):
            done, ok = real(w, *args)
            w[7] = np.nan
            return done, ok

        monkeypatch.setattr(krflow.flow, "advance_rk4", poisoned)
        out = tmp_path / "o"
        path = self.write_spec(
            tmp_path, f"output_dir = {out}\n{BUMP64}[flow]\n"
            "t_end = 5e-4\nrecord_dt = 5e-4\ndt_init = 5e-4\n")
        assert main(["run", path]) == EXIT_NUMERICAL
        assert "Traceback" not in capsys.readouterr().err
        assert ("error = StepReject: volume, extrapolation or class check "
                "kept failing after 13 dt halvings"
                in (out / "report.txt").read_text())


class TestMeasureOnce:
    def test_exp_calls_per_state(self, tmp_path, monkeypatch):
        """Each recorded state evaluates its measure and weights once:
        numpy.exp runs at most 8 times per state outside the stages of the
        time-stepping kernels, with every check on.  Calls from _kernels
        count too when no stage runs, as when stability_dt builds the
        Jacobian bands.  It ran 50 times when each functional rebuilt
        e^{2w} and V, and 12 when the class residual and the potential
        solve each rebuilt e^{2w}, the Jacobian bands e^{-2w}, and the
        diameter and the kappa scan e^{w}; each of these alone takes the
        count over 8 again."""
        real, calls = np.exp, []
        stages = ("advance_rk4", "advance_extrapolated")

        def counted(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and not (
                    frame.f_globals["__name__"] == "krflow._kernels"
                    and frame.f_code.co_name in stages):
                frame = frame.f_back
            if frame is None:
                calls.append(1)
            return real(*args, **kwargs)

        out = tmp_path / "o"
        path = tmp_path / "spec.cfg"
        path.write_text(
            f"scenario = multi_mode\ngrid_n = 64\noutput_dir = {out}\n"
            "[scenario]\nseed = 7\ndecay_rate = 2.0\namplitude = 0.005\n"
            "[flow]\nt_end = 0.05\nrecord_dt = 0.001\n"
            "[monitors]\nchecks = " + ", ".join(ALL_CHECKS) + "\n")
        monkeypatch.setattr(np, "exp", counted)
        main(["run", str(path)])
        monkeypatch.undo()
        rows = (out / "timeseries.csv").read_text().splitlines()[1:]
        assert len(rows) == 51
        assert len(calls) <= 8 * len(rows)


class TestBlasThreads:
    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def child_env(self, **set_vars):
        # a fresh interpreter, since numpy reads these when its BLAS loads
        env = {k: v for k, v in os.environ.items() if k not in self.BLAS_VARS}
        env.update(set_vars)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import os, krflow; print(' '.join(os.environ[v] for v in "
                f"{self.BLAS_VARS!r}))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        return out.stdout.split()

    def test_one_thread_by_default(self):
        assert self.child_env() == ["1", "1", "1"]

    def test_caller_setting_wins(self):
        assert self.child_env(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]
