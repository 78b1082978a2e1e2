"""Config round-trip, presets, artifacts, sweep isolation, CLI surface."""

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from krflow.cli import main
from krflow.flow import FlowConfig
from krflow.geometry import make_grid, volume
from krflow.harness import (EXIT_CONFIG, EXIT_FAIL, EXIT_NUMERICAL, EXIT_OK,
                            ConfigError,
                            ExperimentSpec, TIMESERIES_COLUMNS, dumps,
                            legendre_bump, legendre_bump_for_calabi,
                            load_spec, loads, measured_calabi, multi_mode,
                            run_scenario, sweep_epsilon)
from krflow.monitors import ALL_CHECKS, MONITOR_PARAMS

MINIMAL = "scenario = round\ngrid_n = 128\n"
BUMP64 = "scenario = legendre_bump\ngrid_n = 64\n[scenario]\neps = 1e-3\n"
# each hung, crashed or exited 3 before loads checked it
TIME_CONTROL_MISTAKES = (
    "[flow]\nrecord_dt = 0\n", "[flow]\nrecord_dt = -0.01\n",
    "[flow]\nrecord_dt = auto\n", "[flow]\nt_end = auto\n",
    "[flow]\ndt_init = 0\n", "[flow]\ndt_init = -0.01\n",
    "[flow]\nvol_tol = auto\n", "[monitors]\nrho = auto\n")


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
        base = ("scenario = round\ngrid_n = 64\n[flow]\nk_per_mode = 4\n"
                "[monitors]\nchecks = eigenvalue_derivative\n")
        for index in (0, 2):
            spec = loads(base + f"branch_index = {index}\n")
            assert spec.monitor_dict()["branch_index"] == index
        for index in (-1, 3):
            with pytest.raises(ConfigError, match="branch_index"):
                loads(base + f"branch_index = {index}\n")
        # the default index 2 needs k_per_mode >= 4 only when a check
        # reads the branch
        loads("scenario = round\ngrid_n = 64\n[flow]\nk_per_mode = 3\n"
              "[monitors]\nchecks = y_decay\n")
        with pytest.raises(ConfigError, match="branch_index"):
            loads("scenario = round\ngrid_n = 64\n[flow]\nk_per_mode = 3\n"
                  "[monitors]\nchecks = bochner\n")

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
            "7c9cb79afa4a45c3fc0ab49af767b684a217616ea4295e4ed17c3198006f519a")

    def test_monitor_keys_are_the_parameter_table(self):
        # loads takes exactly the table's keys; class_tol is a flow key only
        candidates = set(MONITOR_PARAMS) | {
            "class_tol", "branch_mode", "tolerance", "tolerance_rel",
            "rel_tol", "tol_factor", "y_floor", "pole_margin", "n_radii",
            "epsilon_calabi", "t_end", "eps"}
        accepted = set()
        for key in candidates:
            try:
                spec = loads(MINIMAL + f"[monitors]\n{key} = 1\n")
            except ConfigError:
                continue
            accepted.add(key)
            assert spec.monitor_params == ((key, 1),)
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
        assert {k for k in MONITOR_PARAMS if takes_auto("monitors", k)} == {
            "delta", "D", "L", "epsilon", "delta_measured"}

    def test_removed_flow_keys_rejected(self):
        # RK4 is the only scheme and the class-identity guard is always on
        with pytest.raises(ConfigError, match="scheme"):
            loads(MINIMAL + "[flow]\nscheme = rk4\n")
        with pytest.raises(ConfigError, match="track_phi"):
            loads(MINIMAL + "[flow]\ntrack_phi = false\n")

    def test_default_spec_roundtrip(self):
        spec = ExperimentSpec()
        assert loads(dumps(spec)) == spec

    def test_legendre_l1_rejected(self):
        with pytest.raises(ConfigError, match="l >= 2"):
            loads("scenario = legendre_bump\n[scenario]\nl = 1\n")

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_spec(tmp_path / "nope.cfg")


class TestPresets:
    def test_legendre_bump_normalized(self, grid128):
        m = legendre_bump(grid128, 2, 1e-2)
        assert volume(m) == pytest.approx(4 * np.pi, abs=1e-12)

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

    def test_custom_w_length_mismatch(self, tmp_path, grid128):
        path = tmp_path / "w.txt"
        np.savetxt(path, np.zeros(37))
        spec = loads(f"scenario = custom_w\ngrid_n = 128\n"
                     f"[scenario]\nfile = {path}\n")
        from krflow.harness import initial_metric
        with pytest.raises(ConfigError, match="128"):
            initial_metric(spec)


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

    def test_timeseries_deterministic(self, tmp_path):
        spec = loads("scenario = legendre_bump\ngrid_n = 64\n"
                     "[scenario]\neps = 1e-3\n[flow]\nt_end = 0.1\n"
                     "record_dt = 0.05\n")
        a1 = run_scenario(spec, base_dir=tmp_path / "a")
        a2 = run_scenario(spec, base_dir=tmp_path / "b")
        assert (a1.timeseries_path.read_bytes()
                == a2.timeseries_path.read_bytes())

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
                     "[monitors]\nchecks = bootstrap\nphi0 = 1.0001\n"
                     "delta = 1.0\n")
        art = run_scenario(spec, base_dir=tmp_path / "run")
        assert art.exit_code == 1
        assert "verdict = FAIL" in art.report_path.read_text()


class TestSweep:
    def test_sweep_without_values_rejected(self):
        with pytest.raises(ConfigError):
            sweep_epsilon(loads(MINIMAL))

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
        # solve per mode m = 0..2
        import krflow.spectral
        from krflow.harness import state_at
        calls = []
        real = krflow.spectral.solve_mode

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(krflow.spectral, "solve_mode", counted)
        path = self.write_spec(tmp_path, MINIMAL)
        assert main(["spectrum", path, "--at", "0"]) == EXIT_OK
        assert len(calls) == 3
        rows = capsys.readouterr().out.splitlines()[1:-2]
        state = state_at(load_spec(path), 0.0)
        fresh = krflow.spectral.weighted_spectrum(state.metric, state.u)
        assert rows == [f"{i},{en.eigenvalue!r},{en.m}"
                        for i, en in enumerate(fresh.entries)]

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

    @pytest.mark.parametrize("workers", ["two", "0"])
    def test_bad_worker_count_exit_two(self, tmp_path, monkeypatch, workers):
        import krflow.harness

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(krflow.harness, "ProcessPoolExecutor", no_pool)
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
        # the same dt_init that makes `krflow run` exit 2 must make every
        # sweep point, its report and the sweep exit 2, not 3
        monkeypatch.delenv("KRFLOW_WORKERS", raising=False)
        path = self.write_spec(
            tmp_path,
            "scenario = legendre_bump\ngrid_n = 32\n"
            f"output_dir = {tmp_path / 'sw'}\n"
            "[flow]\nt_end = 0.05\nrecord_dt = 0.05\ndt_init = 1.0\n"
            "[monitors]\nchecks = short_time\n"
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
         "[monitors]\nchecks = bootstrap\nphi0 = 1.0001\ndelta = 1.0\n",
         EXIT_FAIL),
        ("grid_n = banana\n", EXIT_CONFIG),
        ("scenario = round\ngrid_n = 8\n", EXIT_CONFIG),
        ("scenario = legendre_bump\ngrid_n = 64\n[scenario]\neps = 1e-3\n"
         "[flow]\nt_end = 0.05\nrecord_dt = 0.05\ndt_init = 1.0\n",
         EXIT_CONFIG),
        # checked before the t = 0 state is solved, which would converge
        ("scenario = round\ngrid_n = 64\n[flow]\ndt_init = 1.0\n",
         EXIT_CONFIG),
        ("scenario = legendre_bump\ngrid_n = 64\n[scenario]\neps = 1e-3\n"
         "[flow]\nt_end = 0.05\nrecord_dt = 0.05\n"
         "[monitors]\nchecks = c0_vs_y\nrho = 5.0\n", EXIT_CONFIG),
        # at N = 16 the branch guard is wider than the in-mode gaps
        ("scenario = legendre_bump\ngrid_n = 16\n[scenario]\neps = 1e-3\n"
         "[flow]\nt_end = 0.1\nrecord_dt = 0.05\nk_per_mode = 3\n"
         "band_tol = 0.5\n[monitors]\nchecks = eigenvalue_derivative\n"
         "branch_index = 1\n", EXIT_NUMERICAL),
        # the pole check rejects 0.5 P_6 at N = 16
        ("scenario = legendre_bump\ngrid_n = 16\n[scenario]\nl = 6\n"
         "eps = 0.5\n", EXIT_CONFIG),
        ("scenario = round\ngrid_n = 64\n[flow]\nm_max = 1\n", EXIT_CONFIG),
        ("scenario = round\ngrid_n = 64\n[flow]\nk_per_mode = 2\n",
         EXIT_CONFIG),
        ("scenario = round\ngrid_n = 16\n[flow]\nk_per_mode = 17\n",
         EXIT_CONFIG),
        ("scenario = legendre_bump\ngrid_n = 64\n[scenario]\neps = 1e-3\n"
         "[flow]\nt_end = 0.05\nrecord_dt = 0.05\n"
         "[monitors]\nchecks = bochner\nbranch_index = 7\n", EXIT_CONFIG),
        ("scenario = round\ngrid_n = 64\n[monitors]\n"
         "checks = eigenvalue_derivative\nbranch_mode = 0\n", EXIT_CONFIG),
        # time controls, and auto for a key whose default is not auto
        *((BUMP64 + line, EXIT_CONFIG) for line in TIME_CONTROL_MISTAKES),
    ], ids=["ok", "failed_check", "bad_value", "grid_below_minimum",
            "dt_init_over_bound", "round_dt_init_over_bound",
            "rho_over_half_diameter", "branch_crossing", "irregular_pole",
            "m_max_below_two", "k_per_mode_below_three",
            "k_per_mode_over_grid_n",
            "branch_index_over_k", "branch_mode_removed",
            "record_dt_zero", "record_dt_negative", "record_dt_auto",
            "t_end_auto", "dt_init_zero", "dt_init_negative",
            "vol_tol_auto", "rho_auto"])
    def test_exit_code_table(self, tmp_path, capsys, text, code):
        path = self.write_spec(tmp_path,
                               f"output_dir = {tmp_path / 'o'}\n" + text)
        assert main(["run", path]) == code
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [
        ("scenario = legendre_bump\ngrid_n = 64\n[scenario]\neps = 1e-3\n"
         "[flow]\nt_end = 0.05\nrecord_dt = 0.05\ndt_init = 1.0\n",
         "StabilityBoundError"),
        ("scenario = legendre_bump\ngrid_n = 16\n[scenario]\nl = 6\n"
         "eps = 0.5\n", "IrregularPole"),
    ], ids=["dt_init_over_bound", "irregular_pole"])
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

    def test_non_finite_custom_w_exit_two(self, tmp_path, capsys):
        wfile = tmp_path / "w.txt"
        w = np.zeros(16)
        w[3] = np.nan
        np.savetxt(wfile, w)
        out = tmp_path / "o"
        path = self.write_spec(
            tmp_path, f"scenario = custom_w\ngrid_n = 16\noutput_dir = {out}\n"
            f"[scenario]\nfile = {wfile}\n")
        assert main(["run", path]) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert "non-finite" in (out / "report.txt").read_text()

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


class TestDiameterBudget:
    def test_short_time_reports_diameter(self, tmp_path):
        spec = loads("scenario = legendre_bump\ngrid_n = 64\n"
                     "[scenario]\neps = 1e-3\n"
                     "[flow]\nt_end = 0.05\nrecord_dt = 0.05\n"
                     "[monitors]\nchecks = short_time\nD = 4.0\n")
        art = run_scenario(spec, base_dir=tmp_path / "run")
        text = art.report_path.read_text()
        assert "aux.diam_max" in text
        assert "aux.diam_bound_ok = 1.0" in text
