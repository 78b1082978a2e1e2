"""Scenario presets, experiment configuration, sweeps, and flat-file artifacts.

Config files are plain key = value text with [section] headers and
comma-separated lists; every run writes a timeseries CSV with a fixed
column schema, a structured report with one block per monitor, and a
provenance block (grid, dt history, code version, hash of the canonical
spec text) so each run is reproducible from its artifact alone: the spec
a report echoes gives the same metric (initial_metric) and artifacts.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, spectral
from .flow import FlowConfig, Trajectory, run
from .geometry import (MIN_NODES, ConfigError, ConformalMetric, Grid,
                       NumericalError, check_scale, conformal_metric,
                       curvature_bounds, diameter, legendre_profile,
                       make_grid, map_blocks, measured_calabi,
                       normalize_volume, round_metric)
from .monitors import (ALL_CHECKS, FAIL, MONITOR_PARAMS, CheckReport,
                       TrajectoryReport, evaluate_trajectory, monitor_params)


SWEEP_TARGETS = ("amplitude", "calabi")

TIMESERIES_COLUMNS = (
    "t", "dt", "volume", "diam", "K_min", "K_max", "a", "Y", "Z", "osc_u",
    "c0_u_minus_a", "grad_u_c0", "lambda_g", "holo_band_min",
    "holo_band_max", "class_residual", "phi_c0")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: str = "round"
    scenario_params: tuple = ()
    grid_n: int = 256
    flow: FlowConfig = field(default_factory=FlowConfig)
    checks: tuple = ALL_CHECKS
    monitor_params: tuple = ()
    sweep: tuple = ()
    sweep_target: str = "amplitude"
    output_dir: str = "out"

    def __post_init__(self):
        """Refuse, with ConfigError, a spec that no run can use: an unknown
        scenario, scenario key or sweep target, a scenario value not of its
        key's declared type, a legendre_bump l under 2, a grid under
        MIN_NODES, a default band with no room for lambda(g), an unknown or
        repeated check id, a bad monitor value, or a t0 past t_end."""
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        defaults = SCENARIOS[self.scenario][1]
        unknown = dict(self.scenario_params).keys() - defaults.keys()
        if unknown:
            raise ConfigError(f"scenario {self.scenario!r} takes no key "
                              f"{min(unknown)!r}")
        for key, value in self.scenario_params:
            if not _of_declared_type(value, defaults[key]):
                raise ConfigError(f"bad value {value!r} for key {key!r}")
            if key == "l" and value < 2:
                raise ConfigError("legendre_bump needs l >= 2")
        if self.sweep_target not in SWEEP_TARGETS:
            raise ConfigError(f"unknown sweep target {self.sweep_target!r}")
        if self.grid_n < MIN_NODES:
            raise ConfigError(f"grid_n = {self.grid_n} below the minimum "
                              f"{MIN_NODES}")
        if self.flow.band_tol is None:
            # lambda(g) sits about 2 above the band at 1 and must clear the
            # band edge by 2 band_tol
            tol = spectral.default_band_tol(make_grid(self.grid_n))
            if 3.0 * tol >= 2.0:
                raise ConfigError(
                    f"grid_n = {self.grid_n}: the default band_tol "
                    f"{spectral.BAND_H2:g} h^2 = {tol:.3g} leaves no room "
                    "for the gap to lambda(g), which needs 3 band_tol < 2 "
                    "(grid_n >= 28); set [flow] band_tol explicitly")
        for name in self.checks:
            if name not in ALL_CHECKS:
                raise ConfigError(f"unknown check id {name!r}")
            if self.checks.count(name) > 1:
                raise ConfigError(f"check id {name!r} listed twice")
        params = self.monitor_dict()  # checks the monitor values
        if ("t0" in dict(self.monitor_params)
                and params["t0"] > self.flow.t_end):
            raise ConfigError(f"t0 = {params['t0']!r} lies past t_end = "
                              f"{self.flow.t_end!r}: no state to sample")

    def monitor_dict(self):
        """Every monitor parameter: the spec's values over the defaults,
        checked by monitors.monitor_params (ConfigError)."""
        return monitor_params(dict(self.monitor_params))


@dataclass
class RunArtifacts:
    output_dir: Path
    timeseries_path: Path | None
    report_path: Path
    exit_code: int
    trajectory: Trajectory | None = None
    report: TrajectoryReport | None = None
    error: str | None = None
    rows: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _even_preset(grid: Grid, w: np.ndarray, what: str) -> ConformalMetric:
    """w, a sum of P_l(cos theta) and so even at both poles (no pole check),
    shifted to volume 4 pi; a w or volume that is not finite is an error."""
    if np.isfinite(w).all():
        metric = ConformalMetric(grid=grid, w=w)
        with np.errstate(over="ignore"):
            if 0.0 < metric.volume < math.inf:
                return normalize_volume(metric)
    raise ConfigError(f"{what} gives no finite metric")


def legendre_bump(grid: Grid, l: int, eps: float) -> ConformalMetric:
    """w = eps P_l(cos theta), shifted to exact volume 4 pi.  A spec needs
    l >= 2 (degree-one bumps are first-order trivial reparametrizations),
    which ExperimentSpec checks."""
    return _even_preset(grid, legendre_profile(grid, l, eps),
                        f"legendre_bump l = {l}, eps = {eps}")


def multi_mode(grid: Grid, seed: int, decay_rate: float,
               amplitude: float) -> ConformalMetric:
    """Deterministic multi-harmonic profile sum_{l=2..6} a_l P_l(cos theta)
    with a_l = amplitude * r_l * l^-decay_rate, r_l uniform from the seed."""
    if seed < 0:
        raise ConfigError(f"multi_mode needs seed >= 0, got seed = {seed}")
    rng = np.random.default_rng(seed)
    r = rng.uniform(-1.0, 1.0, size=5)
    what = f"multi_mode decay_rate = {decay_rate}, amplitude = {amplitude}"
    w = np.zeros(grid.n_nodes)
    try:
        for i, l in enumerate(range(2, 7)):
            w += legendre_profile(grid, l, amplitude * r[i] * l ** -decay_rate)
    except OverflowError:  # l ** -decay_rate, for a very negative decay_rate
        raise ConfigError(f"{what} gives no finite metric")
    return _even_preset(grid, w, what)


def custom_w(grid: Grid, file: str) -> ConformalMetric:
    """Nodal conformal factor from a text file, one value per line.

    No volume rescaling: the run precondition is the caller's problem,
    which is exactly what the volume-violation error path exercises.
    """
    try:
        vals = np.loadtxt(file, dtype=float, ndmin=1)
    except (OSError, ValueError) as exc:  # missing, or not a number
        raise ConfigError(f"cannot read custom_w file {file!r}: {exc}")
    if vals.shape != (grid.n_nodes,):
        raise ConfigError(
            f"custom_w file {file!r} holds values of shape {vals.shape}, "
            f"grid needs {grid.n_nodes}, one value per line")
    if not np.isfinite(vals).all():
        raise ConfigError(f"custom_w file {file!r} holds a non-finite value")
    return conformal_metric(grid, vals)


def legendre_bump_for_calabi(grid: Grid, l: int, eps: float
                             ) -> ConformalMetric:
    """Bump whose measured curvature energy equals eps exactly.

    The amplitude solves measured_calabi(w) = target by a multiplicative
    secant from the linearized seed; the oblate orientation (negative
    amplitude) is used, see the scaling-sweep notes in the README.  A
    target that no bump on the grid reaches is a config mistake.
    """
    if not 0.0 < eps < math.inf:
        raise ConfigError(f"calabi target eps = {eps} must be positive and "
                          "finite")
    lin = (l * (l + 1) - 2.0) ** 2 / (2.0 * l + 1.0)
    amp = -math.sqrt(eps / lin)
    for _ in range(40):
        got = measured_calabi(legendre_bump(grid, l, amp))
        if not 0.0 < got < math.inf:
            raise ConfigError(f"no legendre_bump l = {l} on this grid has "
                              f"curvature energy {eps}")
        factor = math.sqrt(eps / got)
        amp *= factor
        if abs(factor - 1.0) < 1e-13:
            break
    return legendre_bump(grid, l, amp)


# scenario -> (preset, {key: default}).  The preset takes the grid and the
# keys as arguments; a spec value is parsed as the type of its default, and
# a key whose entry is a type has no default, so the spec must set it.
SCENARIOS = {
    "round": (round_metric, {}),
    "legendre_bump": (legendre_bump, {"l": 2, "eps": 1e-3}),
    "multi_mode": (multi_mode, {"seed": 7, "decay_rate": 2.0,
                                "amplitude": 5e-3}),
    "custom_w": (custom_w, {"file": str}),
}


def initial_metric(spec: ExperimentSpec) -> ConformalMetric:
    """The t = 0 metric of a spec, built nowhere else: its preset, with the
    spec's values over the defaults.  Under [sweep] target = calabi a
    legendre_bump's eps is its curvature energy (legendre_bump_for_calabi)
    for every command; other scenarios ignore the target."""
    args = {**SCENARIOS[spec.scenario][1], **dict(spec.scenario_params)}
    for key, value in args.items():
        if isinstance(value, type):
            raise ConfigError(f"{spec.scenario} scenario needs {key} = <path>")
    calabi = (spec.scenario, spec.sweep_target) == ("legendre_bump", "calabi")
    preset = legendre_bump_for_calabi if calabi else SCENARIOS[spec.scenario][0]
    return preset(make_grid(spec.grid_n), **args)


# ---------------------------------------------------------------------------
# config text round-trip
# ---------------------------------------------------------------------------

_FLOW_DEFAULTS = {f.name: f.default for f in fields(FlowConfig)}


def _declared_type(default) -> type:
    """The type a key's value takes: its default's, or the default itself
    when that is a type (a key with no default); float for a None."""
    return (float if default is None else
            default if isinstance(default, type) else type(default))


def _of_declared_type(value, default) -> bool:
    """Whether value has its key's declared type; an int passes for a
    float, and a bool for neither."""
    typ = _declared_type(default)
    return (isinstance(value, (int, float) if typ is float else typ)
            and not isinstance(value, bool))


def _parse_declared(raw: str, default, key: str, lineno: int):
    """raw as the type of the key's default, or as the default itself when
    that is a type (a key with no default); auto / none only for None."""
    if default is None and raw.lower() in ("auto", "none"):
        return None
    typ = _declared_type(default)
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: bad value {raw!r} for key {key!r}")


def _parse_sweep_values(raw: str, lineno: int) -> tuple:
    if ".." in raw:
        try:
            lo_hi, _, npts = raw.partition(":")
            lo, hi = (float(v) for v in lo_hi.split(".."))
            n = int(npts) if npts else 9
            # a geometric range needs finite, nonzero ends of one sign
            if not (math.isfinite(lo) and math.isfinite(hi) and lo and hi
                    and (lo > 0) == (hi > 0)):
                raise ValueError
            return tuple(float(v) for v in np.geomspace(lo, hi, n))
        except ValueError:
            raise ConfigError(f"line {lineno}: bad sweep range {raw!r}")
    try:
        return tuple(float(v) for v in raw.split(","))
    except ValueError:
        raise ConfigError(f"line {lineno}: bad sweep list {raw!r}")


def loads(text: str) -> ExperimentSpec:
    """Parse the key = value spec format; first violation raises ConfigError."""
    section = ""
    # given: the ExperimentSpec fields the text sets; the rest are defaults
    given, scenario, flow, monitors = {}, {}, {}, {}
    seen = {}  # (section, key) -> the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in ("scenario", "flow", "monitors", "sweep"):
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        first = seen.setdefault((section, key), lineno)
        if first != lineno:
            raise ConfigError(f"line {lineno}: key {key!r} already set on "
                              f"line {first}")
        if section == "":
            if key not in ("scenario", "grid_n", "output_dir"):
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key == "scenario" and raw not in SCENARIOS:
                raise ConfigError(f"line {lineno}: unknown scenario {raw!r}")
            given[key] = _parse_declared(raw, getattr(ExperimentSpec, key),
                                         key, lineno)
        elif section == "scenario":
            # top-level keys come before any section: the scenario is known
            name = given.get("scenario", ExperimentSpec.scenario)
            defaults = SCENARIOS[name][1]
            if key not in defaults:
                raise ConfigError(f"line {lineno}: scenario {name!r} takes "
                                  f"no key {key!r}")
            scenario[key] = _parse_declared(raw, defaults[key], key, lineno)
        elif section == "flow":
            if key not in _FLOW_DEFAULTS:
                raise ConfigError(f"line {lineno}: unknown flow key {key!r}")
            flow[key] = _parse_declared(raw, _FLOW_DEFAULTS[key], key, lineno)
        elif section == "monitors":
            if key == "checks":
                names = tuple(s.strip() for s in raw.split(",") if s.strip())
                for name in names:
                    if name not in ALL_CHECKS:
                        raise ConfigError(
                            f"line {lineno}: unknown check id {name!r}")
                    if names.count(name) > 1:
                        raise ConfigError(
                            f"line {lineno}: check id {name!r} listed twice")
                given["checks"] = names
            elif key in MONITOR_PARAMS:
                monitors[key] = _parse_declared(raw, MONITOR_PARAMS[key], key,
                                                lineno)
            else:
                raise ConfigError(f"line {lineno}: unknown monitor key {key!r}")
        elif section == "sweep":
            if key == "eps":
                given["sweep"] = _parse_sweep_values(raw, lineno)
            elif key == "target":
                if raw not in SWEEP_TARGETS:
                    raise ConfigError(f"line {lineno}: unknown sweep target {raw!r}")
                given["sweep_target"] = raw
            else:
                raise ConfigError(f"line {lineno}: unknown sweep key {key!r}")
    # ExperimentSpec checks what no single line decides
    return ExperimentSpec(
        **given, scenario_params=tuple(sorted(scenario.items())),
        flow=FlowConfig(**flow),
        monitor_params=tuple(sorted(monitors.items())))


def load_spec(path) -> ExperimentSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read spec file {path!r}: {exc}")
    return loads(text)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def dumps(spec: ExperimentSpec) -> str:
    """Canonical text with every default echoed; loads(dumps(s)) == s."""
    lines = [f"scenario = {spec.scenario}",
             f"grid_n = {spec.grid_n}",
             f"output_dir = {spec.output_dir}"]
    if spec.scenario_params:
        lines.append("")
        lines.append("[scenario]")
        for k, v in spec.scenario_params:
            lines.append(f"{k} = {_fmt(v)}")
    lines.append("")
    lines.append("[flow]")
    fc = spec.flow
    for k in sorted(_FLOW_DEFAULTS):
        v = getattr(fc, k)
        if v is None:
            v = "auto"
        lines.append(f"{k} = {_fmt(v)}")
    lines.append("")
    lines.append("[monitors]")
    lines.append("checks = " + ", ".join(spec.checks))
    for k, v in spec.monitor_params:
        lines.append(f"{k} = {_fmt(v)}")
    if spec.sweep or spec.sweep_target != ExperimentSpec.sweep_target:
        lines.append("")
        lines.append("[sweep]")
        if spec.sweep:
            lines.append("eps = " + ", ".join(repr(v) for v in spec.sweep))
        lines.append(f"target = {spec.sweep_target}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _timeseries_rows(traj: Trajectory):
    """The rows of timeseries.csv; the columns that read nodal arrays are
    computed a block of states at a time."""
    states = traj.states

    def nodal_columns(rows):
        return (diameter(rows.metric), *curvature_bounds(rows.metric),
                np.max(np.abs(rows.phi), axis=-1))

    nodal = map_blocks(states, states[0].metric.grid.n_nodes, nodal_columns)
    return [(s.t, s.dt, s.metric.volume, diam, kmin, kmax,
             s.funcs.a, s.funcs.Y, s.funcs.Z, s.funcs.osc_u,
             s.funcs.c0_u_minus_a, s.funcs.grad_u_c0, s.lambda_g,
             min(s.holo_band), max(s.holo_band),
             s.class_residual, phi_c0)
            for s, (diam, kmin, kmax, phi_c0) in zip(states,
                                                      nodal.T.tolist())]


def write_timeseries(path: Path, traj: Trajectory) -> None:
    with open(path, "w") as f:
        f.write(",".join(TIMESERIES_COLUMNS) + "\n")
        for row in _timeseries_rows(traj):
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def _report_block(check: CheckReport) -> str:
    lines = [f"[check {check.check_id}]",
             f"statement = {check.statement}",
             f"verdict = {check.verdict}",
             f"gate_satisfied = {_fmt(check.gate_satisfied)}",
             f"margin = {_fmt(check.margin) if check.margin is not None else 'none'}",
             f"tolerance = {_fmt(check.tolerance)}"]
    for k in sorted(check.aux):
        lines.append(f"aux.{k} = {_fmt(check.aux[k])}")
    return "\n".join(lines)


def write_report(path: Path, spec: ExperimentSpec,
                 traj: Trajectory | None, report: TrajectoryReport | None,
                 error: str | None = None,
                 error_code: int = EXIT_NUMERICAL) -> int:
    """Write report.txt; the exit code is error_code when the run ended in
    an error, else 1 if a check failed and 0 if none did."""
    spec_text = dumps(spec)
    if error is not None or report is None:
        code = error_code
    else:
        code = EXIT_FAIL if any(c.verdict == FAIL
                                for c in report.checks) else EXIT_OK
    blocks = ["[provenance]",
              f"code_version = {__version__}",
              f"spec_sha256 = {hashlib.sha256(spec_text.encode()).hexdigest()}",
              f"grid_n = {spec.grid_n}",
              f"h = {repr(math.pi / spec.grid_n)}",
              f"exit_code = {code}"]
    if traj is not None:
        dts = sorted({s.dt for s in traj.states if s.dt > 0})
        blocks.append("dt_history = "
                      + (", ".join(map(repr, dts)) if dts else "none"))
        blocks.append(f"n_states = {len(traj.states)}")
        blocks.append("eigensolves = " + ", ".join(
            f"{kind} {count}" for kind, count in traj.eigensolves.items()))
        blocks.append(f"converged_at = "
                      f"{_fmt(traj.converged_at) if traj.converged_at is not None else 'none'}")
        for ev in traj.events:
            blocks.append("event = " + ", ".join(str(x) for x in ev))
    if error is not None:
        blocks.append(f"error = {error}")
    text = "\n".join(blocks) + "\n"
    if report is not None:
        for check in report.checks:
            text += "\n" + _report_block(check) + "\n"
        if report.rates:
            text += "\n[rates]\n"
            for k in sorted(report.rates):
                text += f"{k} = {_fmt(report.rates[k])}\n"
    text += "\n[spec]\n"
    text += "".join("| " + line + "\n" for line in spec_text.splitlines())
    path.write_text(text)
    return code


def _output_dir(spec: ExperimentSpec, base_dir) -> Path:
    """base_dir, or else the spec's output_dir, made with its parents;
    ConfigError naming it when it cannot be (a file on it or a parent)."""
    out = Path(spec.output_dir if base_dir is None else base_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir {str(out)!r} is not a usable "
                          f"directory: {exc.strerror}")
    return out


def run_scenario(spec: ExperimentSpec, base_dir=None) -> RunArtifacts:
    """Execute one scenario end to end and write its artifacts.

    initial_metric(spec) builds the t=0 metric, and flow.run integrates
    it.  Config errors (an irregular pole in a custom_w profile, a bad
    rho) and numerical failures (volume mismatch, eigensolver trouble,
    band ambiguity, step rejection cascades) land in the report, with
    exit code 2 or 3, by the one exit of every outcome; only an output
    directory that cannot be made raises (ConfigError).  timeseries.csv
    is written as soon as the flow returns, so an error from the checks
    (a rho that a later state breaks) keeps it, and the report keeps the
    trajectory's provenance.
    """
    out = _output_dir(spec, base_dir)
    report_path = out / "report.txt"
    ts_path = out / "timeseries.csv"
    traj = report = error = None
    code = EXIT_NUMERICAL  # write_report reads it only with an error
    try:
        params = spec.monitor_dict()
        metric = initial_metric(spec)
        if "c0_vs_y" in spec.checks:  # its rho, on the t=0 metric
            check_scale(metric, params["rho"])
        traj = run(spec.flow, metric)
        write_timeseries(ts_path, traj)
        report = evaluate_trajectory(traj, spec.checks, params)
    except (ConfigError, NumericalError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, ConfigError):
            code = EXIT_CONFIG
    code = write_report(report_path, spec, traj, report, error, code)
    return RunArtifacts(
        output_dir=out, report_path=report_path, exit_code=code,
        timeseries_path=ts_path if traj is not None else None,
        trajectory=traj, report=report, error=error)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _run_sweep_point(args):
    """run_scenario for one sweep value, reduced to its summary row."""
    spec, value, out_dir = args
    point = replace(spec, sweep=(), scenario_params=tuple(sorted(
        dict(spec.scenario_params, eps=value).items())))
    art = run_scenario(point, out_dir)
    if art.error is not None:
        return {"eps": value, "eps_calabi": math.nan,
                "grad_c0_at_t0": math.nan, "ratio": math.nan,
                "K_eff": math.nan, "exit_code": art.exit_code,
                "error": art.error}
    eps_cal = measured_calabi(art.trajectory.states[0].metric)
    aux = {c.check_id: c.aux for c in art.report.checks}
    grad_t0 = aux.get("short_time", {}).get("grad_c0_at_t0", math.nan)
    return {"eps": value, "eps_calabi": eps_cal, "grad_c0_at_t0": grad_t0,
            "ratio": grad_t0 / eps_cal ** 0.25 if eps_cal > 0 else math.nan,
            "K_eff": aux.get("c0_vs_y", {}).get("K_eff", math.nan),
            "exit_code": art.exit_code, "error": ""}


def sweep_epsilon(spec: ExperimentSpec, base_dir=None) -> RunArtifacts:
    """One run per sweep value with failures isolated, plus the aggregate
    regression of log |grad u|(t0) against log eps_Calabi."""
    raw_workers = os.environ.get("KRFLOW_WORKERS", "1")
    if not raw_workers.strip().isdecimal() or int(raw_workers) < 1:
        raise ConfigError(f"KRFLOW_WORKERS = {raw_workers!r} is not a "
                          "positive integer")
    workers = int(raw_workers)
    if not spec.sweep:
        raise ConfigError("sweep requested but [sweep] eps is empty")
    if spec.scenario != "legendre_bump":
        raise ConfigError("sweeps are defined for the legendre_bump scenario")
    out = _output_dir(spec, base_dir)  # run_scenario makes the point dirs
    jobs = [(spec, float(value), str(out / f"point_{i:02d}"))
            for i, value in enumerate(spec.sweep)]
    if workers > 1:
        # imported here, so that no other run pays the 10-30 ms import
        # of the pool's modules
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_sweep_point, jobs))
    else:
        rows = [_run_sweep_point(j) for j in jobs]
    summary = out / "sweep_summary.csv"
    cols = ("eps", "eps_calabi", "grad_c0_at_t0", "ratio", "K_eff",
            "exit_code")
    with open(summary, "w") as f:
        f.write(",".join(cols) + "\n")
        for row in rows:
            f.write(",".join(repr(float(row[c])) if c != "exit_code"
                             else str(row[c]) for c in cols) + "\n")
    good = [r for r in rows if r["exit_code"] == EXIT_OK
            and np.isfinite(r["ratio"])]
    report_lines = ["[sweep]", f"points = {len(rows)}",
                    f"failures = {len(rows) - len(good)}"]
    if len(good) >= 2:
        x = np.log([r["eps_calabi"] for r in good])
        y = np.log([r["grad_c0_at_t0"] for r in good])
        slope, intercept = np.polyfit(x, y, 1)
        ratios = np.array([r["ratio"] for r in good])
        report_lines += [f"slope = {repr(float(slope))}",
                         f"intercept = {repr(float(intercept))}",
                         f"ratio_max_over_min = "
                         f"{repr(float(ratios.max() / ratios.min()))}"]
    report_path = out / "sweep_report.txt"
    report_path.write_text("\n".join(report_lines) + "\n")
    code = max(r["exit_code"] for r in rows)  # EXIT_OK = 0 is the least
    return RunArtifacts(output_dir=out, timeseries_path=summary,
                        report_path=report_path, exit_code=code, rows=rows)


# ---------------------------------------------------------------------------
# single-state inspection used by the CLI
# ---------------------------------------------------------------------------

def state_at(spec: ExperimentSpec, t: float):
    """Flow the scenario to time t and return the recorded state nearest t."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ConfigError(f"t = {t} must be finite and >= 0")
    traj = run(replace(spec.flow, t_end=t), initial_metric(spec))
    ts = traj.times()
    return traj.states[int(np.argmin(np.abs(ts - t)))]


def spectrum_dump(spec: ExperimentSpec, t: float) -> str:
    """The merged spectrum that the flow solved for the state nearest t,
    with that state's time: a run that converged early ends before t."""
    state = state_at(spec, t)
    lines = ["index,eigenvalue,mode"]
    lams, modes = spectral.merged_spectrum(state.spectrum)
    for i, (lam, m) in enumerate(zip(lams, modes)):
        lines.append(f"{i},{repr(float(lam))},{m}")
    lines.append(f"# t = {repr(state.t)}")
    lines.append(f"# lambda_g = {repr(state.lambda_g)}")
    lines.append("# holo_band = " + ", ".join(repr(b) for b in state.holo_band))
    return "\n".join(lines) + "\n"
