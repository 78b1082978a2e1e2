"""The drift summary of tools/artifact_diff.py on hand-made artifacts, the
perfbench command line of tools/bench_pairs.py, and the private
definitions tools/unused_imports.py reports."""

import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402
import unused_imports  # noqa: E402
from artifact_diff import drift  # noqa: E402


def test_drift_per_column_and_key():
    old = b"t,lambda_g,Y\n0.0,3.0,1e-5\n0.5,2.5,1e-6\n"
    new = b"t,lambda_g,Y\n0.0,3.0000000003,1e-5\n0.5,2.5,1e-6\n"
    assert drift("timeseries.csv", old, new) == [
        "  timeseries.csv lambda_g: 1.00e-10"]
    old = (b"[provenance]\nexit_code = 0\nevent = decay_gate, 0.0, on\n\n"
           b"[check a]\nverdict = PASS\nmargin = 0.5\n\n"
           b"[check b]\nverdict = PASS\nmargin = 0.5\n")
    new = (b"[provenance]\nexit_code = 0\nevent = decay_gate, 0.1, on\n"
           b"event = converged, 0.2\n\n"
           b"[check a]\nverdict = PASS\nmargin = 0.4\n\n"
           b"[check b]\nverdict = FAIL\nmargin = 0.5\n")
    # a key is named with its section, and a repeated key is compared
    # value by value
    assert drift("report.txt", old, new) == [
        "  report.txt [provenance] event: 1 -> 2 values",
        "  report.txt [check a] margin: 2.00e-01",
        "  report.txt [check b] verdict: text"]
    assert drift("report.txt", old, old) == []
    assert drift("report.txt", None, new) == []


def test_bench_pairs_passes_the_seed(monkeypatch):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout='{"x": 1}\n',
                                           stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_once(Path("tree"), "dense_n64", 42) == {"x": 1}
    (cmd,) = calls
    assert cmd[-2:] == ["--seed", "42"]
    assert cmd[cmd.index("--workload") + 1] == "dense_n64"


def fake_bench_pairs(monkeypatch, tmp_path, *workload_args):
    """bench_pairs.main at 2 pairs, with no export, no git and no perfbench:
    returns the workloads it ran, in order, and exits as main does."""
    ran = []

    def run_once(tree, workload, seed):
        ran.append(workload)
        return {"correct": True, "metrics": {
            m: {"value": 1.0} for m in ("wall_s", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_x.json"
    bench_pairs.main(["--against", "HEAD", "--pairs", "2", "--out",
                      str(out), *workload_args])
    return ran


def test_bench_pairs_runs_the_named_workloads(monkeypatch, tmp_path):
    ran = fake_bench_pairs(monkeypatch, tmp_path, "--workload", "dense_n64",
                           "--workload", "flow_n256")
    # BENCHMARK.json's order, each workload's pairs together
    assert ran == ["flow_n256"] * 4 + ["dense_n64"] * 4
    assert len(set(fake_bench_pairs(monkeypatch, tmp_path))) == 3


def test_bench_pairs_refuses_an_unknown_workload(monkeypatch, tmp_path,
                                                 capsys):
    with pytest.raises(SystemExit) as exc:
        fake_bench_pairs(monkeypatch, tmp_path, "--workload", "nope")
    assert exc.value.code == 2
    assert "unknown workload 'nope'" in capsys.readouterr().err


def test_unread_private_definition_reported(monkeypatch, tmp_path, capsys):
    # _dead is read nowhere; the others are read from another file: by a
    # relative import and a call, as an attribute, and by an import
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "m.py").write_text(
        "def _dead():\n    pass\n\n\ndef _called():\n    pass\n\n\n"
        "class _patched:\n    pass\n\n\ndef _imported():\n    pass\n")
    (tmp_path / "src" / "pkg" / "n.py").write_text(
        "from .m import _called\n\n_called()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t.py").write_text(
        "from pkg import m\nfrom pkg.m import _imported\n\n"
        "m._patched\n_imported\n")
    (tmp_path / "tools").mkdir()
    monkeypatch.setattr(unused_imports, "ROOT", tmp_path)
    assert unused_imports.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{tmp_path / 'src' / 'pkg' / 'm.py'}:1: _dead "
                   "(unread private definition)"]
