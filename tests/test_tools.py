"""The drift summary of tools/artifact_diff.py on hand-made artifacts, and
the perfbench command line of tools/bench_pairs.py."""

import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402
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
