#!/usr/bin/env python3
"""Byte-for-byte comparison of the run artifacts of two source trees.

    python3 tools/artifact_diff.py --against <rev>

The committed files of <rev> are exported into a temporary directory
(`git archive`, so nothing is registered in the repository and nothing is
left behind), and the working tree is the other side.  For each workload
of perfbench/workloads.py and each of the seeds 7 and 42, the
workload's spec text is written once and `krflow run` runs on it under
each tree's own src/, in a fresh interpreter per run.  Every line of
timeseries.csv and report.txt that differs is printed with both versions,
as is a differing exit code.  A drift summary follows the lines of each
case that differs: per artifact, the largest relative change
|new - old| / max(|old|, |new|) of each timeseries.csv column and of each
report.txt key (named with its [section]) whose values differ, or `text`
where a value that is not a number changed.  The exit status is 0 when
every artifact is byte-identical and 1 otherwise.

This tool reads the workload definitions from perfbench/ and changes
nothing there.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ("timeseries.csv", "report.txt")
SEEDS = (7, 42)

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, variant_of  # noqa: E402


def export(rev: str, dest: Path) -> None:
    """The committed files of rev under dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_tree(src: Path, work: Path, spec_text: str) -> tuple[int, dict]:
    """`krflow run` of spec_text under the package in src, in the directory
    work: the exit code and the artifacts' bytes (None when missing)."""
    work.mkdir(parents=True)
    (work / "spec.cfg").write_text(spec_text)
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = subprocess.run(
        [sys.executable, "-m", "krflow.cli", "run", "spec.cfg"], cwd=work,
        env=env, capture_output=True).returncode
    out = work / "out"
    return code, {name: (out / name).read_bytes()
                  if (out / name).exists() else None for name in ARTIFACTS}


def differing_lines(old: bytes | None, new: bytes | None) -> list[str]:
    """One entry per line of the two files that differs."""
    if old is None or new is None:
        return [f"  present: {old is not None} -> {new is not None}"]
    a, b = old.split(b"\n"), new.split(b"\n")
    lines = []
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else b"<none>"
        y = b[i] if i < len(b) else b"<none>"
        if x != y:
            lines.append(f"  line {i + 1}:\n    - {x.decode()}\n"
                         f"    + {y.decode()}")
    return lines


def values(artifact: str, data: bytes) -> dict[str, list[str]]:
    """Each timeseries.csv column, or each report.txt key as
    "[section] key", with its values in file order."""
    lines = data.decode().splitlines()
    out: dict[str, list[str]] = {}
    if artifact == "timeseries.csv":
        header = lines[0].split(",") if lines else []
        for row in lines[1:]:
            for key, value in zip(header, row.split(",")):
                out.setdefault(key, []).append(value)
        return out
    section = ""
    for line in lines:
        if line.startswith("["):
            section = line
        elif " = " in line:
            key, value = line.split(" = ", 1)
            out.setdefault(f"{section} {key}", []).append(value)
    return out


def relative_change(x: str, y: str) -> float | None:
    """|y - x| / max(|x|, |y|) of two finite numbers, 0 for equal text, and
    None for other text that differs."""
    if x == y:
        return 0.0
    try:
        a, b = float(x), float(y)
    except ValueError:
        return None
    if not (math.isfinite(a) and math.isfinite(b)):
        return None
    return abs(b - a) / max(abs(a), abs(b)) if a != b else 0.0


def drift(artifact: str, old: bytes | None, new: bytes | None) -> list[str]:
    """One line per column or key of the artifact whose values differ:
    its largest relative change, `text`, or its changed count of values."""
    if old is None or new is None or old == new:
        return []
    a, b = values(artifact, old), values(artifact, new)
    lines = []
    for key in dict.fromkeys([*a, *b]):
        x, y = a.get(key, []), b.get(key, [])
        if len(x) != len(y):
            lines.append(f"  {artifact} {key}: {len(x)} -> {len(y)} values")
            continue
        changes = [relative_change(p, q) for p, q in zip(x, y)]
        if None in changes:
            lines.append(f"  {artifact} {key}: text")
        elif changes and max(changes) > 0.0:
            lines.append(f"  {artifact} {key}: {max(changes):.2e}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", required=True,
                   help="git revision whose committed files are compared")
    args = p.parse_args(argv)
    differ = 0
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as tmp:
        tmp = Path(tmp)
        export(args.against, tmp / "against")
        for name in WORKLOADS:
            for seed in SEEDS:
                spec = WORKLOADS[name].spec_text(variant_of(seed), "out")
                case = tmp / "runs" / f"{name}_{seed}"
                code_old, old = run_tree(tmp / "against" / "src",
                                         case / "against", spec)
                code_new, new = run_tree(ROOT / "src", case / "tree", spec)
                found = ([f"  exit code {code_old} -> {code_new}"]
                         if code_old != code_new else [])
                for artifact in ARTIFACTS:
                    lines = differing_lines(old[artifact], new[artifact])
                    if lines:
                        found += [f" {artifact}:", *lines]
                moved = [line for artifact in ARTIFACTS
                         for line in drift(artifact, old[artifact],
                                           new[artifact])]
                if moved:
                    found += [" drift, largest relative change:", *moved]
                label = f"{name} seed {seed}"
                if found:
                    differ += 1
                    print(f"{label}: DIFFERS", *found, sep="\n")
                else:
                    print(f"{label}: identical (exit code {code_new})")
                sys.stdout.flush()
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
