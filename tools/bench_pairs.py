#!/usr/bin/env python3
"""Alternating benchmark pairs of a git revision and the working tree.

    python3 tools/bench_pairs.py --against <rev> --pairs 10 \
        --out BENCH_<label>.json [--seed N] [--workload NAME ...]

The committed files of <rev> are exported into a temporary directory
(tools/artifact_diff.export), and the working tree is the other side, the
change.  For each workload of BENCHMARK.json, or each one named by a
--workload (which may be repeated), the two trees run
`perfbench/run.py --workload <name> --trace 0 --seed <seed>` in turn,
each tree its own copy of perfbench and its own src/, at perfbench's
default length; --seed (default 7, perfbench's default) picks the
workload variant.  The parent runs first in the first half of the pairs
and the change in the second half.

The output file holds the keys of the committed BENCH_*.json files: what,
command, procedure, machine, summary (per workload and end-to-end metric:
each side's runs, median and quartiles, the pairs the change won, the
change of the median and the parent's interquartile range) and runs (the
last line perfbench printed, per run).  Progress goes to stderr.

This tool changes nothing under perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

from artifact_diff import ROOT, export

COMMAND = ["perfbench/run.py", "--trace", "0"]


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The JSON last line of one perfbench run in tree."""
    out = subprocess.run(
        [sys.executable, *COMMAND, "--workload", workload,
         "--seed", str(seed)], cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"perfbench in {tree} exited {out.returncode}:\n"
                         f"{out.stdout}{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def side(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"runs": values, "median": statistics.median(values),
            "quartiles": [q1, q3]}


def summarize(runs: list[dict], metrics: list[dict], pairs: int) -> dict:
    """Per end-to-end metric, both sides and the pairs the change won."""
    by_tree = {tree: [r["last_line"] for r in runs if r["tree"] == tree]
               for tree in ("parent", "change")}
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {tree: [line["metrics"][name]["value"] for line in lines]
                  for tree, lines in by_tree.items()}
        won = sum(sign * (c - p) < 0
                  for p, c in zip(values["parent"], values["change"]))
        parent, change = side(values["parent"]), side(values["change"])
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": parent, "change": change,
            "pairs_change_better": f"{won} of {pairs}",
            "median_change": change["median"] - parent["median"],
            "parent_iqr": parent["quartiles"][1] - parent["quartiles"][0]}
    summary["correct"] = {tree: all(line["correct"] for line in lines)
                          for tree, lines in by_tree.items()}
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", required=True,
                   help="git revision whose committed files are the parent")
    p.add_argument("--pairs", type=int, required=True,
                   help="alternating pairs per workload, at least 2")
    p.add_argument("--out", required=True, type=Path,
                   help="the BENCH_<label>.json file to write")
    p.add_argument("--seed", type=int, default=7,
                   help="perfbench's --seed for every run (default 7)")
    p.add_argument("--workload", action="append", metavar="NAME",
                   help="run this BENCHMARK.json workload only; may be "
                        "repeated (default: every workload)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, for the quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(workloads))
    if unknown:
        p.error(f"unknown workload {unknown[0]!r}; BENCHMARK.json has "
                + ", ".join(workloads))
    if args.workload:
        workloads = [w for w in workloads if w in args.workload]
    parent_rev = git("rev-parse", "--short", args.against)
    head = git("rev-parse", "--short", "HEAD")
    dirty = " with uncommitted changes" if git("status", "--porcelain") \
        else ""
    half = args.pairs // 2
    runs, summary = [], {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": ROOT}
        export(args.against, trees["parent"])
        for workload in workloads:
            pair_runs = []
            for pair in range(1, args.pairs + 1):
                order = (("parent", "change") if pair <= half
                         else ("change", "parent"))
                for tree in order:
                    line = run_once(trees[tree], workload, args.seed)
                    pair_runs.append({"tree": tree, "workload": workload,
                                      "trace": 0, "pair": pair,
                                      "last_line": line})
                    values = ", ".join(f"{k} {v['value']:.4g}" for k, v
                                       in line["metrics"].items())
                    print(f"{workload} pair {pair} {tree}: {values}",
                          file=sys.stderr, flush=True)
            runs += pair_runs
            summary[workload] = summarize(pair_runs, bench["end_to_end"],
                                          args.pairs)
    record = {
        "what": f"{args.against} ({parent_rev}) against the working tree "
                f"at {head}{dirty}",
        "command": "python3 " + " ".join(COMMAND)
                   + f" --workload <workload> --seed {args.seed}",
        "procedure": (
            f"parent and change alternate run by run, each tree running its "
            f"own perfbench and src/ (the parent a git archive of "
            f"{parent_rev}), at seed {args.seed} and perfbench's default "
            f"length: {args.pairs} pairs per workload, parent first in "
            f"pairs 1-{half} and change first in pairs {half + 1}-"
            f"{args.pairs}"),
        "machine": (
            f"{os.cpu_count()}-core {platform.machine()} machine, Python "
            f"{platform.python_version()}, numpy {version('numpy')}, scipy "
            f"{version('scipy')}, one BLAS thread (perfbench sets it)"),
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, metrics in summary.items():
        print(f"{workload}: " + "; ".join(
            f"{k} {v['parent']['median']:.4g} -> {v['change']['median']:.4g}"
            f" ({v['pairs_change_better']})" for k, v in metrics.items()
            if k != "correct") + f"; correct {metrics['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
