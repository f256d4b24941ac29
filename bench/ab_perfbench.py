#!/usr/bin/env python3
"""Runs perfbench in two checkouts as strictly alternating pairs and compares.

  ab_perfbench.py PARENT CHANGE --workload W --pairs N [--seed S] [--cpu K]
  ab_perfbench.py --self-test

PARENT and CHANGE are the roots of two checkouts. Each pair runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` once in
each checkout, one after the other; the side that goes first alternates from
pair to pair; T is `run_seconds` of BENCHMARK.json in CHANGE. With --cpu K
every run is started under `taskset -c K`, which pins that run and its
children only, never this script. Before the pairs, each checkout runs once
for one second, unpinned and unmeasured, so its build is done before the
first measured run.

Per end-to-end metric the report gives both sides' medians and quartiles,
how many pairs the change won, and whether every change run beats every
parent run ("separated"), and each side's failed and attempted operations.
A metric's direction (lower or higher is better) comes from BENCHMARK.json
in CHANGE; the script stops if that file cannot be read. A run without a
result line, or whose result line is not `"correct": true`, has no result:
it is listed, left out of the statistics, and makes the exit status 1.

Only alternating pairs compare: on a shared VM the same tree's throughput
drifts over minutes to hours by more than most changes move it, and
unpinned runs can be bimodal. Keep both checkouts at paths of equal length: serve_churn's peak
RSS has read 0.1 MB apart for one binary run from two checkouts.
"""

import argparse
import json
import os
import subprocess
import sys


def result_of(stdout):
    """A run's result from its result line (its last JSON line), or None.

    The result is {"metrics": {name: value}, "attempted": n, "failed": n};
    a line whose "correct" is not true gives None, so a run that answered
    wrongly never counts.
    """
    for line in reversed(stdout.strip().splitlines()):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            record = json.loads(line)
        except ValueError:
            return None
        metrics = record.get("metrics")
        if record.get("correct") is not True or not isinstance(metrics, dict):
            return None
        return {"metrics": {name: entry["value"]
                            for name, entry in metrics.items()},
                "attempted": record.get("attempted", 0),
                "failed": record.get("failed", 0)}
    return None


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beats(change, parent, better):
    return change < parent if better == "lower" else change > parent


def summarize(pairs, better):
    """One row per metric from complete pairs of metric maps."""
    rows = []
    for metric in sorted(better):
        both = [(p[metric], c[metric]) for p, c in pairs
                if metric in p and metric in c]
        if not both:
            continue
        parents = [p for p, _ in both]
        changes = [c for _, c in both]
        worst_change = max(changes) if better[metric] == "lower" \
            else min(changes)
        best_parent = min(parents) if better[metric] == "lower" \
            else max(parents)
        rows.append({
            "metric": metric,
            "better": better[metric],
            "pairs": len(both),
            "parent": [quantile(parents, q) for q in (0.25, 0.5, 0.75)],
            "change": [quantile(changes, q) for q in (0.25, 0.5, 0.75)],
            "wins": sum(beats(c, p, better[metric]) for p, c in both),
            "separated": beats(worst_change, best_parent, better[metric]),
        })
    return rows


def format_rows(rows):
    lines = ["%-18s %-7s %-28s %-28s %-6s %-9s %s" %
             ("metric", "better", "parent median [q1, q3]",
              "change median [q1, q3]", "wins", "separated",
              "|diff| > parent IQR")]
    for row in rows:
        p, c = row["parent"], row["change"]
        lines.append("%-18s %-7s %-28s %-28s %-6s %-9s %s" % (
            row["metric"], row["better"],
            "%.4g [%.4g, %.4g]" % (p[1], p[0], p[2]),
            "%.4g [%.4g, %.4g]" % (c[1], c[0], c[2]),
            "%d/%d" % (row["wins"], row["pairs"]),
            "yes" if row["separated"] else "no",
            "yes" if abs(c[1] - p[1]) > p[2] - p[0] else "no"))
    return "\n".join(lines)


def format_failures(results):
    """Failed and attempted operations summed over one side's runs."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    share = failed / attempted if attempted else 0.0
    return "%d failed of %d attempted (%.4g)" % (failed, attempted, share)


def load_benchmark(root):
    """The metric directions and the run length from root/BENCHMARK.json."""
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            benchmark = json.load(f)
        better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
        return better, int(benchmark["run_seconds"])
    except (OSError, ValueError, KeyError, TypeError) as error:
        sys.exit("ab_perfbench: cannot read %s: %s" % (path, error))


def run_once(root, workload, seed, seconds, cpu):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if cpu is not None:
        command = ["taskset", "-c", str(cpu)] + command
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    return result_of(done.stdout), done.stdout


def self_test():
    """Checks parsing and the statistics on canned result lines."""
    failures = []

    def line(p50, throughput):
        return json.dumps({
            "correct": True, "attempted": 40, "failed": 1, "metrics": {
                "p50_ms": {"value": p50, "unit": "ms"},
                "throughput_per_s": {"value": throughput, "unit": "1/s"}}})

    canned = "note: verdicts checked\n" + line(2.0, 100.0) + "\n"
    if result_of(canned) != {"metrics": {"p50_ms": 2.0,
                                         "throughput_per_s": 100.0},
                             "attempted": 40, "failed": 1}:
        failures.append("result line not parsed: %r" % result_of(canned))
    wrong = json.loads(line(2.0, 100.0))
    wrong["correct"] = False
    for broken in ("", "perfbench: build failed\n", "{not json\n",
                   '{"correct": false}\n', json.dumps(wrong) + "\n",
                   "PROBLEM: 3 wrong verdicts\n" + json.dumps(wrong)):
        if result_of(broken) is not None:
            failures.append("no result expected from %r" % broken)
    if format_failures([result_of(canned)] * 2) != \
            "2 failed of 80 attempted (0.025)":
        failures.append("failure count wrong: %s" %
                        format_failures([result_of(canned)] * 2))

    better = {"p50_ms": "lower", "throughput_per_s": "higher"}
    parent = [result_of(line(p50, t))["metrics"] for p50, t in
              ((2.0, 100.0), (2.2, 90.0), (1.8, 110.0), (2.1, 95.0))]
    change = [result_of(line(p50, t))["metrics"] for p50, t in
              ((1.5, 130.0), (1.6, 120.0), (1.9, 105.0), (1.4, 140.0))]
    rows = {row["metric"]: row for row in
            summarize(list(zip(parent, change)), better)}
    p50, tput = rows.get("p50_ms"), rows.get("throughput_per_s")
    if p50 is None or tput is None:
        return ["metrics missing from the summary: %s" % sorted(rows)]
    if p50["wins"] != 3 or p50["separated"]:
        failures.append("p50: expected 3 wins, not separated: %s" % p50)
    if tput["wins"] != 3 or tput["separated"]:
        failures.append("throughput: expected 3 wins, not separated: %s" %
                        tput)
    if abs(p50["parent"][1] - 2.05) > 1e-9 or \
            abs(p50["change"][1] - 1.55) > 1e-9:
        failures.append("p50 medians wrong: %s" % p50)
    if abs(tput["parent"][0] - 93.75) > 1e-9 or \
            abs(tput["parent"][2] - 102.5) > 1e-9:
        failures.append("throughput quartiles wrong: %s" % tput)
    clean = {row["metric"]: row for row in summarize(
        [(parent[0], change[0]), (parent[1], change[3])], better)}
    if not clean["p50_ms"]["separated"] or \
            not clean["throughput_per_s"]["separated"]:
        failures.append("expected separation: %s" % clean)
    if "3/4" not in format_rows(list(rows.values())):
        failures.append("report lacks the win count")
    for failure in failures:
        print("FAIL: %s" % failure)
    print("ab_perfbench self-test: %s" % ("FAILED" if failures else "ok"))
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cpu", type=int)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return 1 if self_test() else 0
    if None in (args.parent, args.change, args.workload, args.pairs):
        parser.error("PARENT, CHANGE, --workload and --pairs are required")

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    better, seconds = load_benchmark(sides["change"])
    for name, root in sides.items():
        warm, output = run_once(root, args.workload, args.seed, 1, None)
        if warm is None:
            sys.stderr.write(output)
            sys.exit("ab_perfbench: the warm-up run in %s (%s) has no result"
                     % (name, root))

    pairs, missing = [], []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {}
        for name in order:
            results[name], output = run_once(
                sides[name], args.workload, args.seed, seconds, args.cpu)
            if results[name] is None:
                missing.append("pair %d %s:\n%s" % (i + 1, name, output))
            print("pair %d %s: %s" % (i + 1, name, json.dumps(results[name])),
                  flush=True)
        if results["parent"] is not None and results["change"] is not None:
            pairs.append((results["parent"], results["change"]))

    print("\nworkload %s, seed %d, %d s runs, %s, %d complete pair(s)" % (
        args.workload, args.seed, seconds,
        "pinned to CPU %d" % args.cpu if args.cpu is not None else "unpinned",
        len(pairs)))
    if pairs:
        print(format_rows(summarize(
            [(p["metrics"], c["metrics"]) for p, c in pairs], better)))
        print("parent: %s" % format_failures([p for p, _ in pairs]))
        print("change: %s" % format_failures([c for _, c in pairs]))
    for entry in missing:
        print("\nrun without a correct result line: %s" % entry)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
