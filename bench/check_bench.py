#!/usr/bin/env python3
"""Compares fresh bench records with the committed BENCH_*.json baselines.

  check_bench.py FRESH_DIR BENCH...  compare FRESH_DIR/BENCH_<bench>.json
                                     with the committed file of that name
  check_bench.py --layers OUT_DIR    write perfbench's traced counts (seed 1,
                                     1 s, trace 1) to
                                     OUT_DIR/BENCH_perfbench_layers.json
  check_bench.py --self-test         check the comparator on seeded faults

A fresh run must hold exactly the committed cells, and every field must
equal its committed value except the wall-clock ones, which are held only to
WALL_RELATIONS. The other fields are deterministic counts and verdicts, so a
change that moves one refreshes its baseline in the same diff: run the bench
from the root of the checkout with its default --out, or --layers . here.
"""

import argparse
import copy
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The fields that name a cell; the rest of a record is what it measured.
KEY_FIELDS = ("workload", "schema", "batch", "config", "scope")

# Wall-clock relations lhs <= rhs, each held on exactly the cells it has
# always gated. None is extended to other cells: timings are noisy, and a
# relation holds reliably only where its margin is wide (tiered <= untiered
# sits at 1.0x on chain-12x3, where the tiers never engage).
WALL_RELATIONS = [
    ("implication_batch", "incremental_ms", "from_scratch_ms",
     ["schema=chain-6x2 batch=8", "schema=clustered-2x3 batch=8"]),
    ("pivot_kernel", "sparse_ms", "dense_rational_ms",
     ["schema=chain-10x3", "schema=clustered-2x3", "schema=dense-blowup-8"]),
    ("prefilter", "tiered_ms", "untiered_ms",
     ["schema=hierarchy-16 batch=32", "schema=clustered-8x4 batch=32"]),
    ("serve", "warm_p50_ms", "cold_p50_ms",
     ["config=lazy scope=summary", "config=eager scope=summary"]),
    ("serve", "probe_p95_ratio", "max_probe_p95_ratio",
     ["scope=lazy_vs_eager"]),
    ("snapshot", "restore_ms", "cold_ms",
     ["schema=chain", "schema=clustered", "schema=hierarchy"]),
    ("lazy_expansion", "lazy_ms", "eager_ms",
     ["schema=dense-8+3", "schema=dense-10+3"]),
    ("lazy_unsat", "lazy_ms", "eager_ms",
     ["schema=unsat-8+3", "schema=unsat-10+3"]),
]


def is_wall(field):
    return (field.endswith("_ms") or field.startswith("speedup") or
            field in ("warm_vs_cold", "probe_p95_ratio"))


def cell_of(record):
    return " ".join("%s=%s" % (key, record[key]) for key in KEY_FIELDS
                    if key in record)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(bench, committed, fresh, notes=None):
    """Returns one message per difference of `fresh` from `committed`, each
    naming the bench and the cell; appends the relations that held to
    `notes`."""
    errors, notes = [], [] if notes is None else notes

    def by_cell(records, run):
        cells = {}
        for record in records:
            if cell_of(record) in cells:
                errors.append("%s: %s: duplicate cell in the %s run" %
                              (bench, cell_of(record), run))
            cells[cell_of(record)] = record
        return cells

    old, new = by_cell(committed, "committed"), by_cell(fresh, "fresh")
    for cell in sorted(old.keys() ^ new.keys()):
        errors.append("%s: %s: cell only in the %s run" % (
            bench, cell, "committed" if cell in old else "fresh"))
    for cell in sorted(old.keys() & new.keys()):
        was, now = old[cell], new[cell]
        for field in sorted(was.keys() | now.keys()):
            if field not in now or field not in was:
                errors.append("%s: %s: %s only in the %s run" % (
                    bench, cell, field,
                    "committed" if field in was else "fresh"))
            elif not is_wall(field) and (type(now[field]), now[field]) != (
                    type(was[field]), was[field]):
                errors.append("%s: %s: %s is %s, committed %s" % (
                    bench, cell, field, json.dumps(now[field]),
                    json.dumps(was[field])))
    for name, lhs, rhs, cells in WALL_RELATIONS:
        for cell in cells if name == bench else []:
            if cell not in old:
                errors.append("%s: %s: %s <= %s names a cell not in the "
                              "committed file" % (bench, cell, lhs, rhs))
            elif cell in new and lhs in new[cell] and rhs in new[cell]:
                held = new[cell][lhs] <= new[cell][rhs]
                line = "%s: %s: %s %s %s %s %s" % (
                    bench, cell, lhs, new[cell][lhs], "<=" if held else ">",
                    rhs, new[cell][rhs])
                (notes if held else errors).append(line)
    return errors


def write_layers(out_dir):
    """Writes perfbench's traced per-layer metrics, one record per workload,
    leaving out its wall time (the ms metrics and trace.overhead_share)."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "BENCH_perfbench_layers.json"), "w") as f:
        for workload in ("serve_fresh", "serve_churn", "check_corpus"):
            done = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", "1"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.exit("perfbench %s exited with %d" %
                         (workload, done.returncode))
            result = json.loads(done.stdout.splitlines()[-1])
            record = {"bench": "perfbench_layers", "workload": workload}
            for name in ("correct", "attempted", "failed"):
                record[name] = result[name]
            for name, metric in result["metrics"].items():
                if metric["unit"] != "ms" and name != "trace.overhead_share":
                    record[name] = metric["value"]
            f.write(json.dumps(record, separators=(",", ":")) + "\n")


def self_test():
    """Each committed file passes against itself; one counter bumped, a cell
    dropped, a cell added, answers_identical false and each wall relation
    broken fail it with exactly one message naming the fault."""
    failures = []

    def expect_one(bench, committed, fresh, *names):
        errors = compare(bench, committed, fresh)
        if len(errors) != 1 or not all(name in errors[0] for name in names):
            failures.append("%s: expected one message naming %s, got %s" %
                            (bench, ", ".join(names), errors))

    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    for path in paths:
        bench = os.path.basename(path)[len("BENCH_"):-len(".json")]
        committed = load(path)
        failures += compare(bench, committed, committed)
        first, cell = committed[0], cell_of(committed[0])
        counter = next(field for field, value in first.items()
                       if type(value) in (int, float) and
                       field not in KEY_FIELDS and not is_wall(field))
        faulty = copy.deepcopy(committed)
        faulty[0][counter] += 1
        expect_one(bench, committed, faulty, bench, cell, counter)
        expect_one(bench, committed, committed[1:], bench, cell)
        key = next(key for key in KEY_FIELDS if key in first)
        added = dict(first, **{key: "%s-added" % first[key]})
        expect_one(bench, committed, committed + [added], bench,
                   cell_of(added))
        for i, record in enumerate(committed):
            if "answers_identical" in record:
                faulty = copy.deepcopy(committed)
                faulty[i]["answers_identical"] = False
                expect_one(bench, committed, faulty, bench, cell_of(record),
                           "answers_identical")
                break
        for name, lhs, rhs, cells in WALL_RELATIONS:
            for cell in cells if name == bench else []:
                faulty = copy.deepcopy(committed)
                [record] = [r for r in faulty if cell_of(r) == cell]
                record[lhs] = record[rhs] + 1
                expect_one(bench, committed, faulty, bench, cell, lhs)
    print("\n".join(failures) or "self-test ok: %d files" % len(paths))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--layers", metavar="OUT_DIR")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("fresh_dir", nargs="?")
    parser.add_argument("benches", nargs="*")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.layers:
        return write_layers(args.layers)
    if not args.fresh_dir or not args.benches:
        parser.error("FRESH_DIR and at least one BENCH are required")
    if os.path.realpath(args.fresh_dir) == ROOT:
        parser.error("FRESH_DIR must not be the checkout's root")
    errors, notes = [], []
    for bench in args.benches:
        fresh = os.path.join(args.fresh_dir, "BENCH_%s.json" % bench)
        if not os.path.exists(fresh):
            errors.append("%s: no fresh run at %s" % (bench, fresh))
            continue
        errors += compare(bench, load(os.path.join(
            ROOT, "BENCH_%s.json" % bench)), load(fresh), notes)
    if notes:
        print("\n".join(notes))
    print("\n".join(errors) or "ok: %s match the committed records" %
          ", ".join(args.benches), file=sys.stderr if errors else sys.stdout)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
