#!/usr/bin/env python3
"""Gate the deterministic counters of regenerated bench rows.

Usage:

  tools/run_benches.sh build
  tools/check_bench_counters.py [--ref REV]

tools/run_benches.sh overwrites BENCH_solvers.json, BENCH_state.json and
BENCH_stream.json at the repo root. This script reads those regenerated
files and the checked-in copies at git revision REV (default HEAD), pairs
rows by (workload, n_actions), and fails unless every deterministic field
of every row is equal. Timing fields (wall_seconds, ingest_rate, the
commit-latency quantiles) are not compared, and rows whose result depends
on a wall-clock budget are skipped (EXCLUDED below). A refactor that is
meant to keep behaviour leaves all of these fields alone; a change that
moves one on purpose regenerates and checks in the file.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FILES = ["BENCH_solvers.json", "BENCH_state.json", "BENCH_stream.json"]

# Fields that are a function of the bench's inputs alone.
DETERMINISTIC = [
    "threads", "backend", "schedules_explored", "object_clones",
    "clones_avoided", "bytes_cloned", "moves_proposed", "moves_accepted",
    "best_cost", "dfs_gap", "finished", "pairs_evaluated", "commit_violations",
]

# Fields that hold only for some rows; see EXCLUDED_FIELDS.
STREAM_BATCHING = ["fast_appends", "full_resolves", "stream_epochs",
                   "max_commit_lag"]

# Rows that stop on wall-clock time, so no field of theirs is reproducible:
# bench_solvers runs DFS past 1k actions in a child killed at --dfs-budget
# seconds, and gives local search past 1k actions dfs_budget/20 seconds.
EXCLUDED = {
    ("BENCH_solvers.json", "fages/n10000/dfs"),
    ("BENCH_solvers.json", "fages/n50000/dfs"),
    ("BENCH_solvers.json", "fages/n10000/ls"),
    ("BENCH_solvers.json", "fages/n50000/ls"),
}


def excluded_fields(name, row):
    """Fields of `row` that depend on thread timing.

    bench_stream feeds a threaded StreamDaemon: where its epochs end depends
    on how much the producer has pushed when the consumer drains the ring,
    so epoch counts, commit lag, and — when arrivals interleave across
    replicas or local search re-solves — the fast-append/re-solve split
    vary from run to run. Greedy with replica-at-a-time arrival places every
    action on the fast path however the epochs fall, so those rows keep
    fast_appends and full_resolves.
    """
    if name != "BENCH_stream.json":
        return set()
    if row["workload"].startswith("stream/greedy/flatten"):
        return {"stream_epochs", "max_commit_lag"}
    return set(STREAM_BATCHING)


def load_rows(name, text):
    rows = {}
    for row in json.loads(text):
        key = (row["workload"], row["n_actions"])
        if key in rows:
            sys.exit("%s: duplicate row %s" % (name, key))
        rows[key] = row
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ref", default="HEAD",
                        help="git revision holding the reference files")
    args = parser.parse_args()

    failures = []
    compared = 0
    for name in FILES:
        ref_text = subprocess.run(
            ["git", "-C", ROOT, "show", "%s:%s" % (args.ref, name)],
            check=True, capture_output=True, text=True).stdout
        with open(os.path.join(ROOT, name)) as f:
            new_text = f.read()
        ref = load_rows(name, ref_text)
        new = load_rows(name, new_text)
        for key in sorted(set(ref) | set(new)):
            if (name, key[0]) in EXCLUDED:
                continue
            if key not in ref or key not in new:
                failures.append("%s %s: row only in the %s file" % (
                    name, key, "reference" if key in ref else "regenerated"))
                continue
            skip = excluded_fields(name, ref[key])
            for field in DETERMINISTIC + STREAM_BATCHING:
                if field in skip or field not in ref[key]:
                    continue
                compared += 1
                if new[key].get(field) != ref[key][field]:
                    failures.append("%s %s %s: %r -> %r" % (
                        name, key, field, ref[key][field],
                        new[key].get(field)))

    for line in failures:
        print("COUNTER DRIFT " + line)
    print("%d counter(s) compared, %d differ" % (compared, len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
