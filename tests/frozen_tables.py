#!/usr/bin/env python3
"""Guards the frozen paper tables.

    python3 tests/frozen_tables.py SUITE_BINARY REPO_ROOT

1. Runs `SUITE_BINARY --json --scale small --jobs 2 --opt 1` and requires its
   .tables to equal .suite.tables of BENCH_pr10.json (the same comparison as
   `jq -S .tables`: parsed values, key order ignored).
2. Checks statically that each older baseline is BENCH_pr10.json minus the
   tables added after it, so the whole baseline chain stays anchored to the
   one table set the suite emits today.

Exits non-zero with a diff on the first mismatch. Registered with ctest.
"""
import difflib
import json
import os
import subprocess
import sys

# Baseline -> the tables added after it (each set is cumulative).
LATER_TABLES = {
    "BENCH_pr9.json": ["table_composites"],
    "BENCH_pr8.json": ["table_composites", "ablation_churn"],
    "BENCH_pr6.json": ["table_composites", "ablation_churn", "ablation_shards"],
    "BENCH_pr5.json": ["table_composites", "ablation_churn", "ablation_shards"],
    "BENCH_pr4.json": ["table_composites", "ablation_churn", "ablation_shards",
                       "table4_concurrent", "ripe_concurrent"],
    "BENCH_pr3.json": ["table_composites", "ablation_churn", "ablation_shards",
                       "table4_concurrent", "ripe_concurrent", "ablation_opt"],
}

# The pre-suite baselines hold two standalone reports; their payloads must
# equal the matching suite tables.
SEED_PAYLOADS = [("table1_spec_overhead", "rows"), ("mem_overhead", "stores")]


def load(root, name):
    with open(os.path.join(root, name)) as f:
        return json.load(f)


def check_equal(want, got, what):
    if want == got:
        return True
    a = json.dumps(want, indent=1, sort_keys=True).splitlines()
    b = json.dumps(got, indent=1, sort_keys=True).splitlines()
    sys.stdout.writelines(
        line + "\n" for line in difflib.unified_diff(a, b, "want", "got", lineterm=""))
    print(f"FAIL: {what}")
    return False


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    suite, root = sys.argv[1], sys.argv[2]
    pr10 = load(root, "BENCH_pr10.json")["suite"]["tables"]

    out = subprocess.run([suite, "--json", "--scale", "small", "--jobs", "2", "--opt", "1"],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    ok = check_equal(pr10, json.loads(out)["tables"], "suite .tables != BENCH_pr10.json")

    for name, later in LATER_TABLES.items():
        want = {k: v for k, v in pr10.items() if k not in later}
        ok &= check_equal(want, load(root, name)["suite"]["tables"],
                          f"{name} != BENCH_pr10.json minus {', '.join(later)}")

    for name in ("BENCH_seed.json", "BENCH_pr2.json"):
        old = load(root, name)
        for table, key in SEED_PAYLOADS:
            ok &= check_equal(pr10[table][key], old[table][key],
                              f"{name} .{table}.{key} != BENCH_pr10.json's")

    if not ok:
        sys.exit(1)
    print("suite tables match BENCH_pr10.json; every older baseline is pr10 minus its later tables")


if __name__ == "__main__":
    main()
