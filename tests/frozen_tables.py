#!/usr/bin/env python3
"""Guards the frozen paper tables.

    python3 tests/frozen_tables.py SUITE_BINARY REPO_ROOT

1. Runs `SUITE_BINARY --json --scale small --jobs 2 --opt 1` and requires its
   .tables to equal .suite.tables of BENCH_pr10.json (the same comparison as
   `jq -S .tables`: parsed values, key order ignored).
2. Runs `SUITE_BINARY --scale small --jobs 2` and requires its text report
   to show, in .tables order, every table of BENCH_pr10.json that the run
   emits (all but ablation_opt, which needs --opt 1), every row label
   (workload / name / store) of each, and Table 1's six summary rows with
   the mean, median and maximum of each column over all rows and the C rows.
3. Checks statically that each older baseline is BENCH_pr10.json minus the
   tables added after it, so the whole baseline chain stays anchored to the
   one table set the suite emits today.

Exits non-zero with a diff on the first mismatch. Registered with ctest.
"""
import difflib
import json
import os
import statistics
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


def text_tables(lines):
    """{title: [row cells]} of the fixed-width tables in a text report."""
    tables = {}
    for i, line in enumerate(lines):
        if i + 2 < len(lines) and lines[i + 2].startswith("|"):
            rows = []
            for row in lines[i + 2:]:
                if not row.startswith("|"):
                    break
                if not row.startswith("|-"):
                    rows.append([cell.strip() for cell in row.strip("|").split("|")])
            tables[line] = rows
    return tables


def check_text(suite, pr10):
    out = subprocess.run([suite, "--scale", "small", "--jobs", "2"],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    lines = out.splitlines()
    tables = text_tables(lines)
    ok = True
    last = -1
    for name, table in pr10.items():
        if name == "ablation_opt":
            continue
        for key, rows in table.items():
            if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
                continue
            title = f"tables.{name}.{key}"
            if title not in tables or lines.index(title) < last:
                print(f"FAIL: text report lacks {title}, or shows it out of order")
                ok = False
                continue
            last = lines.index(title)
            labels = [cells[0] for cells in tables[title]]
            for row in rows:
                label = row.get("workload", row.get("name", row.get("store")))
                if label not in labels:
                    print(f"FAIL: {title} lacks row {label}")
                    ok = False

    # Table 1's summary rows against the JSON values they summarise.
    title = "tables.table1_spec_overhead.rows"
    header, *body = tables.get(title, [[]])
    by_label = {cells[0]: cells for cells in body}
    rows = pr10["table1_spec_overhead"]["rows"]
    for scope, lang in (("C/C++", None), ("C only", "C")):
        for stat, reduce in (("Average", statistics.fmean), ("Median", statistics.median),
                             ("Maximum", max)):
            label = f"{stat} ({scope})"
            if label not in by_label:
                print(f"FAIL: {title} lacks summary row {label}")
                ok = False
                continue
            for scheme in rows[0]["overhead_pct"]:
                want = reduce([r["overhead_pct"][scheme] for r in rows
                               if lang is None or r["lang"] == lang])
                got = float(by_label[label][header.index(f"overhead_pct.{scheme}")])
                if abs(got - want) > 0.0005 + 1e-9:
                    print(f"FAIL: {title} {label} {scheme}: {got} != {want:.3f}")
                    ok = False
    return ok


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    suite, root = sys.argv[1], sys.argv[2]
    pr10 = load(root, "BENCH_pr10.json")["suite"]["tables"]

    out = subprocess.run([suite, "--json", "--scale", "small", "--jobs", "2", "--opt", "1"],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    ok = check_equal(pr10, json.loads(out)["tables"], "suite .tables != BENCH_pr10.json")
    ok &= check_text(suite, pr10)

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
    print("suite tables match BENCH_pr10.json, and the text report shows them; "
          "every older baseline is pr10 minus its later tables")


if __name__ == "__main__":
    main()
