#!/usr/bin/env python3
"""The benchmark's own checks. Run from the repository root:

    python3 perfbench/selftest.py

1. A clean mt-servers run reports no wrong cell and correct = true.
2. With one reference record perturbed (--corrupt-record) the same run
   reports failed > 0, so wrong_frac > 0 and correct = false.
3. spec-cells and mt-servers give byte-identical reference records under two
   seeds (the seed only reorders submission); fuzz-cells gives different
   ones (the seed picks the program set).
4. A traced run reports trace.overhead_pct and no cell whose layer self
   times miss its cell span.

Exits 0 when every check holds, 1 otherwise.
"""

import filecmp
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(*args):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                         stdout=subprocess.PIPE, text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def records(workload, seed):
    run.cells(workload, seed, "expect")
    return os.path.join(run.BUILD, "records-%s-%d.txt" % (workload, seed))


def main():
    run.build()
    failures = []

    def check(ok, what):
        print("%s: %s" % ("ok" if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    clean = bench("--workload", "mt-servers", "--seed", "3", "--seconds", "1")
    check(clean["correct"] and clean["failed"] == 0 and clean["attempted"] > 0,
          "clean run has wrong_frac 0")
    bad = bench("--workload", "mt-servers", "--seed", "3", "--seconds", "1",
                "--corrupt-record")
    check(not bad["correct"] and bad["failed"] > 0,
          "corrupted record gives wrong_frac %d/%d > 0" % (bad["failed"], bad["attempted"]))

    for workload in ("spec-cells", "mt-servers"):
        same = filecmp.cmp(records(workload, 1), records(workload, 2), shallow=False)
        check(same, "%s records identical under seeds 1 and 2" % workload)
    differ = not filecmp.cmp(records("fuzz-cells", 1), records("fuzz-cells", 2), shallow=False)
    check(differ, "fuzz-cells records differ under seeds 1 and 2")

    traced = bench("--workload", "fuzz-cells", "--seed", "3", "--seconds", "1", "--trace", "1")
    check(traced["correct"] and "trace.overhead_pct" in traced["metrics"],
          "traced run: self times add up, trace.overhead_pct = %.2f%%"
          % traced["metrics"].get("trace.overhead_pct", {}).get("value", float("nan")))

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
