#!/usr/bin/env python3
"""Gate the whole-query benchmark's deterministic counts.

Usage, from the root of the repository:

    python3 bench/check_counts.py

For every trace mode and workload in the golden file, this runs

    python3 perfbench/run.py --workload W --seed SEED --seconds S --trace T

reads the JSON object on the last line of its output, and compares each
count in the golden file exactly.  The counts (simulated cost, executor
I/O and CPU counters, enumeration and rewrite counts, q-errors) repeat
exactly for a seed; wall time and allocation are not compared.  A
mismatch, or a count missing from a run's metrics, prints one line per
differing count and exits 1; a failed run exits 2.  A change that moves
a count on purpose writes the new values into bench/perf_counts.json.
"""

import json
import os
import subprocess
import sys

GOLDEN = os.path.join("bench", "perf_counts.json")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("check_counts: %s exited %d\n"
                         % (" ".join(cmd), proc.returncode))
        sys.exit(2)
    return json.loads(lines[-1])["metrics"]


def main():
    with open(GOLDEN) as f:
        golden = json.load(f)
    seed, seconds = golden["seed"], golden["seconds"]
    diffs = []
    for trace, workloads in sorted(golden["trace"].items()):
        for workload, counts in workloads.items():
            got = run(workload, seed, seconds, trace)
            for name, want in counts.items():
                if name not in got:
                    diffs.append("%s --trace %s %s: golden %r, missing"
                                 % (workload, trace, name, want))
                    continue
                have = got[name]["value"]
                if have != want:
                    diffs.append("%s --trace %s %s: golden %r, got %r"
                                 % (workload, trace, name, want, have))
            print("%s --trace %s: %d counts checked"
                  % (workload, trace, len(counts)))
    for d in diffs:
        print(d)
    if diffs:
        print("%d counts differ from %s" % (len(diffs), GOLDEN))
        return 1
    print("all counts match %s" % GOLDEN)
    return 0


if __name__ == "__main__":
    sys.exit(main())
