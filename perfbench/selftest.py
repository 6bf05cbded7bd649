#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs two workloads briefly against the committed digests (every
operation must pass), then against a copy with one digest altered: a
binary's stdout digest for repro_bespoke and one serve key's cell digest
for serve_warm. Each altered run must report failed > 0, so fail_frac
moves off 0, and correct: false. Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, digests):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seconds", "1",
         "--digests", digests], stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, cwd=ROOT, timeout=170)
    lines = out.stdout.decode().strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    altered_path = os.path.join(ROOT, ".bench_build", "selftest-digests.json")
    ok = True
    for workload, section, key in (("repro_bespoke", "repro_bespoke",
                                    "fig1_three_cs"),
                                   ("serve_warm", "serve", "200000")):
        base = run(workload, os.path.join(HERE, "digests.json"))
        good = base is not None and base["failed"] == 0 and base["correct"]
        print("%-14s committed digests: %s" % (
            workload, "ok" if good else "FAIL %r" % base))
        altered = json.loads(json.dumps(digests))
        altered[section][key] = "0" * len(altered[section][key])
        with open(altered_path, "w") as f:
            json.dump(altered, f)
        bad = run(workload, altered_path)
        caught = (bad is not None and bad["failed"] > 0
                  and bad["failed"] / bad["attempted"] > 0
                  and not bad["correct"])
        print("%-14s altered %s/%s: %s" % (
            workload, section, key,
            "fail_frac %.3f (%d of %d)" % (bad["failed"] / bad["attempted"],
                                           bad["failed"], bad["attempted"])
            if caught else "NOT CAUGHT %r" % bad))
        ok = ok and good and caught
    os.remove(altered_path)
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
