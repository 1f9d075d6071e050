#!/usr/bin/env python3
"""Negative tests for the benchmark's correctness checks.

    python3 perfbench/selftest.py [--seconds 2]

Runs infer-zoo and serve-bert once clean and every workload once per
deliberate fault (run.py --inject), one fault for each correctness check. A
clean run must pass its checks and report no failed operation. A faulty run
must end with "correct": false and a non-zero exit code, the check aimed at
must be among the failed ones (its message on stderr), and a fault in an
operation's output must be counted in "failed". Exits non-zero if any
expectation fails. Takes about five minutes, most of it the four search runs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (workload, fault or "" for a clean run, message of the check it must fail,
#  whether an operation's output is at fault and so must count as failed)
CASES = [
    ("infer-zoo", "", "", False),
    # one fused batch-1 logit off by 0.05
    ("infer-zoo", "perturb-logit", "fused batch-1 output differs from eager", True),
    # rows 0 and 1 of a batch-8 output swapped
    ("infer-zoo", "swap-row", "batch-8 row differs from the batch-1 output", True),
    # Profile() FLOPs 20% short of the graph's
    ("infer-zoo", "flops-mismatch", "Profile() step FLOPs disagree", False),
    # one more fallback step counted than the engine has
    ("infer-zoo", "fallback-count", "fallback steps in Profile() != num_fallback_modules()",
     False),
    ("serve-bert", "", "", False),
    # one served logit off by 0.05
    ("serve-bert", "perturb-logit", "served outputs differ from the batch-1 reference", True),
    # two requests of one batch get each other's rows
    ("serve-bert", "swap-row", "served outputs differ from the batch-1 reference", True),
    # one served row never reaches its request
    ("serve-bert", "drop-request", "requests never completed", True),
    # the moderate phase's server sheds every request
    ("serve-bert", "shed-requests", "moderate: the server completed 0 of", True),
    # one request sends a row of no payload
    ("serve-bert", "stray-row", "served rows matched no request", True),
    # found graph's heads zeroed after reload
    ("search-b1", "over-budget", "over the 1% budget", True),
    # one FusedEngine logit off by 0.05
    ("search-b1", "fused-mismatch", "FusedEngine output of the found graph differs", True),
    # a node's stored output shape corrupted after reload
    ("search-b1", "corrupt-shape", "the found graph fails the GraphVerifier", True),
    # found FLOPs taken as 1.5x the original's
    ("search-b1", "more-flops", "more FLOPs than the original", True),
]


def run(workload, fault, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", "0"]
    if fault:
        cmd += ["--inject", fault]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    failures = 0
    for workload, fault, message, op_fault in CASES:
        code, result, stderr = run(workload, fault, args.seconds)
        caught = [l for l in stderr.splitlines() if l.startswith("CHECK FAILED")]
        if result is None:
            ok, detail = False, "no result (exit %d)" % code
        elif fault:
            hit = [l for l in caught if message in l]
            ok = (code != 0 and not result["correct"] and bool(hit)
                  and (result["failed"] > 0) == op_fault)
            detail = "failed %d; %s" % (result["failed"], hit[0] if hit else "expected check "
                                        "did not fail: " + message)
        else:
            ok = code == 0 and result["correct"] and result["failed"] == 0 and not caught
            detail = "exit %d, failed %d" % (code, result["failed"])
        failures += 0 if ok else 1
        print("%-4s %-10s %-15s %s" % ("ok" if ok else "FAIL", workload, fault or "(clean)",
                                        detail), flush=True)
    print("%d of %d cases behaved as expected" % (len(CASES) - failures, len(CASES)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
