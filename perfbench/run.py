#!/usr/bin/env python3
"""Runs one gmorph benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call builds the program from
source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls only rebuild what changed. Each run works
in a fresh directory under .perfbench_runs/ with GMORPH_TUNE_DB and the other
GMORPH_* settings unset, so no run reuses a teacher, search result, cache
entry, tuning entry or transcript from another run. The directory is removed
afterwards.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs the
workload twice with the same seed, untraced and then under the tracer
(GMORPH_TRACE), and reports the per-layer metrics: the counts and timings the
benchmark takes around each layer from the untraced run, each layer's self
time derived from the traced run, and the tracing overhead between the two.
Every workload reports every metric of the list it prints; the workload's
other figures go to stderr on one "perfbench details:" line.

The last line of stdout is the JSON result; build and program logs go to
stderr. The exit code is non-zero when the build fails, the program fails, or
a correctness check fails. No result is printed when a run that passed its
checks misses a metric of the list, e.g. self times left out because the
traced run may have lost or torn events (trace.stream_gaps not 0): a lost
child span would be counted as its parent's self time.
"""

import argparse
import collections
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Kernel threads per workload (GMORPH_NUM_THREADS); at most 4 threads run in
# all, counting the serving workers and the load generator.
THREADS = {"search-b1": 1, "infer-zoo": 2, "serve-bert": 1}
# The end-to-end metric tracing overhead is reported against.
PRIMARY = "latency_ms"
# Spans the search emits for its stages (src/core).
STAGES = {
    "search/sample": "sample",
    "eval/verify": "verify",
    "eval/profile": "profile",
    "eval/finetune": "finetune",
    "eval/score": "score",
}
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "gmorph_perfbench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "gmorph_perfbench")


def run_once(binary, args, run_dir, traced):
    """Runs the program in the fresh directory run_dir; returns (exit code, result)."""
    os.makedirs(run_dir)
    env = {k: v for k, v in os.environ.items() if not k.startswith("GMORPH_")}
    env["GMORPH_CACHE_DIR"] = run_dir
    env["GMORPH_NUM_THREADS"] = str(THREADS[args.workload])
    if traced:
        env["GMORPH_TRACE"] = os.path.join(run_dir, "trace.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--run-dir", run_dir]
    if args.inject:
        cmd += ["--inject", args.inject]
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def load_events(run_dir):
    """Complete events of a traced run, as the program streamed them."""
    with open(os.path.join(run_dir, "trace-stream.jsonl")) as f:
        return [ev for ev in map(json.loads, f) if ev.get("ph") == "X"]


def layer_of(name, cat):
    if name.startswith("pb/"):
        return name.split("/")[1]  # the benchmark's own span around a call
    if name.startswith(("search/", "eval/")):
        return "core"
    if name.startswith("node/"):
        return "nn"  # MultiTaskModel::Forward, one span per graph node
    if name.startswith("serving/"):
        return "serving"
    if name == "parallel_for":
        return "kernels"
    if name == "pool/task":
        return "common"
    if cat == "engine":
        return "runtime"  # FusedEngine::Run and its plan steps
    return cat


def self_times(events):
    """Yields (event, self microseconds): duration minus direct children."""
    by_tid = collections.defaultdict(list)
    for ev in events:
        by_tid[ev["tid"]].append(ev)
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, child microseconds, event]
        done = []
        for ev in evs:
            while stack and stack[-1][0] <= ev["ts"]:
                done.append(stack.pop())
            if stack:
                stack[-1][1] += ev["dur"]
            stack.append([ev["ts"] + ev["dur"], 0.0, ev])
        done.extend(stack)
        for _, child, ev in done:
            yield ev, max(0.0, ev["dur"] - child)


def trace_metrics(run_dir, gaps):
    events = load_events(run_dir)
    metrics = {"trace.events": (len(events), "count"), "trace.stream_gaps": (gaps, "count")}
    if gaps:
        log("run.py: the trace stream had %d gaps; self times left out" % gaps)
        return metrics
    layers = collections.defaultdict(float)
    stages = collections.defaultdict(float)
    for ev, self_us in self_times(events):
        layers[layer_of(ev["name"], ev.get("cat", ""))] += self_us
        if ev["name"] in STAGES:
            stages[STAGES[ev["name"]]] += self_us
    for layer, us in layers.items():
        metrics["self.%s_s" % layer] = (us / 1e6, "s")
    for stage in STAGES.values():
        if stages:
            metrics["core.stage.%s_s" % stage] = (stages[stage] / 1e6, "s")
    return metrics


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    })


def measure(binary, args, work, wanted):
    """Runs the workload (twice for --trace 1) under work/; returns
    (correct, untraced result, metrics) or None if a run printed no result."""
    code, plain = run_once(binary, args, os.path.join(work, "plain"), traced=False)
    if plain is None:
        log("run.py: the program printed no result (exit code %d)" % code)
        return None
    correct = plain["correct"] and code == 0
    metrics = {}
    if args.trace:
        traced_dir = os.path.join(work, "traced")
        code, traced = run_once(binary, args, traced_dir, traced=True)
        if traced is None:
            log("run.py: the traced run printed no result (exit code %d)" % code)
            return None
        correct = correct and traced["correct"] and code == 0
        metrics.update(trace_metrics(
            traced_dir, int(traced["metrics"]["trace.stream_gaps"]["value"])))
        metrics["trace.overhead_pct"] = (
            100.0 * (traced["metrics"][PRIMARY]["value"] / plain["metrics"][PRIMARY]["value"] - 1.0),
            "%")
    for name, m in plain["metrics"].items():
        if m["value"] is not None:
            metrics.setdefault(name, (m["value"], m["unit"]))
    # The workload's own metrics beyond the manifest's, for a reader.
    log("perfbench details: " + json.dumps(
        {k: v for k, (v, _) in sorted(metrics.items()) if k not in wanted}))
    missing = sorted(wanted - set(metrics))
    if missing:
        log("run.py: the workload did not report " + ", ".join(missing))
        if correct:
            return None  # a run that passed its checks must report every metric
    return correct, plain, {k: v for k, v in metrics.items() if k in wanted}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default="",
                        help="deliberate fault for the negative tests (selftest.py)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        log("run.py: building the benchmark failed: %s" % err)
        return 1
    runs = os.path.join(ROOT, ".perfbench_runs")
    work = os.path.join(runs, "%s-s%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        result = measure(binary, args, work, wanted)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(runs)
        except OSError:
            pass  # other runs still use it
    if result is None:
        return 1
    correct, final, metrics = result
    print(result_line(correct, final["attempted"], final["failed"], metrics), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
