#!/usr/bin/env python3
"""Builds the benchmark and runs its workloads, each in its own process.

Full run (prints every metric, writes OUT/results.json):
    benchmark/run.sh [--seed N] [--trace] [--workloads a,b] [--out DIR]
One workload (prints one JSON result as the last line of stdout):
    benchmark/run.sh --workload W --seed N --seconds S --trace 0|1

Exit status: 0 ok, 1 build or run error, 2 a correctness check failed.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, "build-bench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
# The default untraced run is expected to take about this long.
BUDGET_WARN_S = 150
# One invocation must finish within this many seconds after its build.
DEADLINE_S = 175


class BenchError(Exception):
    """A failure that ends the run without a result (exit 1)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        raise BenchError("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures and builds into build-bench/; output goes to stderr."""
    targets = ["koios_bench", "verify_test", "koios_serverd"]
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
         "--target"] + targets,
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def binary(name):
    for path in (os.path.join(BUILD_DIR, name),
                 os.path.join(BUILD_DIR, "koios", name)):
        if os.path.exists(path):
            return path
    raise BenchError(name + " was not built")


def run_bounded(cmd, deadline):
    """Runs cmd in a new session until the monotonic `deadline`. Afterwards
    it kills whatever is left of the session's process group, whether cmd
    ran out of time or died and left its koios_serverd child behind, and
    waits for the group to be gone."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("out of time: " + " ".join(cmd))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # An orphaned child is reaped by init; wait until it has been.
        gone_by = time.monotonic() + 3
        while time.monotonic() < gone_by:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.02)


def run_workload(workload, seed, seconds, traced, deadline,
                 chrome_trace=None):
    """Generates the workload's inputs and measures them in a fresh process.

    Returns koios_bench's report: correct, attempted, failed, digest and the
    metric records, plus the wall time of the whole run."""
    work = os.path.join(WORK_DIR, "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    started = time.monotonic()
    try:
        bench = binary("koios_bench")
        gen = [bench, "gen", "--workload", workload, "--seed", str(seed),
               "--dir", work]
        if run_bounded(gen, deadline) != 0:
            raise BenchError("input generation failed for " + workload)
        records = os.path.join(work, "records.json")
        cmd = [bench, "run", "--workload", workload, "--dir", work,
               "--seconds", str(seconds), "--records", records,
               "--serverd", binary("koios_serverd")]
        if traced:
            cmd.append("--traced")
            if chrome_trace:
                cmd += ["--chrome-trace", chrome_trace]
        code = run_bounded(cmd, deadline)
        if code not in (0, 2) or not os.path.exists(records):
            raise BenchError("koios_bench exited %d on %s" % (code, workload))
        with open(records) as f:
            report = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["wall_s"] = time.monotonic() - started
    report["traced"] = traced
    return report


def combine(untraced, traced):
    """End-to-end metrics from the untraced run, layer metrics from the
    traced run when there is one."""
    if traced is None:
        return untraced["records"]
    return ([r for r in untraced["records"] if r["layer"] in ("e2e", "run")] +
            [r for r in traced["records"] if r["layer"] not in ("e2e", "run")])


def one_workload(args, spec):
    """The single-workload form: prints one JSON object as the last line.
    --trace 1 reports the per-layer metrics of one traced run, --trace 0
    the end-to-end metrics of one untraced run."""
    traced = args.trace == "1"
    run = run_workload(args.workload, args.seed, args.seconds, traced,
                       time.monotonic() + DEADLINE_S)
    records = {r["metric"]: r for r in run["records"]}
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in records:
            raise BenchError("%s did not report %s" % (args.workload, m["name"]))
        metrics[m["name"]] = {"value": records[m["name"]]["value"],
                              "unit": m["unit"]}
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0 if run["correct"] else 2


def host_header(args, seconds):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "hardware_threads": os.cpu_count(),
            "cpu_model": cpu, "build_type": "Release", "seed": args.seed,
            "seconds": seconds, "mode": "traced" if args.trace else "untraced"}


def full_run(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    unknown = [w for w in chosen if w not in names]
    if unknown:
        raise BenchError("unknown workloads: " + ", ".join(unknown))
    seconds = spec["run_seconds"]
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)

    started = time.monotonic()
    reports, records, failures = {}, [], []
    for w in chosen:
        untraced = run_workload(w, args.seed, seconds, False,
                                time.monotonic() + DEADLINE_S)
        traced = None
        if args.trace:
            traced = run_workload(w, args.seed, seconds, True,
                                  time.monotonic() + DEADLINE_S,
                                  os.path.join(out, "trace_%s.json" % w))
        reports[w] = [r for r in (untraced, traced) if r is not None]
        records += combine(untraced, traced)
        for r in reports[w]:
            failures += ["%s: %s" % (w, e) for e in r["errors"]]
            if not r["correct"] and not r["errors"]:
                failures.append(w + ": correctness check failed")
        log("[time] %s: %.1f s" % (w, sum(r["wall_s"] for r in reports[w])))
    total = time.monotonic() - started

    # Sharding must not move a single result bit.
    if "wdc-serial" in reports and "wdc-shard4" in reports:
        serial = reports["wdc-serial"][0]["digest"]
        sharded = reports["wdc-shard4"][0]["digest"]
        if serial != sharded:
            failures.append("wdc-shard4 result digest %s != wdc-serial's %s"
                            % (sharded, serial))

    for r in records:
        print("%s %s %.6g %s" % (r["workload"], r["metric"], r["value"],
                                 r["unit"]))
    result = {
        "header": host_header(args, seconds),
        "runs": [{"workload": w, "traced": r["traced"], "correct": r["correct"],
                  "attempted": r["attempted"], "failed": r["failed"],
                  "digest": r["digest"], "wall_s": r["wall_s"]}
                 for w, rs in reports.items() for r in rs],
        "records": records,
    }
    with open(os.path.join(out, "results.json"), "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    log("[time] total: %.1f s; results in %s" % (total, out))
    if not args.trace and not args.workloads and total > BUDGET_WARN_S:
        log("WARNING: the default run took %.0f s, over its %d s budget"
            % (total, BUDGET_WARN_S))
    for failure in failures:
        log("CHECK FAILED: " + failure)
    return 2 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "out"))
    parser.add_argument("--workload", help="run one workload")
    parser.add_argument("--seconds", type=float)
    # "--trace" alone for a full run; "--trace 0|1" with --workload.
    parser.add_argument("--trace", nargs="?", const="1", default=None,
                        choices=["0", "1"])
    args = parser.parse_args()
    try:
        spec = load_spec()
        build()
        if subprocess.run([binary("verify_test")], stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("CHECK FAILED: verify_test")
            return 2
        if args.workload:
            if args.workload not in [w["name"] for w in spec["workloads"]]:
                raise BenchError("unknown workload " + args.workload)
            if args.seconds is None:
                args.seconds = spec["run_seconds"]
            return one_workload(args, spec)
        args.trace = args.trace == "1"
        return full_run(args, spec)
    except BenchError as e:
        log("koios benchmark: " + str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
