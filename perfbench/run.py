#!/usr/bin/env python3
"""The repo benchmark: builds a release CubicleOS and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload web-bulk --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is
non-zero when any output check failed or the run could not be made.

The build is configured from perfbench/CMakeLists.txt alone (Release,
CUBICLE_LOCKDEP off) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. Each run also writes a results file with its
provenance and every metric measured to .bench_build/results/, and a
traced run writes its spans as Chrome trace-event JSON to
.bench_build/traces/ (open it at ui.perfetto.dev).

--check-repeat runs the workload twice with one seed and checks that
every count and the modelled time agree exactly (single-threaded
workloads only).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["web-tenants", "web-bulk", "sql-mixed", "xcall-mt"]

# End-to-end metrics (name, unit), printed with --trace 0.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("model_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics (name, unit), printed with --trace 1. A metric of a
# layer the workload does not reach reads 0.
PER_LAYER = [
    ("core.xcall.calls_per_op", "count"),
    ("core.xcall.wrpkru_per_op", "count"),
    ("core.xcall.call_ns", "ns"),
    ("core.touch.reclaim_ns", "ns"),
    ("core.grant_cache.hits_per_op", "count"),
    ("core.trap.traps_per_op", "count"),
    ("core.trap.retags_per_op", "count"),
    ("core.trap.retag_pages_per_op", "count"),
    ("core.trap.prestage_pages_per_op", "count"),
    ("core.window.ops_per_op", "count"),
    ("core.ring.calls_per_flush", "count"),
    ("core.keytable.tag_hit_pct", "%"),
    ("core.keytable.evictions_per_op", "count"),
    ("core.keytable.fault_in_pages_per_op", "count"),
    ("core.edge.nginx.lwip", "count"),
    ("core.edge.nginx.vfscore", "count"),
    ("core.edge.lwip.netdev", "count"),
    ("core.edge.vfscore.ramfs", "count"),
    ("core.edge.ramfs.alloc", "count"),
    ("core.edge.sqlite.vfscore", "count"),
    ("core.edge.tenant.lwip", "count"),
    ("core.edge.tenant.vfscore", "count"),
    ("core.edge.tenant.tlog", "count"),
    ("core.edge.tenant.alloc", "count"),
    ("core.edge.worker.srv", "count"),
    ("hw.pkey_mprotect_per_op", "count"),
    ("libos.copies_per_op", "count"),
    ("libos.copy_bytes_per_op", "B"),
    ("libos.zero_copy_bytes_per_op", "B"),
    ("libos.tcpip.client_segs_per_op", "count"),
    ("libos.tcpip.retransmits_per_op", "count"),
    ("libos.netdev.frames_per_op", "count"),
    ("apps.httpd.poll_rounds_per_op", "count"),
    ("apps.minisql.pager.hit_pct", "%"),
    ("apps.minisql.pager.reads_per_op", "count"),
    ("apps.minisql.pager.writes_per_op", "count"),
    ("model.trap_us", "us"),
    ("model.retag_us", "us"),
    ("model.switch_us", "us"),
    ("model.other_us", "us"),
    ("loadgen.client_us_per_op", "us"),
    ("setup.boot_s", "s"),
    ("setup.populate_s", "s"),
    ("failed_ops_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.self_us.loadgen.request", "us"),
    ("trace.self_us.loadgen.op", "us"),
    ("trace.self_us.loadgen.client", "us"),
    ("trace.self_us.loadgen.check", "us"),
    ("trace.self_us.apps.httpd.poll", "us"),
    ("trace.self_us.apps.minisql.exec", "us"),
    ("trace.self_us.core.xcall.call", "us"),
    ("trace.self_us.core.touch.reclaim", "us"),
    ("trace.sample_deploy_accounted_pct", "%"),
    ("trace.sample_request_accounted_pct", "%"),
]

# Metrics counted over the fixed window of ops: identical for one seed
# on a single-threaded workload.
REPEATABLE_PREFIXES = ("core.", "hw.", "libos.", "apps.", "model.",
                       "model_us_per_op")
NOT_REPEATABLE = {"core.xcall.call_ns", "core.touch.reclaim_ns"}

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "src"))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "perfbench")


def build():
    """Configures (once) and builds the release program; returns its path."""
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def git_sha():
    if not os.path.isdir(".git"):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_sha():
    """SHA-256 over the sources measured: src/ and perfbench/."""
    h = hashlib.sha256()
    for top in (SRC, HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, os.path.dirname(SRC)).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_program(exe, args, trace_out):
    """Runs the program once; returns (provenance, result, exit code)."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=args.seconds + 150)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    provenance, result = {}, None
    for line in lines:
        if line.startswith('{"provenance"'):
            provenance = json.loads(line)["provenance"]
        elif line.startswith('{"correct"'):
            result = json.loads(line)
        else:
            print(line)
    return provenance, result, proc.returncode


def check_repeat(exe, args):
    """Two runs, one seed: every counted metric must agree exactly."""
    if args.workload == "xcall-mt":
        log("--check-repeat: xcall-mt is multi-threaded, its counts vary")
        return 2
    runs = []
    for _ in range(2):
        _, result, rc = run_program(exe, args, None)
        if result is None or rc != 0:
            log("--check-repeat: run failed")
            return 1
        runs.append({k: v["value"] for k, v in result["metrics"].items()
                     if k.startswith(REPEATABLE_PREFIXES)
                     and k not in NOT_REPEATABLE})
    diff = sorted(k for k in set(runs[0]) | set(runs[1])
                  if runs[0].get(k) != runs[1].get(k))
    for k in diff:
        log("differs: %s %r vs %r" % (k, runs[0].get(k), runs[1].get(k)))
    print(json.dumps({"repeat_identical": not diff,
                      "metrics_compared": len(runs[0])}))
    return 1 if diff else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--check-repeat", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    if not os.path.isfile(os.path.join(SRC, "core", "system.h")):
        log("perfbench: the CubicleOS sources (%s) are missing" % SRC)
        return 2
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    if args.check_repeat:
        return check_repeat(exe, args)

    results_dir = os.path.join(os.path.dirname(build_dir()), "results")
    traces_dir = os.path.join(os.path.dirname(build_dir()), "traces")
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    trace_out = None
    if args.trace:
        os.makedirs(traces_dir, exist_ok=True)
        trace_out = os.path.join(traces_dir, stem + ".json")

    try:
        provenance, result, rc = run_program(exe, args, trace_out)
    except subprocess.TimeoutExpired:
        log("perfbench: the run did not finish in time")
        return 1
    if result is None:
        log("perfbench: the program printed no result (exit %d)" % rc)
        return 1

    measured = result["metrics"]
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in wanted:
        if name in measured:
            metrics[name] = {"value": measured[name]["value"], "unit": unit}
            if measured[name]["unit"] != unit:
                result["errors"].append("metric %s measured in %s" %
                                        (name, measured[name]["unit"]))
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            result["errors"].append("metric %s was not measured" % name)
    listed = {name for name, _ in PER_LAYER}
    unlisted = sorted(k for k in measured
                      if k.startswith("core.edge.") and k not in listed)
    if unlisted:
        log("perfbench: call edges outside the metric list: %s" % unlisted)

    correct = (result["correct"] and rc == 0 and not result["errors"]
               and result["failed"] == 0)
    run_index = 1 + sum(1 for f in os.listdir(results_dir)
                        if f.startswith(stem + "-"))
    provenance.update({
        "git_sha": git_sha(),
        "source_sha256": source_sha(),
        "run_index": run_index,
        "setup_reps": 5,
        "python": sys.version.split()[0],
    })
    record = {"provenance": provenance, "correct": correct,
              "attempted": result["attempted"], "failed": result["failed"],
              "errors": result["errors"], "metrics": measured,
              "trace_file": trace_out}
    with open(os.path.join(results_dir, "%s-%d.json" % (stem, run_index)),
              "w") as f:
        json.dump(record, f, indent=1)
    for e in result["errors"]:
        log("CHECK FAILED: %s" % e)

    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
