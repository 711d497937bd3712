#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload grade|swarm|serve|paper \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (and with it the
library sources in src/) into .bench_build/ with CMake; later calls
only re-run the incremental build. The fsbench binary then runs from
the repository root, its output is passed through, and the last line
of standard output is its JSON result. The exit code is fsbench's:
non-zero when a correctness gate failed, the build failed, or the run
overran its time limit (then no result line is printed).

--selftest proves the gates are not vacuous: each gate is run with one
corrupted expected byte and must fail, every workload must pass
uncorrupted, and the simulated counts of a traced run must repeat
exactly across two runs of one seed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grade", "swarm", "serve", "paper")
RUN_TIMEOUT_S = 170

# Correctness gates and the workload that checks each one.
GATES = {
    "grade.result": "grade",
    "grade.reference": "grade",
    "swarm.anomaly": "swarm",
    "swarm.merge": "swarm",
    "serve.reply": "serve",
    "paper.table4": "paper",
    "paper.fig8": "paper",
}

# Per-layer metrics that are simulated counts: they must repeat exactly
# for one seed.
SIMULATED_COUNTS = (
    "riscv.dbt_translations",
    "riscv.dbt_chain_transfers",
    "riscv.dbt_dispatch_exits",
    "riscv.dbt_flushes",
    "fault.memo_hit_ratio",
    "fault.memo_entries",
    "fault.golden_snapshots",
    "fault.snapshot_mb",
    "swarm.events_per_device",
    "harvest.checkpoints",
    "harvest.failed_checkpoints",
    "dse.front_size",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory whatever
    # the language; the CMake build goes there too.
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                          os.path.join(ROOT, ".bench_build")))


def build():
    """Configure (once) and build fsbench; returns its path or None."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "fsbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "fsbench")


def source_id():
    """Git SHA when the tree is a git checkout, else a content digest."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
            return "git:" + sha
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_fsbench(binary, args, echo=True):
    """Run fsbench from the repo root; returns (exit code, last line)."""
    cmd = [binary] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("fsbench overran %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))
        return 3, None
    lines = stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    return proc.returncode, lines[-1] if lines else None


def parse_result(line):
    try:
        res = json.loads(line)
    except (TypeError, ValueError):
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        return None
    return res


def selftest(binary, seconds):
    sid = source_id()
    problems = []

    def run(workload, seed, trace, corrupt=None):
        args = ["--workload", workload, "--seed", str(seed), "--seconds",
                str(seconds), "--trace", str(trace), "--source-id", sid]
        if corrupt:
            args += ["--corrupt", corrupt]
        code, line = run_fsbench(binary, args, echo=False)
        return code, parse_result(line)

    for workload in WORKLOADS:
        code, res = run(workload, 1, 0)
        ok = code == 0 and res is not None and res["correct"]
        print("clean %-6s: %s" % (workload, "pass" if ok else "FAIL"))
        if not ok:
            problems.append("clean run of %s failed" % workload)
    for gate, workload in GATES.items():
        code, res = run(workload, 1, 0, corrupt=gate)
        caught = code != 0 and res is not None and not res["correct"]
        print("corrupted %-16s: %s" % (gate, "caught" if caught else
                                        "NOT CAUGHT"))
        if not caught:
            problems.append("gate %s did not fail on corrupted data" % gate)
    counts = []
    for _ in range(2):
        code, res = run("grade", 7, 1)
        if code != 0 or res is None:
            problems.append("traced grade run failed")
            break
        counts.append({k: res["metrics"][k]["value"]
                       for k in SIMULATED_COUNTS})
    if len(counts) == 2:
        for k in SIMULATED_COUNTS:
            same = counts[0][k] == counts[1][k]
            print("repeat %-28s %s" % (k, "exact" if same else
                                       "DIFFERS %r vs %r" % (counts[0][k],
                                                             counts[1][k])))
            if not same:
                problems.append("simulated count %s did not repeat" % k)
    for p in problems:
        print("SELFTEST PROBLEM: " + p)
    print("selftest: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.selftest:
        return selftest(binary, min(args.seconds, 2.0))

    code, line = run_fsbench(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--source-id", source_id()])
    if line is None or parse_result(line) is None:
        log("fsbench printed no result line")
        return code or 4
    print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
