#!/usr/bin/env python3
"""End-to-end benchmark of tdx_cli, with a traced per-layer breakdown.

Run from the root of a tdx source tree:

    python3 perfbench/run.py --workload employment --seed 1 --seconds 45 --trace 0

The first run builds tdx_cli and the helper binaries tdx_perf and calibrate
from source (CMake, default RelWithDebInfo) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. Then, per run:

* set-up, repeated SETUP_REPS times: generate the workload's .tdx program
  from the seed, compute the reference outputs in-process (tdx_perf
  reference), and warm up with one CLI `chase`. The first repetition also
  checks the reference result; the checks are not part of setup_s;
* --trace 0: closed loop, one command at a time, for --seconds: `chase`,
  `query` and `query-at --jobs=J` run as child processes on default flags,
  and after them the host-speed probe `calibrate` (calibrate.cc); every
  stdout is read in full and its digest must equal the reference. Each
  command's metric is the median wall time of its invocations in the run
  over the median wall time of the probe's, so that the host's drift
  cancels; the metadata line keeps each command's and the probe's count,
  minimum, median and maximum wall time in seconds;
* --trace 1: the same CLI `chase` for a quarter of --seconds (CPU time and
  wall for the process metrics), then tdx_perf profile alternates untraced
  and traced in-process runs of the three commands for the rest; the
  per-layer metrics are medians over its repetitions.

The last stdout line is the result object {correct, attempted, failed,
metrics}; the line before it records the run's metadata. Metric names and
units come from BENCHMARK.json. Exits 1 without a result when the program
cannot be built or set up.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
BUILD_TYPE = "RelWithDebInfo"
# -O3 Release is not used: with TDX_WERROR it fails on GCC 12
# (-Werror=restrict in src/common/value.cc).
BUILD_NOTE = "RelWithDebInfo (default); Release fails on GCC 12 with -Werror=restrict"
SETUP_REPS = 3
# The chase command's share of a traced run; tdx_perf profile gets the rest.
TRACE_CLI_SHARE = 0.25
COMMANDS = ("chase", "query", "query_at")
# The end-to-end metric of each command: its median wall time over the
# probe's.
RELATIVE = {"chase": "exchange_rel", "query": "query_rel",
            "query_at": "snapshot_query_rel"}


class SetupError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def jobs():
    return min(4, nproc())


def run_checked(argv, what):
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SetupError(f"{what} failed with exit code {proc.returncode}")
    return proc.stdout


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SetupError(f"no tdx source tree around {PERFBENCH}")
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", PERFBENCH, "-B", cmake_dir,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], "cmake configure")
    run_checked(["cmake", "--build", cmake_dir, "--target", "tdx_cli",
                 "tdx_perf", "calibrate", "-j", str(jobs())], "cmake build")
    return (os.path.join(cmake_dir, "tdx", "tools", "tdx_cli"),
            os.path.join(cmake_dir, "tdx_perf"),
            os.path.join(cmake_dir, "calibrate"))


def spawn(argv):
    """Runs one child to exit; returns (exit code, stdout, wall s, rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage


def digest(data):
    return hashlib.sha256(data).hexdigest()


class Workload:
    """One generated program, its reference digests and its commands."""

    def __init__(self, name, seed, work_dir, cli, perf, calibrate):
        self.name = name
        self.seed = seed
        self.dir = os.path.join(work_dir, f"{name}-{seed}")
        self.file = os.path.join(self.dir, f"{name}.tdx")
        self.cli = cli
        self.perf = perf
        self.calibrate = calibrate
        self.expected = {}
        self.checks = {}
        self.info = {}

    def commands(self):
        query, points = self.info["query"], [str(p) for p in self.info["points"]]
        return {
            "chase": [self.cli, "chase", self.file],
            "query": [self.cli, "query", self.file, query],
            "query_at": [self.cli, "query-at", self.file, query, *points,
                         f"--jobs={jobs()}"],
            "calibrate": [self.calibrate],
        }

    def set_up(self, check):
        """Generate, compute references, warm up; returns seconds.

        With `check`, also runs the output checks on the reference result,
        whose time is left out of the seconds returned."""
        start = time.perf_counter()
        os.makedirs(self.dir, exist_ok=True)
        self.info = json.loads(run_checked(
            [self.perf, "gen", self.name, str(self.seed), self.file], "gen"))
        reference = json.loads(run_checked(
            [self.perf, "reference", self.name, str(self.seed), self.file,
             str(jobs()), self.dir] + (["--check"] if check else []),
            "reference"))
        if check:
            self.checks = reference["checks"]
        for name in COMMANDS:
            with open(os.path.join(self.dir, f"{name}.out"), "rb") as f:
                self.expected[name] = digest(f.read())
        # The probe prints the same checksum every time; its first run also
        # pages it in.
        code, out, _, _ = spawn(self.commands()["calibrate"])
        if code != 0:
            raise SetupError(f"calibrate failed with exit code {code}")
        self.expected["calibrate"] = digest(out)
        # One CLI run pages in the binary; every command shares it.
        if not self.invoke("chase", self.commands()["chase"])[0]:
            raise SetupError("warm-up chase failed its output check")
        return time.perf_counter() - start - reference.get("checks_s", 0)

    def invoke(self, name, argv):
        """Times one CLI invocation; returns (ok, wall s, rusage)."""
        code, out, wall, usage = spawn(argv)
        ok = code == 0 and digest(out) == self.expected[name]
        return ok, wall, usage


def end_to_end(wl, seconds, setup_times):
    commands = wl.commands()
    samples = {name: [] for name in commands}
    rss_mb = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        for name, argv in commands.items():
            ok, wall, usage = wl.invoke(name, argv)
            attempted += 1
            if not ok:
                failed += 1
                continue
            samples[name].append(wall)
            if name == "chase":
                rss_mb.append(usage.ru_maxrss * 1024 / 1e6)  # KiB on Linux
    if not all(samples.values()):
        raise SetupError("a command failed on every invocation")
    probe_s = statistics.median(samples["calibrate"])
    values = {RELATIVE[name]: statistics.median(samples[name]) / probe_s
              for name in COMMANDS}
    values["peak_rss_mb"] = statistics.median(rss_mb)
    values["setup_s"] = statistics.median(setup_times)
    return values, attempted, failed, {
        name: summary(v) for name, v in samples.items()}


def summary(samples):
    return {"n": len(samples), "min": min(samples),
            "median": statistics.median(samples), "max": max(samples)}


def per_layer(wl, seconds):
    argv = wl.commands()["chase"]
    walls, cpus = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds * TRACE_CLI_SHARE
    while attempted == 0 or time.perf_counter() < deadline:
        ok, wall, usage = wl.invoke("chase", argv)
        attempted += 1
        if not ok:
            failed += 1
            continue
        walls.append(wall)
        cpus.append(usage.ru_utime + usage.ru_stime)

    if not walls:
        raise SetupError("chase failed on every invocation")
    remaining = max(1, round(seconds * (1 - TRACE_CLI_SHARE)))
    lines = run_checked([wl.perf, "profile", wl.name, wl.file, str(jobs()),
                         str(remaining)], "profile").splitlines()
    reps = [json.loads(line) for line in lines]
    attempted += len(reps)
    values = {}
    for key in reps[0]["layers"]:
        values[key] = statistics.median(r["layers"][key] for r in reps)
    values["cli.cpu_s"] = statistics.median(cpus)
    # Fastest against fastest: the least disturbed invocation of each.
    values["cli.unattributed_s"] = min(walls) - min(
        r["untraced_chase_s"] for r in reps)
    return values, attempted, failed, {"chase": summary(walls),
                                       "profile_reps": len(reps)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SetupError(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    cli, perf, calibrate = build(build_dir)
    wl = Workload(args.workload, args.seed, os.path.join(build_dir, "work"),
                  cli, perf, calibrate)
    setup_times = [wl.set_up(rep == 0)
                   for rep in range(1 if args.trace else SETUP_REPS)]

    if args.trace:
        values, attempted, failed, samples = per_layer(wl, args.seconds)
    else:
        values, attempted, failed, samples = end_to_end(wl, args.seconds,
                                                        setup_times)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SetupError(f"metrics not produced: {missing}")

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": nproc(), "jobs": jobs(),
        "compiler": wl.info["compiler"], "build_type": BUILD_TYPE,
        "build_note": BUILD_NOTE, "input_bytes": wl.info["bytes"],
        "checks": wl.checks, "samples": samples,
    }
    print(json.dumps({"meta": meta}))
    result = {
        "correct": failed == 0 and bool(wl.checks) and all(wl.checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (SetupError, OSError, KeyError, ValueError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        sys.exit(1)
