#!/usr/bin/env python3
"""The xfrag performance ledger.

Builds the shipped daemons (xfragd, xfrag_router) and the load generator
from source, then runs one workload:

    python3 perfbench/run.py --workload xfragd_point --seed 1 --seconds 16

and prints a record line (with provenance) followed by the result line
{"correct", "attempted", "failed", "metrics"}. --trace 1 prints the
per-layer metrics instead of the end-to-end ones. `--self-test` checks the
benchmark itself (metric names and units, the exactness gate, seeded
determinism). Run it from the repository root; the build goes to
$CARGO_TARGET_DIR, or .bench_build when that is unset.
"""

import argparse
import filecmp
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# The seed a bare run uses, and a second one that later performance claims
# must also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the daemons and the load generator."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no xfrag sources next to perfbench/ (expected src/CMakeLists.txt)")
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "xfragd",
                    "xfrag_router", "xfrag_perfbench"],
                   check=True, stdout=sys.stderr)
    return out


def cache_value(out, key):
    with open(os.path.join(out, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest():
    """SHA-256 over the sources the benchmark builds (git-free)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def commit():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        if result.returncode == 0:
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def provenance(out, args):
    build_type = cache_value(out, "CMAKE_BUILD_TYPE")
    flags = " ".join(cache_value(out, key) for key in
                     ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE"))
    if build_type != "Release" or "-fsanitize" in flags:
        log("refusing to report numbers from a %s build with flags '%s'" %
            (build_type or "default", flags.strip()))
        sys.exit(2)
    return {"commit": commit(), "source_sha256": source_digest(),
            "build_type": build_type, "cxx_flags": flags.strip(),
            "nproc": os.cpu_count(), "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
            "traced": bool(args.trace)}


def run_workload(out, args, capture=False):
    """Runs one measurement; returns (exit code, stdout lines)."""
    record = json.dumps(provenance(out, args))
    work = os.path.join(out, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [os.path.join(out, "bin", "xfrag_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--bin-dir", os.path.join(out, "bin"), "--work-dir", work,
               "--provenance", record]
    # Its own session, so a timeout can take down the daemons it spawned.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        lines = stdout.splitlines()
        if not capture:
            for line in lines:
                print(line, flush=True)
        return child.returncode, lines
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 124, []
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(work, ignore_errors=True)


def self_test(out):
    """Checks metric names/units, the exactness gate and determinism."""
    failures = []
    scratch = os.path.join(out, "selftest-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    binary = os.path.join(out, "bin", "xfrag_perfbench")
    try:
        # 1. Same seed -> byte-identical snapshots and request bodies.
        dirs = {}
        for label, seed in (("a", 1), ("b", 1), ("c", 2)):
            dirs[label] = os.path.join(scratch, label)
            os.makedirs(dirs[label])
            subprocess.run([binary, "--emit-inputs", dirs[label], "--seed",
                            str(seed)], check=True, timeout=RUN_TIMEOUT_S)
        names = sorted(os.listdir(dirs["a"]))
        same = [filecmp.cmp(os.path.join(dirs["a"], n),
                            os.path.join(dirs["b"], n), shallow=False)
                for n in names]
        differs = any(not filecmp.cmp(os.path.join(dirs["a"], n),
                                      os.path.join(dirs["c"], n),
                                      shallow=False) for n in names)
        if not names or not all(same) or not differs:
            failures.append("inputs are not a pure function of the seed")
        log("determinism: %d files identical for one seed, a second seed "
            "differs: %s" % (sum(same), differs))

        # 2. The exactness gate rejects a planted wrong expectation.
        gate_dir = os.path.join(scratch, "gate")
        os.makedirs(gate_dir)
        gate = subprocess.run([binary, "--self-test-gate", "--work-dir",
                               gate_dir, "--seed", "1"],
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        log("gate: " + gate.stdout.strip())
        if gate.returncode != 0:
            failures.append("exactness gate self-test failed")

        # 3. Every metric of BENCHMARK.json is printed with its unit.
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=spec["workloads"][0]["name"],
                                      seed=DEFAULT_SEED, seconds=2,
                                      trace=trace)
            code, lines = run_workload(out, args, capture=True)
            result = json.loads(lines[-1]) if lines else {"metrics": {}}
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    failures.append("trace %d: %s missing or wrong unit" %
                                    (trace, metric["name"]))
            if code != 0 or not result.get("correct"):
                failures.append("trace %d run failed (exit %d)" % (trace, code))
            log("metrics (trace %d): %d expected, %d printed" %
                (trace, len(spec[section]), len(result["metrics"])))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in failures:
        log("SELF-TEST FAILURE: " + failure)
    log("self-test %s" % ("passed" if not failures else "FAILED"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed: %s" % error)
        return 2
    if args.self_test:
        return self_test(out)
    code, _ = run_workload(out, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
