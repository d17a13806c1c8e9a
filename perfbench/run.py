#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Configures a Release tree of perfbench/CMakeLists.txt (which builds the
library sources in src/) under $CARGO_TARGET_DIR, or .bench_build when it
is unset, builds the perfbench binary and runs it. The binary prints the
report; this script passes it through and replaces its last line with the
metrics BENCHMARK.json names: the end_to_end list for --trace 0, the
per_layer list for --trace 1. It exits non-zero, without a result line,
when the build, the run or the output check fails or a listed metric is
missing.
"""

import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def wanted_metrics(root, traced):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main(argv):
    root = os.getcwd()
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(root, os.path.join(build_dir, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 1
    if "--self-test" in argv:
        return subprocess.run([binary, "--self-test"]).returncode

    traced = False
    if "--trace" in argv:
        index = argv.index("--trace")
        traced = index + 1 < len(argv) and argv[index + 1] == "1"
    try:
        wanted = wanted_metrics(root, traced)
    except (OSError, ValueError, KeyError) as error:
        log(f"cannot read BENCHMARK.json: {error}")
        return 1

    try:
        run = subprocess.run(
            [binary, *argv, "--out-dir", os.path.dirname(binary)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
        log(f"perfbench exited with {run.returncode}")
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line of the report is not a JSON result")
        return 1
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        log(f"metrics missing from the report: {', '.join(missing)}")
        return 1
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
