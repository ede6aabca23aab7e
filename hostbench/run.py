#!/usr/bin/env python3
"""Build and run the host end-to-end benchmark.

usage:
  python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 hostbench/run.py --selftest

Run from the repository root.  The first call configures and builds
hostbench/ (which compiles the libraries under src/) into
$CARGO_TARGET_DIR/hostbench, or .bench_build/hostbench when the variable
is unset; later calls rebuild incrementally.  Build output goes to
stderr.  Run records (machine, metrics, spans) go to .bench_out/.  The
last line of stdout is the benchmark's JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under src/; run from a full checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "hostbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "hostbench",
           "-j", str(min(os.cpu_count() or 1, 4))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "hostbench")


def check_metric_tables(binary):
    """The binary's metric tables must match BENCHMARK.json."""
    import json
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = [("end_to_end", m["name"], m["unit"]) for m in spec["end_to_end"]]
    want += [("per_layer", m["name"], m["unit"]) for m in spec["per_layer"]]
    out = subprocess.run([binary, "--list-metrics"], capture_output=True,
                         text=True, check=True).stdout
    got = [tuple(line.split()) for line in out.splitlines()]
    if got != want:
        fail("metric tables differ from BENCHMARK.json:\n  binary: %s\n  "
             "BENCHMARK.json: %s" % (got, want))
    print("metric tables match BENCHMARK.json (%d metrics)" % len(got))


def main(argv):
    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    if argv == ["--selftest"]:
        check_metric_tables(binary)
    try:
        proc = subprocess.run([binary] + argv + ["--out-dir", out_dir],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
