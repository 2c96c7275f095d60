#!/usr/bin/env python3
"""Build and run the AWEsim benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold_signoff --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src)
in Release mode into the directory named by CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only re-check the build.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  Exits non-zero without a result if the build or the run
fails.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "awesim_perfbench"


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def run_quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_quiet(["cmake", "-S", HERE, "-B", out, *generator,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", out, "--target", TARGET, "-j", jobs])


def source_digest():
    """SHA-256 over the library and benchmark sources, for provenance in
    checkouts that carry no git metadata."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def main():
    out = build_dir()
    if not os.path.isdir(os.path.join(ROOT, "src")) or not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(out, TARGET), *sys.argv[1:], "--bench-dir", HERE]
    if "--self-test" not in sys.argv:
        cmd += ["--commit", commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
