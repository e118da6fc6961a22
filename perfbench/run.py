#!/usr/bin/env python3
"""Build and run the cambounds end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload summa_p16k_msgs --seed 1 \
        --seconds 20 --trace 0

The first call configures and builds the library and the benchmark program
into .bench_build/perfbench (a no-op rebuild afterwards).  Build output goes
to stderr; the program's report goes to stdout, whose last line is the JSON
result.  Any argument is passed through to the program (see
perfbench/README.md).  The exit code is the program's: 0 only when every
checked answer was right.  A failed build exits 2 without printing a result.
"""

import os
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
BUILD_DIR = pathlib.Path(".bench_build") / "perfbench"
BUILD_TYPE = "RelWithDebInfo"


def run_quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def build():
    """Configure (once) and build; returns the program path or None."""
    if not (BENCH_DIR.parent / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no library sources next to perfbench/ — "
              "run from a full checkout", file=sys.stderr)
        return None
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_quiet(configure):
            return None
    jobs = str(os.cpu_count() or 1)
    if not run_quiet(["cmake", "--build", str(BUILD_DIR), "--target",
                      "perfbench", "-j", jobs]):
        return None
    program = BUILD_DIR / "perfbench"
    return program if program.is_file() else None


def git_commit():
    """The checkout's commit, or 'unknown' when it is not a git work tree."""
    if not (BENCH_DIR.parent / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=BENCH_DIR, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() \
        else "unknown"


def main():
    program = build()
    if program is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    cmd = [str(program), "--git-commit", git_commit()] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
