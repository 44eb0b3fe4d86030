#!/usr/bin/env python3
"""Build paperbench from this checkout's sources and run one workload.

    python3 paperbench/run.py --workload table1_gnm --seed 1 --seconds 30 --trace 0

The build (CMake, Release) goes to .bench_build/paperbench under the checkout
root and is incremental, so only the first run compiles. Build output goes to
stderr, which keeps the benchmark's JSON result the last line of stdout.
Every argument is passed through to the paperbench binary (see the header of
paperbench.cpp); its exit code is returned.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "paperbench"
BINARY = BUILD / "paperbench"
RUN_TIMEOUT_S = 175


def build():
    """Configure once, then build incrementally; exits non-zero on failure."""
    if not (ROOT / "src" / "engine" / "engine.hpp").is_file():
        sys.exit(f"paperbench: no ncc sources under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                       "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))])
    # Compiler scratch files stay inside the build directory too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            sys.exit("paperbench: build failed: " + " ".join(cmd))


def main():
    build()
    try:
        return subprocess.run([str(BINARY), *sys.argv[1:]], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"paperbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
