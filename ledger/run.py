#!/usr/bin/env python3
"""Build the ledger benchmark from source and run it.

    python3 ledger/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root (any checkout of it). The first call
configures and builds src/ plus the benchmark program into
.bench_build/ledger; later calls rebuild only what changed. Build
output goes to stderr so the last stdout line stays the program's JSON
result. The exit code is the program's: non-zero when the build fails
or any correctness check does.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "ledger"
OUT = ROOT / ".bench_build" / "ledger-out"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "ledger", "-j",
         jobs],
        stdout=sys.stderr, check=True)


def main():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("ledger: the simulator sources (src/) are not next to "
              "the benchmark; nothing to build", file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"ledger: build failed: {error}", file=sys.stderr)
        return 2
    command = [str(BUILD / "ledger"), *sys.argv[1:],
               "--pins", str(HERE / "pins.tsv"), "--out", str(OUT)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
