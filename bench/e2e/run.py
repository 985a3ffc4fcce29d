#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source, then runs it.

    python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/e2e/run.py --compare A*.json -- B*.json

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, under the
repository root (Release; only the libraries, insta_cli and bench_e2e). Build
output goes to stderr, so the benchmark's last stdout line stays its result
object. Every argument is passed through to bench_e2e.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def build(build_dir: Path) -> None:
    def run(cmd):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))

    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
         "insta_cli", "-j", jobs])


def main() -> None:
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(build_dir)
    bench = build_dir / "bin" / "bench_e2e"
    args = sys.argv[1:]
    if "--benchmark" not in args:
        args += ["--benchmark", str(ROOT / "BENCHMARK.json")]
    sys.stdout.flush()
    os.execv(str(bench), [str(bench)] + args)


if __name__ == "__main__":
    main()
