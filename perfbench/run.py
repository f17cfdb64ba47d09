#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <fit-cold|serve-refit> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
`.bench_build` under the root when it is unset; build output goes to stderr
so the last line of stdout stays the benchmark's JSON result. The exit code
is the benchmark's own, or the build's when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: the repository's crates are missing", file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        env={**os.environ, "CARGO_TARGET_DIR": target},
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:]], cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
