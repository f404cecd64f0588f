#!/usr/bin/env python3
"""Build and run the ECoST end-to-end benchmark.

    python3 e2ebench/run.py --workload <trace_lkt|trace_reptree|oracle_service> \
        --seed <n> --seconds <s> --trace <0|1> [--spans <file>]

Run from the repository root. The script builds this package, and the
repository crates it uses, in release mode (into $CARGO_TARGET_DIR, or
.bench_build by default), then runs one workload on one thread. The last
line of standard output is the JSON result; progress goes to stderr. The
exit code is the benchmark's: 0 on success, 1 when an output check fails,
2 on bad arguments, a program error or a failed build.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target, RAYON_NUM_THREADS="1")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "ecost-e2ebench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
