#!/usr/bin/env python3
"""Build the photon-rs benchmark from source and run one workload.

    python3 perfbench/run.py --workload pwc_fdr|dht_fdr|sock_loopback \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is a cargo package of its own
(perfbench/Cargo.toml) that builds against the repository's crates by
path; cargo's output goes to stderr so the binary's last stdout line, a
JSON object with "correct", "attempted", "failed" and "metrics", is the
last line this script prints. Build artifacts go to $CARGO_TARGET_DIR
(default perfbench/target); traced runs write their spans to
perfbench/out/trace_<workload>.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
