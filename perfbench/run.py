#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]

Run from the root of the repository. The benchmark is a Cargo package of
its own (perfbench/Cargo.toml) that depends on the repository's crates by
path; it is built in release mode into $CARGO_TARGET_DIR (default
.bench_build). The binary prints a readable summary and, as its last line,
one JSON object; this script passes that through after checking that the
metric names match BENCHMARK.json. NOTES.md describes the workloads and
metrics.

The octoctl-tree workload keeps its files in .perfbench-out/tree. Where the
host allows a private mount namespace, this script mounts a tmpfs there for
the run, so the tree's copies and fsyncs never reach a disk; the mount
disappears with the benchmark process.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Where the binary puts the octoctl-tree files, relative to ROOT.
TREE_DIR = os.path.join(".perfbench-out", "tree")
# Run by `sh -c` with $0 = TREE_DIR and "$@" = the command to run on it.
MOUNT_TMPFS = 'mount -t tmpfs -o size=384m perfbench-tree "$0" && exec "$@"'


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def on_private_tmpfs(cmd):
    """`cmd` wrapped to run in a new mount namespace with a tmpfs on
    TREE_DIR: as root, or else as root of a new user namespace. Without
    either, `cmd` itself, and the tree stays on the checkout's filesystem."""
    os.makedirs(os.path.join(ROOT, TREE_DIR), exist_ok=True)
    for unshare in (["unshare", "--mount"],
                    ["unshare", "--mount", "--map-root-user"]):
        wrap = unshare + ["sh", "-c", MOUNT_TMPFS, TREE_DIR]
        try:
            probe = subprocess.run(wrap + ["true"], cwd=ROOT,
                                   stdout=subprocess.DEVNULL,
                                   stderr=subprocess.DEVNULL)
        except OSError:
            break
        if probe.returncode == 0:
            return wrap + cmd
    print("perfbench: cannot mount a private tmpfs; the octoctl-tree files "
          "stay on the checkout's filesystem", file=sys.stderr)
    return cmd


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(ROOT, target, "release", "perfbench")] + args
    if "octoctl-tree" in args:
        cmd = on_private_tmpfs(cmd)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    want = expected_metrics(trace)
    if list(result["metrics"]) != want:
        print(f"perfbench: metrics {list(result['metrics'])} do not match "
              f"BENCHMARK.json {want}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
