#!/usr/bin/env python3
"""Benchmark entry point: builds onll_server and the kvbench binary, runs one
workload, and prints the result as the last line of stdout.

    python3 kvbench/run.py --workload put_hot|get_mostly \
        --seed N --seconds S --trace 0|1

Run it from the repository root. `--trace 0` reports the end-to-end metrics
named in BENCHMARK.json against a spawned server process; `--trace 1` reports
the per-layer metrics. The servers' stores go on a tmpfs mounted for the run
alone (see `on_tmpfs`). The line before the result is the run's provenance
(source revision, toolchain, host, store filesystem, seed); before it, the
`checks` line counts the values each correctness check compared. A run whose
replies did not match the acknowledged writes still prints its result, with
`"correct": false`, and exits with code 1. All build output goes to
$CARGO_TARGET_DIR (default `.bench_build`); stores, spans and result copies go
to `.bench_work/`.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys

# kvbench kills itself at 170 s; this is the last line of defence.
RUN_TIMEOUT_S = 176
BUILD_TIMEOUT_S = 850
# kvbench's exit code when it printed a result that failed a correctness
# check.
KVBENCH_INCORRECT = 3


def fail(message):
    print(f"kvbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, **kwargs):
    """Runs a command and returns its stripped stdout, or "unknown"."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, **kwargs)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest(root):
    """SHA-256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    files = [os.path.join(root, name) for name in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


# Mounts a tmpfs on "$1", then runs the rest of the arguments. Run inside a
# private mount namespace, the mount is seen only by that program and its
# children, and is gone when the last of them exits.
MOUNT_TMPFS = 'mount -t tmpfs -o size=512m kvbench-store "$1" && shift && exec "$@"'


def on_tmpfs(store_dir):
    """Returns the command prefix that runs a program with `store_dir` on a
    private tmpfs, and the store's filesystem type.

    The store belongs on tmpfs: there a persistent fence costs the program's
    own work, not the latency of a shared virtual disk. A host that allows
    neither a mount namespace nor a user namespace gets an empty prefix, and
    the store stays on the checkout's filesystem (recorded as `store_fs`)."""
    for unshare in (["unshare", "--mount", "--propagation", "private"],
                    ["unshare", "--map-root-user", "--mount", "--propagation", "private"]):
        prefix = unshare + ["sh", "-c", MOUNT_TMPFS, "sh", store_dir]
        if run_quiet(prefix + ["stat", "-f", "-c", "%T", store_dir]) == "tmpfs":
            return prefix, "tmpfs"
    return [], run_quiet(["stat", "-f", "-c", "%T", store_dir])


def provenance(root, store_fs, seed):
    return {
        "git_rev": run_quiet(["git", "rev-parse", "HEAD"], cwd=root),
        "source_sha256": source_digest(root),
        "rustc": run_quiet(["rustc", "--version"]),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "store_fs": store_fs,
        "seed": seed,
    }


def build(root, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "onll_server"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("kvbench", "Cargo.toml")],
    ):
        try:
            done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run_kvbench(cmd):
    """Runs kvbench in its own process group; returns (code, stdout, stderr)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The group holds kvbench and every server it spawned.
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        sys.stderr.write(err)
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    sys.stderr.write(err)
    return proc.returncode, out, err


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("src", "bin", "onll_server.rs"), "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the repository root")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    section = "per_layer" if args.trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(root, target_dir)

    work_dir = os.path.join(root, ".bench_work", f"{args.workload}-trace{args.trace}")
    subprocess.run(["rm", "-rf", work_dir], check=True)
    store_dir = os.path.join(work_dir, "stores")
    os.makedirs(store_dir)
    prefix, store_fs = on_tmpfs(store_dir)
    prov = provenance(root, store_fs, args.seed)

    code, out, err = run_kvbench(prefix + [
        os.path.join(target_dir, "release", "kvbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server-bin", os.path.join(target_dir, "release", "onll_server"),
        "--work-dir", work_dir,
        "--store-dir", store_dir,
    ])
    if code not in (0, KVBENCH_INCORRECT):
        fail(f"kvbench exited with code {code}")
    lines = out.strip().splitlines()
    if not lines:
        fail("kvbench printed no result")
    result = json.loads(lines[-1])
    if args.trace == "1":
        # Checkpoint failures surface only as server diagnostics on stderr.
        failures = sum("checkpoint failed" in line for line in err.splitlines())
        result["metrics"]["ckpt.failures"] = {"value": failures, "unit": "count"}

    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json {section}: "
             f"missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}, "
             f"units {sorted(n for n in got if n in expected and got[n] != expected[n])}")
    bad = [n for n, m in result["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        fail(f"non-finite metric values: {bad}")

    with open(os.path.join(work_dir, "result.json"), "w") as f:
        json.dump({"provenance": prov, "workload": args.workload, "trace": args.trace,
                   "kvbench_lines": lines[:-1], "result": result}, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    if code == KVBENCH_INCORRECT or not result["correct"]:
        fail("CORRECTNESS FAILURE: a reply did not match the last acknowledged write (see above)")


if __name__ == "__main__":
    main()
