#!/usr/bin/env python3
"""Short self-test of the benchmark: runs every workload briefly, untraced and
traced, and checks that each run printed every metric BENCHMARK.json names
with its unit, that every correctness check compared values, and that no
check failed.

    python3 kvbench/selftest.py [--seconds 2]

Run it from the repository root. Exits non-zero on the first failure.
"""

import argparse
import json
import subprocess
import sys

CHECKS = {
    "0": ("read_your_writes", "read_back", "after_restart"),
    "1": ("read_your_writes",),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", default="2")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = [sys.executable, "kvbench/run.py", "--workload", workload,
                   "--seed", "1", "--seconds", args.seconds, "--trace", trace]
            done = subprocess.run(cmd, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            problems = []
            if done.returncode != 0 or not lines:
                problems.append(f"exit code {done.returncode}: {done.stderr.strip()[-500:]}")
            else:
                result = json.loads(lines[-1])
                expected = {m["name"]: m["unit"] for m in spec[section]}
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                if got != expected:
                    problems.append(f"metrics differ from {section}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"correct={result['correct']} failed={result['failed']} "
                                    f"attempted={result['attempted']}")
                checks = next((json.loads(l.split(" ", 1)[1]) for l in lines
                               if l.startswith("checks ")), {})
                for check in CHECKS[trace]:
                    if checks.get(check, 0) < 1:
                        problems.append(f"check {check} compared no values")
                if not any(l.startswith("provenance ") for l in lines):
                    problems.append("no provenance line")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload:12s} trace={trace}: {status}", flush=True)
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
