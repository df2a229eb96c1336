#!/usr/bin/env python3
"""Self-check of the benchmark.

Runs every workload in BENCHMARK.json, untraced and traced, on a seed
that was not used while the benchmark was tuned, and checks that:

- each run exits 0 and its last line is the result object with exactly
  `correct`, `attempted`, `failed` and `metrics`, correct and with
  nothing failed;
- the metric names and units it prints are exactly the `end_to_end`
  (untraced) or `per_layer` (traced) entries of BENCHMARK.json, and
  every end-to-end value is a finite non-zero number;
- the run digests printed by `fullrate` and `federation` are identical
  between the two runs of one seed;
- an unknown workload is refused without a result line.

It prints each run's report lines, so one command shows every metric
of every workload with its unit. Exits 1 if anything fails.

    python3 perfbench/selfcheck.py [--seconds S]
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 20261017
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
DIGEST_PREFIXES = ("# fullrate: 20-round store digest", "# federation: first scenario digest")


def run(spec, args, timeout=900):
    out = subprocess.run(spec["command"] + args, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    return out.returncode, out.stdout.strip().splitlines(), out.stderr


def main():
    seconds = sys.argv[sys.argv.index("--seconds") + 1] if "--seconds" in sys.argv else "3"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    if set(spec) != SPEC_KEYS:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(SPEC_KEYS)}")
    tables = {0: spec["end_to_end"], 1: spec["per_layer"]}
    digests = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, lines, err = run(spec, ["--workload", name, "--seed", str(SEED), "--seconds", seconds, "--trace", str(trace)])
            tag = f"{name} --trace {trace}"
            print(f"=== {tag} (seed {SEED}, {seconds} s): exit {code}")
            for line in lines[:-1]:
                print(line)
                if line.startswith(DIGEST_PREFIXES):
                    digests.setdefault(name, set()).add(line.split()[-1])
            if code != 0 or not lines:
                problems.append(f"{tag}: exit {code}: {err.strip()[-500:]}")
                continue
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                problems.append(f"{tag}: last line is not JSON: {lines[-1][:200]}")
                continue
            if set(result) != RESULT_KEYS:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in tables[trace]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
            for k, v in result["metrics"].items():
                x = v.get("value")
                ok = isinstance(x, (int, float)) and math.isfinite(x) and (trace == 1 or x != 0)
                if not ok:
                    problems.append(f"{tag}: metric {k} has value {x!r}")
            print(lines[-1])
    for name, seen in digests.items():
        if len(seen) != 1:
            problems.append(f"{name}: digests differ between runs of seed {SEED}: {sorted(seen)}")
    for name in ("fullrate", "federation"):
        if name in {w["name"] for w in spec["workloads"]} and name not in digests:
            problems.append(f"{name}: no digest line printed")
    code, lines, _ = run(spec, ["--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append("an unknown workload was not refused")
    print("=== self-check:", "FAILED" if problems else "ok")
    for p in problems:
        print("  -", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
