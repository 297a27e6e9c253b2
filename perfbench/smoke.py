#!/usr/bin/env python3
"""Smoke self-test of the benchmark at minimal campaign sizes.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced with --smoke and
checks that each result line is correct, has no failed trials (error_rate 0)
and names exactly the declared metrics with their declared units.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            run = subprocess.run(bench["command"] + ["--workload", workload, "--seed", "1",
                                                     "--seconds", "1", "--trace", str(trace),
                                                     "--smoke"],
                                 cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{workload} --trace {trace}"
            if run.returncode != 0:
                problems.append(f"{where}: exit {run.returncode}\n{run.stderr}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ: missing "
                                f"{sorted(want.keys() - got.keys())}, extra "
                                f"{sorted(got.keys() - want.keys())}, units "
                                f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
            print(f"smoke: {where}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
    for problem in problems:
        print(f"smoke: FAIL {problem}", file=sys.stderr)
    print("smoke: OK" if not problems else "smoke: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
