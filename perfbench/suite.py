"""Run every workload of the benchmark, untraced and traced, and check the results.

Usage, from the root of a source checkout:

    python3 perfbench/suite.py                              # smoke run, about 26 profiles
    python3 perfbench/suite.py --scale full --seconds 30    # all workloads at full size

It covers every workload ``run.py`` knows, including ``match-wide``, which
BENCHMARK.json does not list. Each run must exit 0, report correct outputs
with no failures, and print exactly the metric names and units that
BENCHMARK.json lists for its mode.
Every metric line of every run is echoed, prefixed with its workload. Exits 1
on the first mismatch. The smoke run is not part of the unit test suite
because it starts a few dozen interpreter processes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", default="tiny", choices=("tiny", "full"))
    parser.add_argument("--seconds", default=1, type=int)
    parser.add_argument("--seed", default=1, type=int)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--scale", args.scale]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                print(f"FAIL {label}: exit {done.returncode}\n{done.stderr}")
                return 1
            *lines, last = done.stdout.splitlines()
            result = json.loads(last)
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                print(f"FAIL {label}: outputs incorrect\n{done.stdout}")
                return 1
            if got != wanted[trace]:
                print(f"FAIL {label}: metrics {sorted(got.items())} "
                      f"differ from BENCHMARK.json {sorted(wanted[trace].items())}")
                return 1
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                print(f"FAIL {label}: a metric value is not a number")
                return 1
            for line in lines:
                if line.split(" ", 1)[0] in got or line.startswith(("failed_frac", "latency_tail")):
                    print(f"{workload:15s} {line}")
            print(f"ok   {label}: {result['attempted']} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
