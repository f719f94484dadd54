"""Run every workload untraced and traced for one seed and print a table.

    python3 perfbench/suite.py --seed 1 --seconds 40

Prints the machine record, each end-to-end metric by name and unit for
every workload, the traced per-layer metrics, and the tracing overhead:
untraced minus traced throughput_rps.  Exits 1 if any run fails or any
output fails its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).with_name("run.py")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None, None
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return lines[0]["machine"], lines[-1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    args = p.parse_args(argv)
    ok = True
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            machine, result = run(workload, args.seed, args.seconds, trace)
            if result is None or not result["correct"]:
                print(f"{workload} trace={trace}: run failed or outputs failed their check")
                ok = False
                continue
            if trace == 0:
                print(json.dumps({"machine": machine}))
            results[workload, trace] = result
    for trace, title in ((0, "end-to-end"), (1, "per-layer (traced)")):
        print(f"\n{title}")
        for workload in WORKLOADS:
            result = results.get((workload, trace))
            if result is None:
                continue
            print(f"  {workload}: attempted {result['attempted']}, failed {result['failed']}")
            for name, m in result["metrics"].items():
                print(f"    {name:40s} {m['value']:>16.6g} {m['unit']}")
    print("\ntracing overhead (untraced - traced throughput_rps)")
    for workload in WORKLOADS:
        if (workload, 0) in results and (workload, 1) in results:
            plain = results[workload, 0]["metrics"]["throughput_rps"]["value"]
            traced = results[workload, 1]["metrics"]["trace.throughput_rps"]["value"]
            print(f"  {workload:12s} {plain - traced:+.4f} req/s of {plain:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
