"""Tracing overhead: traced minus untraced, for each end-to-end metric.

Runs each workload once with ``--trace 0`` and once with ``--trace 1``
on the same seed and prints, per workload and metric, the untraced
value, the traced value (the ``traced.*`` per-layer metrics) and their
difference. From the root of a checkout::

    python3 perfbench/overhead.py --seed 0 --seconds 10 [workload ...]
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("backfill", "analytics")


def _metrics(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} trace={trace}: {result['failed']} failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    args = p.parse_args(argv)
    for w in args.workloads:
        plain = _metrics(w, args.seed, args.seconds, 0)
        traced = _metrics(w, args.seed, args.seconds, 1)
        for name, value in plain.items():
            t = traced[f"traced.{name}"]
            print(json.dumps({
                "workload": w, "metric": name, "untraced": value, "traced": t,
                "overhead": t - value, "overhead_share": (t - value) / value,
            }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
