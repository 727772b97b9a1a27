"""Run-to-run spread of the end-to-end metrics, against their bounds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload serve-cold --runs 10 --first-seed 301

Runs ``perfbench/run.py`` once per seed (``--seconds`` from
``BENCHMARK.json``) and prints, per end-to-end metric, the median, the
interquartile distance as a share of the median (``statistics.
quantiles(values, n=4)``), the bound, and whether the spread stays under
a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=301)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        doc = json.loads(lines[-1])
        failures += doc["failed"] + (not doc["correct"])
        row = []
        for name in values:
            values[name].append(doc["metrics"][name]["value"])
            row.append(f"{name}={values[name][-1]:.4g}")
        print(f"seed {seed}: correct={doc['correct']} "
              f"failed={doc['failed']}/{doc['attempted']} " + " ".join(row),
              flush=True)
    steady = failures == 0
    for m in spec["end_to_end"]:
        s = spread(values[m["name"]])
        ok = s < m["bound"] / 3
        steady &= ok
        print(f"{m['name']:18s} median {median(values[m['name']]):12.5g} "
              f"{m['unit']:4s} spread {s:7.4f} bound {m['bound']:.2f} "
              f"{'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
