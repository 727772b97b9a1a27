"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 3 --seconds 30 --trace 0

Prints every metric by name and unit, the tail percentile and sample
count, a digest of the run's outputs, and as the last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
split and writes the span dump to ``.perfbench_out/`` (readable with
``repro-obs summary``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("campaign", "serve-cold")
#: settings that would let a cache hit or the environment stand in for work
PINNED_ENV = ("REPRO_WORKERS", "REPRO_CACHE_MAX_BYTES", "REPRO_OBS",
              "REPRO_OBS_OUT")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so every started service stops
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perfbench.report import END_TO_END, per_layer_units, result_line

    module = importlib.import_module(
        "perfbench." + args.workload.replace("-", "_"))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        outcome = module.run(ROOT, tmp, args.seed, args.seconds,
                             bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name:32s} {outcome.metrics[name]:>16.6g} {unit}")
    for note in outcome.notes:
        print(note)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"output digest: {outcome.digest}")
    if outcome.session is not None:
        dump = out_dir / f"{args.workload}-s{args.seed}.obs.json"
        outcome.session.save(dump)
        print(f"span dump: {dump.relative_to(ROOT)}")
    print(result_line(outcome, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
