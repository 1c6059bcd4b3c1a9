"""Host self time of one workload pass, split by simulator source file.

Usage, from the repository root::

    python3 perfbench/profile_share.py --workload micro --seed 1

Runs one untimed warm-up pass and one pass under ``cProfile``, then
prints each file's share of the profiled self time (``repro/sim/engine.py``
is the event engine).  ``cProfile`` adds a cost to every Python call, so
the shares are estimates; the benchmark's own numbers come from
``run.py`` with profiling off.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Files listed, largest share first.
TOP_FILES = 12


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("micro", "workflow", "chaos"))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads

    pass_fn = workloads.WORKLOADS[args.workload]
    inp = workloads.inputs(args.workload, args.seed)
    clock = workloads.SetupClock().install()
    try:
        pass_fn(inp, clock)
        profiler = cProfile.Profile()
        profiler.runcall(pass_fn, inp, clock)
    finally:
        clock.uninstall()

    by_file: dict = {}
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        marker = filename.find("/repro/")
        key = filename[marker + 1:] if marker >= 0 else "(other)"
        by_file[key] = by_file.get(key, 0.0) + row[2]  # tottime
    total = sum(by_file.values())
    print(f"{args.workload}: {total:.3f} s profiled self time")
    ranked = sorted(by_file.items(), key=lambda kv: -kv[1])
    for key, own in ranked[:TOP_FILES]:
        print(f"  {100 * own / total:5.1f} %  {key}")
    engine = by_file.get("repro/sim/engine.py", 0.0)
    print(f"  sim/engine.py share: {100 * engine / total:.2f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main())
