"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload micro --seed 1 --seconds 25 --trace 0

The run repeats passes of the workload (see ``workloads.py``) until
``--seconds`` have passed, checks every pass's outputs and that all passes
simulated exactly the same thing, and prints one ``name = value unit``
line per metric, then one JSON object as the last line of standard
output::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` with
tracing off, and prints the host times ``wall_s`` (fastest pass) and
``seed_ms.p50`` / ``seed_ms.p90`` (each seed's fastest pass, percentiles
across seeds) beside them.  On a shared host other tenants only ever
add time, so the fastest repeat is the steadiest estimate of the
program's own cost within one run.

``setup_s`` is set-up time in *reference seconds*.  Before each pass
(and after the last, until there are at least ten) the run times a
fresh-interpreter import of the simulator and, right after it, a fixed
reference set-up that involves no repository code (:data:`_REFERENCE`:
standard-library and numpy imports and an allocation loop, in another
fresh interpreter).  Each import time, and each pass's simulation build
time, is divided by the reference time measured next to it; ``setup_s``
is :data:`REFERENCE_S` times the median import ratio plus the median
build ratio.  The host's speed drifts by tens of percent over minutes,
and the reference drifts with it, so the ratio cancels the drift that
raw times carry from one set of runs to the next.  The raw fastest
import and build are printed beside it, not gated.

``--trace 1`` spends the first half of the time on untraced passes and
the second half on traced ones.  It reports the per-layer metrics and
the tracing overhead (traced minus untraced ``wall_s``), checks that
traced passes simulate exactly what untraced ones do, and writes the
first spans of the first traced pass to
``.bench_out/<workload>.trace.json`` (Chrome trace-event format).

The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = Path(".bench_out")
#: Spans written out per traced run; a pass can hold hundreds of
#: thousands.
SPANS_WRITTEN = 50_000
#: Import / reference pairs timed per run, at least: one before each
#: pass, then more after the last pass if the passes were fewer.
IMPORT_SAMPLES = 10
#: Seconds that one reference second stands for in ``setup_s``: about
#: what :data:`_REFERENCE` takes on the 2-vCPU host the benchmark was
#: tuned on, so ``setup_s`` reads close to seconds there.
REFERENCE_S = 0.25
HOST_UNITS = {"wall_s": "s", "seed_ms.p50": "ms", "seed_ms.p90": "ms",
              "import_s": "s", "build_s": "s"}
#: Run by a fresh interpreter: time the code in ``argv[1]`` with the
#: other arguments on ``sys.path``.
_TIMER = ("import sys, time\n"
          "sys.path[:0] = sys.argv[2:]\n"
          "t0 = time.perf_counter()\n"
          "exec(sys.argv[1])\n"
          "print(time.perf_counter() - t0)\n")
#: The reference set-up: module imports and object building, like the
#: simulator's set-up, with no repository code.  Do not change it: a
#: change rescales every ``setup_s`` measured before.
_REFERENCE = ("import argparse, json, decimal, fractions, statistics, "
              "email.mime.multipart, http.client, xml.etree.ElementTree, "
              "logging, unittest, asyncio, dataclasses, typing, inspect, "
              "ast, difflib, csv, pydoc, tarfile, zipfile\n"
              "import numpy\n"
              "class P:\n"
              "    __slots__ = ('a', 'b')\n"
              "    def __init__(self, a, b):\n"
              "        self.a, self.b = a, b\n"
              "x = [P(i, {i: str(i)}) for i in range(100000)]\n"
              "x.sort(key=lambda p: -p.a)\n")


def quantile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive method, so any sample count)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fresh_seconds(code: str) -> float:
    """Host seconds a fresh interpreter takes to run ``code``, with the
    simulator and the benchmark importable."""
    out = subprocess.run(
        [sys.executable, "-c", _TIMER, code, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def import_sample() -> tuple:
    """One fresh-interpreter import of the simulator (everything the
    workloads import) and the reference set-up timed right after it."""
    return fresh_seconds("import workloads"), fresh_seconds(_REFERENCE)


def run_passes(pass_fn, inp, clock, deadline: float, passes: list,
               tracer=None, imports: Optional[list] = None) -> list:
    """Run passes until ``deadline`` (at least one), timing one import
    sample before each when ``imports`` is a list; returns the tracer's
    folded stats of each pass when tracing, with the spans of the first
    pass only."""
    folded = []
    while True:
        if imports is not None:
            imports.append(import_sample())
        gc.collect()
        passes.append(pass_fn(inp, clock))
        if tracer is not None:
            folded.append(tracer.fold())
            if len(folded) > 1:
                folded[-1]["spans"] = []
            folded[-1]["record_count"] = passes[-1].record_count
        if time.perf_counter() >= deadline:
            return folded


def host_times(passes: list) -> dict:
    """Host times of the untraced passes: the fastest pass (set-up
    excluded) and, per seed, its fastest pass, with percentiles taken
    across seeds."""
    seed_ms = [min(p.seed_ms[seed] for p in passes)
               for seed in passes[0].seed_ms]
    return {"wall_s": min(p.wall_s for p in passes),
            "seed_ms.p50": quantile(seed_ms, 50),
            "seed_ms.p90": quantile(seed_ms, 90)}


def setup_seconds(imports: list, passes: list) -> float:
    """``setup_s`` in reference seconds: the median import time over its
    paired reference time, plus the median build time over the reference
    time measured just before its pass."""
    return REFERENCE_S * (
        statistics.median(t / ref for t, ref in imports)
        + statistics.median(p.setup_s / ref
                            for p, (_t, ref) in zip(passes, imports)))


def layer_metrics(folded: list, untraced_wall: float,
                  traced_wall: float) -> dict:
    """Per-layer metrics: the median over traced passes of each stat and
    derived ratio, and the tracing overhead."""
    from layers import derive

    per_pass = [dict(f["metrics"], **derive(f["metrics"], f["counts"],
                                            f["record_count"],
                                            untraced_wall))
                for f in folded]
    out = {name: statistics.median(p[name] for p in per_pass)
           for name in per_pass[0]}
    out["bench.trace.overhead_s"] = traced_wall - untraced_wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("micro", "workflow", "chaos"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: simulator sources not found at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads  # imports the simulator

    start = time.perf_counter()
    pass_fn = workloads.WORKLOADS[args.workload]
    inp = workloads.inputs(args.workload, args.seed)
    clock = workloads.SetupClock().install()
    deadline = start + args.seconds
    passes: list = []
    traced: list = []
    folded: list = []
    imports: list = []
    tracer = None
    try:
        if args.trace:
            from tracer import Tracer, chrome_trace

            run_passes(pass_fn, inp, clock, start + args.seconds / 2, passes)
            tracer = Tracer().install()
            try:
                folded = run_passes(pass_fn, inp, clock, deadline, traced,
                                    tracer=tracer)
            finally:
                tracer.uninstall()
        else:
            run_passes(pass_fn, inp, clock, deadline, passes,
                       imports=imports)
            while len(imports) < IMPORT_SAMPLES:
                imports.append(import_sample())
    finally:
        clock.uninstall()

    problems = [v for p in passes + traced for v in p.violations]
    reference = passes[0]
    for p in passes[1:]:
        if (p.sim, p.digest) != (reference.sim, reference.digest):
            problems.append("non-deterministic: simulated metrics differ "
                            "between passes of one run")
            break
    for p in traced:
        if (p.sim, p.digest) != (reference.sim, reference.digest):
            problems.append("tracing changed the simulation: traced pass "
                            "differs from untraced")
            break

    host = host_times(passes)
    shown = {}
    if args.trace:
        from layers import metric_names

        traced_wall = min(p.wall_s for p in traced)
        values = layer_metrics(folded, host["wall_s"], traced_wall)
        values.update((f"bench.untraced.{name}", value)
                      for name, value in host.items())
        units = {name: unit for name, unit, _better in metric_names()}
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"{args.workload}.trace.json"
        with open(spans_path, "w") as out:
            json.dump(chrome_trace(folded[0]["spans"], SPANS_WRITTEN), out)
        print(f"# {len(passes)} untraced + {len(traced)} traced passes; "
              f"wall_s untraced {host['wall_s']:.4f} s, traced "
              f"{traced_wall:.4f} s; spans of the first traced pass in "
              f"{spans_path}")
    else:
        values = {
            "setup_s": setup_seconds(imports, passes),
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        values.update(reference.sim)
        units = {"setup_s": "s", "peak_rss_mib": "MiB",
                 "sim_write_GiBps": "GiB/s", "sim_read_GiBps": "GiB/s",
                 "sim_elapsed_s": "sim_s", "read_ok_ratio": "ratio",
                 "write_ok_ratio": "ratio"}
        shown = dict(host, import_s=min(t for t, _ref in imports),
                     build_s=min(p.setup_s for p in passes))
        print(f"# {len(passes)} passes of {len(reference.seed_ms)} seeds; "
              f"{len(imports)} import samples, reference median "
              f"{statistics.median(r for _t, r in imports):.4f} s")
    violations = sum(len(p.violations) for p in passes + traced)
    print(f"violations = {violations} count")
    for problem in problems:
        print(f"FAILED: {problem}")
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    for name, value in shown.items():
        print(f"{name} = {value!r} {HOST_UNITS[name]} (raw host time, "
              f"not gated)")
    result = {
        "correct": not problems,
        "attempted": sum(p.units for p in passes + traced),
        "failed": sum(p.failed_units for p in passes + traced),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
