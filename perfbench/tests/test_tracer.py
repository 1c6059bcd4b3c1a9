"""Tests of the benchmark's tracer, workloads and BENCHMARK.json.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

import layers
import workloads
from layers import Probe
from repro.analysis.metrics import OpRecord
from repro.sim.engine import Engine, Interrupt
from tracer import Tracer, chrome_trace, self_times

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """A host clock that advances one unit per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


# -- self time ----------------------------------------------------------------
def test_self_time_of_nested_spans():
    spans = [["a", 0.0, 10.0, -1],   # children b, d cover 3 + 4
             ["b", 1.0, 4.0, 0],     # child c covers 1
             ["c", 2.0, 3.0, 1],
             ["d", 5.0, 9.0, 0],
             ["e", 11.0, 12.0, -1]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_nested_wrapped_calls_record_parents_and_self_time():
    tracer = Tracer(clock=FakeClock())

    def leaf():
        return "leaf"

    traced_leaf = tracer.wrap(Probe("toy", "leaf", ("calls",)), leaf)

    def outer():
        return traced_leaf() + traced_leaf()

    traced_outer = tracer.wrap(Probe("toy", "outer", ("calls",)), outer)
    assert traced_outer() == "leafleaf"
    # Clock readings: outer opens at 1, leaves span [2, 3] and [4, 5],
    # outer closes at 6.
    assert tracer.spans == [["toy.outer", 1.0, 6.0, -1],
                            ["toy.leaf", 2.0, 3.0, 0],
                            ["toy.leaf", 4.0, 5.0, 0]]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    assert tracer.stat("toy.leaf")[0] == 2
    events = chrome_trace(tracer.spans)["traceEvents"]
    assert [e["args"]["parent"] for e in events] == [-1, 0, 0]


# -- generator wrapper on a toy engine process --------------------------------
def _worker(engine, delay, fail):
    yield engine.timeout(delay)
    if fail:
        raise ValueError("boom")
    yield engine.timeout(delay)
    return f"slept {2 * delay}"


def _sleeper(engine):
    try:
        yield engine.timeout(10.0)
    except Interrupt as intr:
        return f"woken by {intr.cause}"
    return "slept"


def _scenario(engine, worker, sleeper):
    """A parent that joins a returning, a raising and an interrupted
    generator; returns everything it observed."""
    seen = []

    def parent():
        seen.append((yield from worker(engine, 1.0, False)))
        seen.append(engine.now)
        try:
            yield from worker(engine, 0.5, True)
        except ValueError as err:
            seen.append(f"raised {err}")
        seen.append(engine.now)
        child = engine.process(sleeper(engine))
        yield engine.timeout(0.25)
        child.interrupt("parent")
        seen.append((yield child))
        seen.append(engine.now)
        return "parent done"

    seen.append(engine.run_process(parent()))
    return seen


def test_generator_wrapper_passes_values_exceptions_and_time_through():
    plain = _scenario(Engine(), _worker, _sleeper)
    tracer = Tracer()
    tracer.engine = Engine()
    worker = tracer.wrap(Probe("toy", "worker", ("calls", "sim_s")),
                         _worker)
    sleeper = tracer.wrap(Probe("toy", "sleeper", ("calls", "sim_s")),
                          _sleeper)
    traced = _scenario(tracer.engine, worker, sleeper)
    assert traced == plain == ["slept 2.0", 2.0, "raised boom", 2.5,
                               "woken by parent", 2.75, "parent done"]
    calls, sim_s = tracer.stat("toy.worker")[:2]
    assert calls == 2
    # 2.0 simulated seconds for the returning call, 0.5 for the raising one.
    assert sim_s == pytest.approx(2.5)
    calls, sim_s = tracer.stat("toy.sleeper")[:2]
    assert calls == 1 and sim_s == pytest.approx(0.25)
    # One span per resume: 3 + 2 for the workers, 2 for the sleeper.
    assert len(tracer.spans) == 7
    assert not tracer._stack


def _ticker(engine, nap, seen):
    for _ in range(4):
        yield nap(engine)
        seen.append(engine._free is not None)


def _nap(engine):
    return engine.timeout(1.0)


def test_traced_engine_still_recycles_its_timeouts():
    # One lone process: every timeout is dispatched inline, and the one
    # consumed before it goes to the engine's free slot only if nothing
    # else refers to it.
    def run(ticker, nap):
        seen = []
        engine = Engine()
        engine.run_process(ticker(engine, nap, seen))
        return seen

    plain = run(_ticker, _nap)
    tracer = Tracer().install()
    try:
        traced = run(
            tracer.wrap(Probe("toy", "ticker", ("calls", "sim_s")), _ticker),
            tracer.wrap(Probe("toy", "nap", ("calls", "sim_s")), _nap))
        tracer.settle()
    finally:
        tracer.uninstall()
    assert plain == traced == [False, True, True, True]
    assert tracer.stat("toy.nap")[:2] == [4, 4.0]
    assert tracer.stat("toy.ticker")[:2] == [1, 4.0]


def test_spawning_probe_times_the_work_it_starts():
    tracer = Tracer().install()
    try:
        nap = tracer.wrap(Probe("toy", "nap", ("calls", "sim_s")), _nap)

        def handler(engine):
            nap(engine)                                  # ends at 1.5 s
            engine.process(_worker(engine, 1.0, False))  # ends at 2.5 s

        handler = tracer.wrap(Probe("toy", "handler", ("calls", "sim_s"),
                                    spawns=True), handler)

        def parent(engine):
            yield engine.timeout(0.5)
            handler(engine)
            yield engine.timeout(5.0)

        engine = Engine()
        engine.run_process(parent(engine))
        tracer.settle()
    finally:
        tracer.uninstall()
    assert tracer.stat("toy.handler")[:2] == [1, 2.0]
    assert tracer.stat("toy.nap")[:2] == [1, 1.0]


def test_wrapped_generator_keeps_its_name():
    tracer = Tracer()
    worker = tracer.wrap(Probe("toy", "worker", ("calls",)), _worker)
    assert worker(Engine(), 1.0, False).__name__ == "_worker"


# -- install / uninstall ------------------------------------------------------
def test_install_wraps_name_imports_and_uninstall_restores():
    from repro.cluster import cpu, node
    from repro.storage.datamodel import PatternPayload
    from repro.simmpi.mpiio import File

    originals = (cpu.placement_efficiency, node.placement_efficiency,
                 PatternPayload.__dict__["materialize"],
                 File.__dict__["open"])
    tracer = Tracer().install()
    try:
        assert node.placement_efficiency is cpu.placement_efficiency
        assert node.placement_efficiency is not originals[0]
        assert PatternPayload.__dict__["materialize"] is not originals[2]
        assert isinstance(File.__dict__["open"], classmethod)
        assert PatternPayload(3).materialize(0, 8) == \
            originals[2](PatternPayload(3), 0, 8)
        assert tracer.stat("storage.datamodel.Payload.materialize")[0] == 1
    finally:
        tracer.uninstall()
    assert (cpu.placement_efficiency, node.placement_efficiency,
            PatternPayload.__dict__["materialize"],
            File.__dict__["open"]) == originals


# -- traced vs untraced on the real workloads ---------------------------------
@pytest.fixture
def small_micro(monkeypatch):
    monkeypatch.setattr(workloads, "MICRO_RANKS", 64)
    monkeypatch.setattr(workloads, "MICRO_BYTES_PER_RANK", 1 << 20)


def _run(pass_fn, inp, tracer=None):
    clock = workloads.SetupClock().install()
    try:
        if tracer is None:
            return pass_fn(inp, clock), None
        tracer.install()
        try:
            result = pass_fn(inp, clock)
            return result, tracer.fold()
        finally:
            tracer.uninstall()
    finally:
        clock.uninstall()


def test_traced_micro_simulates_exactly_what_untraced_does(small_micro):
    inp = workloads.inputs("micro", 7)
    plain, _ = _run(workloads.micro_pass, inp)
    traced, folded = _run(workloads.micro_pass, inp, Tracer())
    assert plain.violations == [] and traced.violations == []
    assert traced.sim == plain.sim
    assert traced.digest == plain.digest
    metrics = folded["metrics"]
    assert metrics["simmpi.mpiio.File.write_at_all.calls"] == 1
    assert metrics["simmpi.mpiio.File.write_at_all.sim_s"] > 0
    assert metrics["core.server.FileSession.writer_for.calls"] == 64
    assert metrics["core.metadata.MetadataService.insert_many.calls"] >= 1
    # 64 MiB appended to the ranks' DRAM logs (1 MiB each), plus the
    # 64 MiB the background flush copies into the shared PFS file.
    assert metrics["storage.posix.SimFile.write_at.bytes"] == 128 << 20
    assert folded["counts"]["sim.engine.Engine"] > 0


def test_traced_chaos_keeps_digests_and_structured_losses():
    # Seed 5's hotspot run has overwrites rejected with a structured
    # quorum error: the wrappers must hand those exceptions through.
    inp = {"seeds": [5, 12]}
    plain, _ = _run(workloads.chaos_pass, inp)
    traced, folded = _run(workloads.chaos_pass, inp, Tracer())
    assert plain.violations == [] and traced.violations == []
    assert plain.sim["write_ok_ratio"] < 1.0
    assert (traced.sim, traced.digest) == (plain.sim, plain.digest)
    assert folded["metrics"][
        "core.metadata.MetadataService.split_range.calls"] > 0


def test_micro_pass_fails_on_wrong_bytes(small_micro, monkeypatch):
    from repro.workloads.iobench import MicroBench

    def corrupt(self, results, sample_bytes=4096):
        raise AssertionError("rank 0: read-back mismatch")

    monkeypatch.setattr(MicroBench, "verify_sample", corrupt)
    result, _ = _run(workloads.micro_pass, workloads.inputs("micro", 1))
    assert result.failed_units == 1
    assert result.sim["read_ok_ratio"] == 0.0


def test_inputs_come_from_the_seed_alone():
    for name in ("micro", "workflow", "chaos"):
        assert workloads.inputs(name, 5) == workloads.inputs(name, 5)
        assert workloads.inputs(name, 5) != workloads.inputs(name, 6)


def test_phase_rates_split_write_and_read_phases():
    def rec(app, op, t0, t1, nbytes=0.0):
        return OpRecord(app, op, "/f", t0, t1, nbytes)

    records = [rec("a", "open", 0, 1), rec("a", "write", 1, 3, 100),
               rec("a", "close", 3, 4), rec("a", "flush", 4, 9, 100),
               rec("a", "open", 10, 11), rec("a", "read", 11, 12, 50),
               rec("a", "read", 12, 13, 50), rec("a", "close", 13, 14)]
    assert workloads.phase_rates(records) == {"write": [100.0, 4.0],
                                              "read": [100.0, 4.0]}


# -- BENCHMARK.json -----------------------------------------------------------
def test_benchmark_json_lists_the_metrics_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in layers.metric_names()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(name) <= 64 for name in names)
