"""``benchmarks/run_bench.py`` compares a run only with the latest run
recorded on the same host."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                     "benchmarks", "run_bench.py")


@pytest.fixture(scope="module")
def run_bench():
    spec = importlib.util.spec_from_file_location("run_bench", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HOST_A = {"python": "3.11.7", "platform": "Linux-a", "cpus": 2}
HOST_B = {"python": "3.11.7", "platform": "Linux-b", "cpus": 1}


def run(host, seconds):
    return {"label": "", "host": host,
            "benchmarks": {"bench": {"min": seconds, "mean": seconds,
                                     "stddev": 0.0, "rounds": 1}}}


class TestSameHostBaseline:
    # Host A recorded 1.0 s; the latest entry came from a faster host B.
    RUNS = [run(HOST_A, 1.0), run(HOST_B, 0.5)]

    def test_compares_with_the_latest_run_of_this_host(self, run_bench,
                                                        capsys):
        current = run(HOST_A, 1.05)["benchmarks"]
        assert run_bench.compare(self.RUNS, current, HOST_A) == []
        assert run_bench.same_host_baseline(self.RUNS, HOST_A) \
            is self.RUNS[0]
        assert "1.0000" in capsys.readouterr().out

    def test_flags_a_regression_on_the_same_host(self, run_bench):
        current = run(HOST_B, 1.0)["benchmarks"]
        assert run_bench.compare(self.RUNS, current, HOST_B) == ["bench"]

    def test_no_same_host_baseline_flags_nothing(self, run_bench, capsys):
        other = {"python": "3.12.0", "platform": "Linux-a", "cpus": 2}
        current = run(other, 9.0)["benchmarks"]
        assert run_bench.compare(self.RUNS, current, other) == []
        assert "no same-host baseline" in capsys.readouterr().out
