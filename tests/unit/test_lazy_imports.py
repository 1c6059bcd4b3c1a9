"""Optional subsystems load on first use, not on import.

numpy is deferred too: only seeded random streams need it, so the default
I/O path (import, a collective write and a verified read) never loads it.

Each check runs in a fresh interpreter: within one pytest process,
earlier tests have usually imported every module already, which would
hide an eager import (or a registry that only works because of one).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules no ``micro`` / ``workflow`` / ``chaos`` run executes.
DEFERRED = {
    "repro.analysis.timeline",
    "repro.analysis.utilisation",
    "repro.analysis.workload",
    "repro.baselines",
    "repro.baselines.data_elevator",
    "repro.baselines.lustre_direct",
    "repro.experiments.fig5",
    "repro.experiments.fig6",
    "repro.experiments.fig7",
    "repro.experiments.fig8",
    "repro.experiments.fig10",
    "repro.simmpi.datatypes",
    "repro.simmpi.p2p",
    "repro.workloads.engine",
    "repro.workloads.jobs",
    "repro.workloads.strategies",
}

#: Core modules every run executes: they stay in the import set, so
#: their cost is not moved into the first simulated pass.
EAGER_CORE = {"repro.core.resilience", "repro.core.retry",
              "repro.core.striping", "repro.simulation"}


def fresh(code: str):
    """Run ``code`` in a fresh interpreter; return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout)


def loaded_after(statement: str) -> set:
    return set(fresh(
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith('repro'))))"))


@pytest.mark.parametrize("statement", [
    "import repro", "import repro.simulation", "import repro.cli"])
def test_import_loads_no_deferred_module(statement):
    loaded = loaded_after(statement)
    assert not loaded & DEFERRED
    assert EAGER_CORE <= loaded


#: A 64-rank UniviStor/DRAM write and verified read, as ``micro`` runs it.
MICRO_64 = """
from repro.experiments.common import build_simulation
from repro.units import MiB
from repro.workloads.iobench import MicroBench
sim, fstype = build_simulation(64, "UniviStor/DRAM")
bench = MicroBench(sim, sim.comm("micro", size=64), "/pfs/micro.h5",
                   fstype, 4 * MiB)
def app():
    yield from bench.write_phase()
    return (yield from bench.read_phase(verify=True))
sim.run_to_completion(app(), name="micro")
"""


def numpy_loaded_after(statement: str) -> bool:
    return fresh(f"import json, sys\n{statement}\n"
                 "print(json.dumps(sys.modules.get('numpy') is not None))")


@pytest.mark.parametrize("statement", [
    "import repro", "import repro.cli", MICRO_64],
    ids=["import-repro", "import-cli", "micro-64"])
def test_default_io_path_leaves_numpy_unloaded(statement):
    assert not numpy_loaded_after(statement)


def test_first_random_stream_loads_numpy():
    pytest.importorskip("numpy")
    assert numpy_loaded_after(
        "from repro import chaos\nchaos.run_one(1, hardened=True)")


def test_first_access_loads_the_home_module():
    loaded = loaded_after("import repro\nrepro.run_trace")
    assert "repro.workloads.engine" in loaded
    assert not loaded & (DEFERRED - {"repro.workloads.engine",
                                     "repro.workloads.jobs",
                                     "repro.workloads.strategies"})


def test_registry_lists_every_experiment_on_its_own():
    assert fresh("import json\n"
                 "from repro.experiments import list_experiments\n"
                 "print(json.dumps(list_experiments()))") == [
        "fig10", "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c",
        "fig7", "fig8", "fig9", "workload"]


@pytest.mark.parametrize("package", [
    "repro", "repro.analysis", "repro.experiments", "repro.simmpi",
    "repro.workloads"])
def test_cold_dir_covers_all(package):
    missing = fresh(f"import json, {package} as pkg\n"
                    "print(json.dumps(sorted(set(pkg.__all__) "
                    "- set(dir(pkg)))))")
    assert missing == []
