"""UniviStor reproduction: integrated hierarchical and distributed storage.

A full, simulation-backed reproduction of *"UniviStor: Integrated
Hierarchical and Distributed Storage for HPC"* (Wang, Byna, Dong, Tang —
IEEE CLUSTER 2018).  The library implements the paper's data-management
middleware — DHP log placement, virtual addressing, the distributed
metadata service, location-aware reads, interference-aware scheduling,
adaptive striping and lightweight workflow management — on top of a
discrete-event model of a Cori-class machine (compute nodes with NUMA
sockets, a DataWarp-like shared burst buffer, and a 248-OST Lustre file
system), plus the two comparison systems (Data Elevator and plain Lustre).

Quick start::

    from repro import MachineSpec, Simulation, UniviStorConfig

    sim = Simulation(MachineSpec.cori_haswell(nodes=2))
    sim.install_univistor(UniviStorConfig.dram_only())
    ...

This module is the **stable public surface** (see ``docs/API.md``,
"API stability"): exactly the names in ``__all__`` are supported here.
Everything else lives in its home subpackage — importing a relocated
name from ``repro`` raises an :class:`AttributeError` that states the
new import path.

``import repro`` loads the simulator stack a job runs (engine, machine,
UniviStor core, storage models, MPI-IO).  The multi-job engine
(``WorkloadSpec``, ``run_trace``) and the experiment registry
(``run_experiment``) load on first access.

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
regeneration of every figure in the paper's evaluation.
"""

from repro._lazy import lazy_exports
from repro.analysis.metrics import Telemetry
from repro.analysis.report import Table
from repro.cluster.spec import MachineSpec
from repro.core.config import UniviStorConfig
from repro.sim.faults import FaultSpec
from repro.simmpi.mpiio import File, IORequest
from repro.simulation import Simulation
from repro.storage.datamodel import PatternPayload

__version__ = "2.1.0"

__all__ = [
    "FaultSpec",
    "File",
    "IORequest",
    "MachineSpec",
    "PatternPayload",
    "Simulation",
    "Table",
    "Telemetry",
    "UniviStorConfig",
    "WorkloadSpec",
    "run_experiment",
    "run_trace",
]

#: Names that used to be re-exported here; each maps to the module that
#: now owns it.  ``__getattr__`` turns a stale top-level import into an
#: error message carrying the new path.
_MOVED = {
    "BurstBufferSpec": "repro.cluster",
    "BytesPayload": "repro.storage",
    "Communicator": "repro.simmpi",
    "DataElevatorDriver": "repro.baselines",
    "DataElevatorServers": "repro.baselines",
    "Engine": "repro.sim",
    "LustreDirectDriver": "repro.baselines",
    "LustreSpec": "repro.cluster",
    "Machine": "repro.cluster",
    "NetworkSpec": "repro.cluster",
    "NodeSpec": "repro.cluster",
    "OpRecord": "repro.analysis",
    "SchedulingSpec": "repro.cluster",
    "StorageTier": "repro.core",
    "UniviStorDriver": "repro.core",
    "UniviStorServers": "repro.core",
    "fmt_markdown_table": "repro.analysis",
}


_lazy_getattr, __dir__ = lazy_exports(__name__, {
    "WorkloadSpec": "repro.workloads.engine",
    "run_experiment": "repro.experiments.registry",
    "run_trace": "repro.workloads.engine",
})


def __getattr__(name):
    if name in _MOVED:
        raise AttributeError(
            f"{name!r} is not part of the stable public API of 'repro'; "
            f"import it from its home module instead: "
            f"'from {_MOVED[name]} import {name}'")
    return _lazy_getattr(name)
