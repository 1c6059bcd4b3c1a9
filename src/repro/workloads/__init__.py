"""I/O workloads of the evaluation (§III-A).

* :mod:`~repro.workloads.hdf5sim` — a minimal HDF5-like container layout
  (superblock + object headers + contiguous datasets) so workloads issue
  the same *access pattern* the real library would.
* :mod:`~repro.workloads.iobench` — the HDF5 micro-benchmark: every rank
  writes/reads an independent, overall-contiguous block of a shared file.
* :mod:`~repro.workloads.vpic` — the VPIC-IO kernel: 8 particle
  properties, 8 Mi particles/rank, 256 MiB/rank per time step, with
  compute (sleep) phases between checkpoints.
* :mod:`~repro.workloads.bdcats` — the BD-CATS-IO kernel: the parallel
  clustering reader that consumes all eight properties of all particles.

Multi-job workloads (docs/MODEL.md §10):

* :mod:`~repro.workloads.jobs` — the :class:`Job`/:class:`JobTrace`
  model, JSON/CSV loaders and the seeded synthetic trace generator.
* :mod:`~repro.workloads.strategies` — the pluggable
  :class:`StorageScheduler` registry (burst-buffer arbitration).
* :mod:`~repro.workloads.engine` — the multi-job orchestrator behind
  :func:`run_trace` / :func:`compare_strategies` and the kw-only
  :class:`WorkloadSpec`.

The single-app kernels import with the package; the multi-job names load
on first access.
"""

from repro._lazy import lazy_exports
from repro.workloads.hdf5sim import DatasetSpec, Hdf5Layout
from repro.workloads.iobench import MicroBench
from repro.workloads.vpic import VPIC_BYTES_PER_PROC_PER_STEP, VpicIO
from repro.workloads.bdcats import BdCatsIO

__all__ = [
    "Allocation",
    "BBPool",
    "BdCatsIO",
    "DatasetSpec",
    "Hdf5Layout",
    "Job",
    "JobPhase",
    "JobResult",
    "JobTrace",
    "MicroBench",
    "MIXES",
    "PATTERNS",
    "StorageScheduler",
    "TraceResult",
    "VPIC_BYTES_PER_PROC_PER_STEP",
    "VpicIO",
    "WorkloadEngine",
    "WorkloadSpec",
    "available_strategies",
    "compare_strategies",
    "generate_trace",
    "make_strategy",
    "register_strategy",
    "run_trace",
]

_JOBS = "repro.workloads.jobs"
_STRATEGIES = "repro.workloads.strategies"
_ENGINE = "repro.workloads.engine"

__getattr__, __dir__ = lazy_exports(__name__, {
    "Allocation": _STRATEGIES,
    "BBPool": _STRATEGIES,
    "Job": _JOBS,
    "JobPhase": _JOBS,
    "JobResult": _ENGINE,
    "JobTrace": _JOBS,
    "MIXES": _JOBS,
    "PATTERNS": _JOBS,
    "StorageScheduler": _STRATEGIES,
    "TraceResult": _ENGINE,
    "WorkloadEngine": _ENGINE,
    "WorkloadSpec": _ENGINE,
    "available_strategies": _STRATEGIES,
    "compare_strategies": _ENGINE,
    "generate_trace": _JOBS,
    "make_strategy": _STRATEGIES,
    "register_strategy": _STRATEGIES,
    "run_trace": _ENGINE,
})
