"""The top-level facade: one simulated job on one simulated machine.

Typical use (see ``examples/quickstart.py``)::

    sim = Simulation(MachineSpec.cori_haswell(nodes=2))
    sim.install_univistor(UniviStorConfig.dram_only())
    comm = sim.comm("app", size=64)

    def app():
        fh = yield from sim.open(comm, "/out/data.h5", "w")
        yield from fh.write_at_all([...])
        yield from fh.close()

    sim.spawn(app())
    sim.run()
    print(sim.telemetry.io_rate(op="write"))
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional

from repro.analysis.metrics import Telemetry
from repro.cluster.spec import MachineSpec
from repro.cluster.topology import Machine
from repro.core.client import UniviStorDriver
from repro.core.config import ENGINE_LAYOUT_DEPRECATION, UniviStorConfig
from repro.core.server import UniviStorServers
from repro.sim.engine import Engine, Process
from repro.sim.faults import FaultInjector, FaultSpec
from repro.simmpi.adio import DriverRegistry
from repro.simmpi.comm import Communicator
from repro.simmpi.mpiio import File

if TYPE_CHECKING:
    from repro.baselines.data_elevator import (DataElevatorConfig,
                                               DataElevatorServers)
    from repro.baselines.lustre_direct import LustreDirectDriver

__all__ = ["Simulation"]


class Simulation:
    """One job: engine + machine + ADIO registry + telemetry."""

    def __init__(self, spec: Optional[MachineSpec] = None,
                 pfs_files=None, engine_shards: int = 1,
                 engine_bucket_width: float = 0.0):
        """``pfs_files``: pass a previous job's ``sim.machine.pfs_files``
        to model a follow-up job — cached tiers start empty (they are
        job-scoped, §I) but everything flushed to Lustre persists.

        ``engine_shards`` / ``engine_bucket_width`` are deprecated and
        ignored: the event engine has one layout (docs/MODEL.md §13).  A
        non-default value warns."""
        if engine_shards != 1 or engine_bucket_width != 0.0:
            warnings.warn(ENGINE_LAYOUT_DEPRECATION, DeprecationWarning,
                          stacklevel=2)
        self.engine = Engine()
        self.machine = Machine(self.engine, spec, pfs_files=pfs_files)
        self.registry = DriverRegistry()
        self.telemetry = Telemetry(self.engine)
        self.univistor: Optional[UniviStorServers] = None
        self.data_elevator: Optional[DataElevatorServers] = None
        self.fault_injector: Optional[FaultInjector] = None

    # -- system installation ------------------------------------------------
    def install_univistor(self, config: Optional[UniviStorConfig] = None
                          ) -> UniviStorServers:
        """Launch the UniviStor server program and register its driver."""
        if self.univistor is not None:
            raise RuntimeError("UniviStor already installed")
        self.univistor = UniviStorServers(self.machine,
                                          config or UniviStorConfig())
        self.univistor.telemetry = self.telemetry
        self.registry.register(UniviStorDriver(self.univistor,
                                               self.telemetry))
        return self.univistor

    def install_data_elevator(self,
                              config: Optional[DataElevatorConfig] = None
                              ) -> DataElevatorServers:
        """Launch the Data Elevator baseline and register its driver.

        Takes a :class:`~repro.baselines.data_elevator.DataElevatorConfig`,
        mirroring :meth:`install_univistor`.
        """
        from repro.baselines.data_elevator import (DataElevatorConfig,
                                                   DataElevatorDriver,
                                                   DataElevatorServers)
        if self.data_elevator is not None:
            raise RuntimeError("Data Elevator already installed")
        if config is not None and not isinstance(config, DataElevatorConfig):
            raise TypeError(f"expected a DataElevatorConfig, got "
                            f"{type(config).__name__}")
        self.data_elevator = DataElevatorServers(
            self.machine, config or DataElevatorConfig())
        self.registry.register(DataElevatorDriver(self.data_elevator,
                                                  self.telemetry))
        return self.data_elevator

    def install_lustre(self) -> LustreDirectDriver:
        from repro.baselines.lustre_direct import LustreDirectDriver
        driver = LustreDirectDriver(self.machine, self.telemetry)
        self.registry.register(driver)
        return driver

    def install_faults(self, spec: FaultSpec, seed: int = 0) -> FaultInjector:
        """Arm a fault-injection campaign against the UniviStor system.

        Requires :meth:`install_univistor` first (faults target its
        crash/degrade hooks).  The resolved timeline is deterministic
        under ``seed`` and every fault flows through ``telemetry_hook``.
        """
        if self.univistor is None:
            raise RuntimeError("install_univistor before install_faults")
        if self.fault_injector is not None:
            raise RuntimeError("faults already installed")
        self.fault_injector = FaultInjector(self.univistor, spec,
                                            seed=seed).install()
        return self.fault_injector

    def force_fstype(self, name: Optional[str]) -> None:
        """The ``ROMIO_FSTYPE_FORCE`` environment flag (§II-A)."""
        self.registry.fstype_force = name

    # -- applications -----------------------------------------------------------
    def comm(self, name: str, size: int,
             procs_per_node: Optional[int] = None,
             node_offset: int = 0) -> Communicator:
        """Create (and place) a client application's communicator.

        ``node_offset`` places the program on a later block of nodes
        (disjoint producer/consumer placement — in-transit analysis)."""
        return Communicator(self.machine, name, size,
                            procs_per_node=procs_per_node,
                            node_offset=node_offset)

    def open(self, comm: Communicator, path: str, mode: str,
             fstype: Optional[str] = None,
             hints: Optional[Dict[str, Any]] = None) -> Generator:
        """Collective MPI_File_open against the registered drivers."""
        result = yield from File.open(self.registry, comm, path, mode,
                                      fstype=fstype, hints=hints)
        return result

    def spawn(self, generator: Generator, name: str = "",
              shard: Optional[int] = None) -> Process:
        """Spawn a process.  ``shard`` is deprecated and ignored: passing
        one warns."""
        if shard is not None:
            warnings.warn(ENGINE_LAYOUT_DEPRECATION, DeprecationWarning,
                          stacklevel=2)
        return self.engine.process(generator, name=name)

    def run(self, until: Optional[float] = None) -> None:
        self.engine.run(until=until)

    def run_to_completion(self, generator: Generator, name: str = "") -> Any:
        """Spawn one process and run the engine until it finishes."""
        return self.engine.run_process(generator, name=name)

    @property
    def now(self) -> float:
        return self.engine.now
