"""Simulated MPI substrate.

The paper implements UniviStor as an I/O driver inside MPI-IO's
Abstract-Device Interface (ADIO, §II-F), so the reproduction provides the
same seams:

* :class:`~repro.simmpi.comm.Communicator` — a parallel application's
  ranks, their node placement and (timed) small-message collectives.
* :class:`~repro.simmpi.mpiio.File` — the MPI-IO file API
  (``open``/``write_at_all``/``read_at_all``/``close``) expressed as
  simulation generators.
* :mod:`~repro.simmpi.adio` — the driver registry; UniviStor, Data
  Elevator and the plain-Lustre baseline all plug in as ADIO drivers, and
  are selected per job exactly like ``ROMIO_FSTYPE_FORCE`` selects them on
  a real system.

The collective I/O path imports with the package; the datatypes and the
point-to-point messaging layer load on first access.
"""

from repro._lazy import lazy_exports
from repro.simmpi.comm import Communicator
from repro.simmpi.adio import ADIODriver, DriverRegistry, OpenContext
from repro.simmpi.mpiio import File, IORequest

__all__ = [
    "ADIODriver",
    "BYTE",
    "CHAR",
    "Communicator",
    "Datatype",
    "DOUBLE",
    "DriverRegistry",
    "FLOAT",
    "File",
    "INT",
    "IORequest",
    "Message",
    "MessageContext",
    "OpenContext",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "BYTE": "repro.simmpi.datatypes",
    "CHAR": "repro.simmpi.datatypes",
    "DOUBLE": "repro.simmpi.datatypes",
    "Datatype": "repro.simmpi.datatypes",
    "FLOAT": "repro.simmpi.datatypes",
    "INT": "repro.simmpi.datatypes",
    "Message": "repro.simmpi.p2p",
    "MessageContext": "repro.simmpi.p2p",
})
