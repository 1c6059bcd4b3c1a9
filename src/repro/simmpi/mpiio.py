"""The MPI-IO file API (the surface applications program against).

Applications call :meth:`File.open` / :meth:`File.write_at_all` /
:meth:`File.read_at_all` / :meth:`File.close` from inside simulation
processes with ``yield from``; every method delegates to the ADIO driver
selected for the file, so swapping UniviStor for Data Elevator or plain
Lustre is a one-string change — exactly the transparency claim of §II-F.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from repro.simmpi.adio import ADIODriver, DriverRegistry, OpenContext
from repro.simmpi.comm import Communicator
from repro.storage.datamodel import Payload

__all__ = ["IORequest", "File"]


@dataclass(frozen=True, slots=True)
class IORequest:
    """One rank's slice of a collective I/O operation.

    For writes, ``payload``/``payload_offset`` describe the data; for reads
    they are unused (``payload=None``).
    """

    rank: int
    offset: int
    length: int
    payload: Optional[Payload] = None
    payload_offset: int = 0

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError(f"negative rank {self.rank}")
        if self.offset < 0:
            raise ValueError(f"negative offset {self.offset}")
        if self.length < 0:
            raise ValueError(f"negative length {self.length}")

    @property
    def end(self) -> int:
        return self.offset + self.length

    @staticmethod
    def contiguous_block(rank: int, block_bytes: int, payload: Payload,
                         payload_offset: int = 0,
                         base_offset: int = 0) -> "IORequest":
        """Rank ``r`` owns the ``r``-th contiguous block — the canonical
        HDF5 micro-benchmark pattern (§III-A)."""
        return IORequest(rank, base_offset + rank * block_bytes, block_bytes,
                         payload, payload_offset)


class File:
    """An open MPI file; thin shim over the resolved ADIO driver."""

    def __init__(self, comm: Communicator, path: str, mode: str,
                 driver: ADIODriver, state: Any):
        self.comm = comm
        self.path = path
        self.mode = mode
        self.driver = driver
        self._state = state
        self._closed = False

    # -- lifecycle --------------------------------------------------------
    @classmethod
    def open(cls, registry: DriverRegistry, comm: Communicator, path: str,
             mode: str, fstype: Optional[str] = None,
             hints: Optional[Dict[str, Any]] = None) -> Generator:
        """Collective MPI_File_open.  ``yield from`` this from a process."""
        driver = registry.resolve(fstype)
        ctx = OpenContext(path=path, mode=mode, comm=comm,
                          hints=dict(hints or {}))
        state = yield from driver.open(ctx)
        return cls(comm, path, mode, driver, state)

    def close(self) -> Generator:
        """Collective MPI_File_close; may trigger asynchronous flushing."""
        self._ensure_open()
        self._closed = True
        yield from self.driver.close(self._state)

    def sync(self) -> Generator:
        """Wait for any asynchronous work (flush) on this file to finish.

        Unlike the other operations this is legal on a closed file: the
        paper measures "Flush" time after MPI_File_close returns.
        """
        yield from self.driver.sync(self._state)

    # -- data -------------------------------------------------------------
    def write_at_all(self, requests: List[IORequest]) -> Generator:
        """Collective write (MPI_File_write_at_all)."""
        self._ensure_open()
        if self.mode == "r":
            raise PermissionError(f"{self.path}: file opened read-only")
        self._validate(requests, writing=True)
        yield from self.driver.write_at_all(self._state, requests)

    def read_at_all(self, requests: List[IORequest]) -> Generator:
        """Collective read; returns ``{rank: [Extent]}``."""
        self._ensure_open()
        if self.mode == "w":
            raise PermissionError(f"{self.path}: file opened write-only")
        self._validate(requests, writing=False)
        result = yield from self.driver.read_at_all(self._state, requests)
        return result

    # -- independent (non-collective) operations --------------------------
    def write_at(self, request: IORequest) -> Generator:
        """Independent MPI_File_write_at by one rank."""
        self._ensure_open()
        if self.mode == "r":
            raise PermissionError(f"{self.path}: file opened read-only")
        self._validate([request], writing=True)
        yield from self.driver.write_at(self._state, request)

    def read_at(self, request: IORequest) -> Generator:
        """Independent MPI_File_read_at; returns the rank's extents."""
        self._ensure_open()
        if self.mode == "w":
            raise PermissionError(f"{self.path}: file opened write-only")
        self._validate([request], writing=False)
        result = yield from self.driver.read_at(self._state, request)
        return result

    # -- internals ------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise ValueError(f"{self.path}: file is closed")

    def _validate(self, requests: List[IORequest], writing: bool) -> None:
        if not requests:
            raise ValueError("collective I/O with no requests")
        for req in requests:
            if req.rank >= self.comm.size:
                raise ValueError(
                    f"request rank {req.rank} outside communicator of size "
                    f"{self.comm.size}")
            if writing and req.length > 0 and req.payload is None:
                raise ValueError(f"write request without payload: {req}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<File {self.path!r} via {self.driver.name} ({state})>"
