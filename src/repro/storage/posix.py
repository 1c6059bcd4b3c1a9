"""A path namespace of simulated files.

:class:`FileStore` is the *functional* half of a file system: a mapping
from paths to :class:`SimFile` objects whose contents are
:class:`~repro.storage.datamodel.ExtentMap` instances.  It carries no
timing — the timed half is the device models; UniviStor, Data Elevator and
the Lustre baseline each pair a ``FileStore`` with the appropriate device.
"""

from __future__ import annotations

import posixpath
from typing import Dict, Iterator, List, Tuple

from repro.storage.datamodel import CorruptPayload, ExtentMap, Payload

__all__ = ["SimFile", "FileStore"]


class SimFile:
    """One simulated file: its path, its store and an extent map."""

    __slots__ = ("path", "store", "data")

    def __init__(self, path: str, store: "FileStore"):
        self.path = path
        self.store = store
        self.data = ExtentMap()

    @property
    def size(self) -> int:
        return self.data.size

    def write_at(self, offset: int, length: int, payload: Payload,
                 payload_offset: int = 0) -> None:
        self.data.write(offset, length, payload, payload_offset)

    def read_at(self, offset: int, length: int):
        return self.data.read(offset, length)

    def read_bytes(self, offset: int, length: int) -> bytes:
        return self.data.read_bytes(offset, length)

    # -- integrity (fault injection + scrubbing) -------------------------
    def corrupt_at(self, offset: int, length: int, token: int) -> None:
        """Rot ``[offset, offset+length)``: the stored bytes change but the
        recorded checksums do not (that mismatch *is* the corruption).
        Clipped to the written size — rot cannot extend a file."""
        end = min(offset + length, self.size)
        if end <= offset:
            return
        self.data.write(offset, end - offset, CorruptPayload(token))

    def corrupt_ranges(self, offset: int, length: int
                       ) -> List[Tuple[int, int]]:
        """Checksum-verify a range: ``(offset, length)`` of every piece
        whose content no longer matches its recorded checksum."""
        return [(e.offset, e.length) for e in self.data.read(offset, length)
                if isinstance(e.payload, CorruptPayload)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimFile {self.path!r} size={self.size}>"


class FileStore:
    """A flat namespace of :class:`SimFile` objects with POSIX-ish paths."""

    def __init__(self, name: str = ""):
        self.name = name
        self._files: Dict[str, SimFile] = {}

    @staticmethod
    def _norm(path: str) -> str:
        if not path or not path.startswith("/"):
            raise ValueError(f"path must be absolute, got {path!r}")
        return posixpath.normpath(path)

    def create(self, path: str, exist_ok: bool = True) -> SimFile:
        path = self._norm(path)
        existing = self._files.get(path)
        if existing is not None:
            if not exist_ok:
                raise FileExistsError(path)
            return existing
        f = SimFile(path, self)
        self._files[path] = f
        return f

    def open(self, path: str) -> SimFile:
        path = self._norm(path)
        f = self._files.get(path)
        if f is None:
            raise FileNotFoundError(path)
        return f

    def exists(self, path: str) -> bool:
        return self._norm(path) in self._files

    def unlink(self, path: str) -> None:
        path = self._norm(path)
        if path not in self._files:
            raise FileNotFoundError(path)
        del self._files[path]

    def listdir(self, prefix: str = "/") -> List[str]:
        prefix = self._norm(prefix)
        if not prefix.endswith("/"):
            prefix += "/"
        if prefix == "//":
            prefix = "/"
        return sorted(p for p in self._files if p.startswith(prefix))

    def __iter__(self) -> Iterator[SimFile]:
        return iter(self._files.values())

    def __len__(self) -> int:
        return len(self._files)

    def total_bytes(self) -> int:
        return sum(f.data.bytes_stored for f in self._files.values())
