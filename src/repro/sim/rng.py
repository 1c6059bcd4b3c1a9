"""Deterministic random-number streams.

Every stochastic element of the machine model draws from its own named
stream so that adding a new consumer never perturbs existing draws — the
standard trick for reproducible parallel simulations.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["StreamRNG"]


class StreamRNG:
    """A family of independent, named ``numpy`` generators.

    numpy is imported when the first stream is created, so a run that
    never draws a random number never loads it.

    >>> rng = StreamRNG(seed=7)
    >>> a = rng.stream("lustre.ost").integers(0, 10)
    >>> b = StreamRNG(seed=7).stream("lustre.ost").integers(0, 10)
    >>> a == b
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            import numpy as np
            gen = np.random.default_rng(child_seed)
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "StreamRNG":
        """Derive an independent child family (for nested components)."""
        digest = hashlib.sha256(f"{self.seed}:spawn:{name}".encode()).digest()
        return StreamRNG(int.from_bytes(digest[:8], "little"))
