"""Lustre parallel-file-system model.

The model captures exactly the behaviours §II-D's adaptive striping reacts
to — nothing more, nothing less:

* **finite per-OST bandwidth** — the aggregate pipe is ``osts x ost_bw``
  and one writer touching ``k`` OSTs can move at most ``k x ost_bw``;
* **shared-file extent-lock contention** — N-to-1 writes degrade with the
  writer count (`LustreSpec.shared_file_efficiency`), the reason DHP's
  file-per-process transformation wins (§II-B1);
* **stripe-synchronisation overhead** — a writer spread over many OSTs pays
  per-OST coordination (`LustreSpec.stripe_sync_efficiency`), the reason
  Eq. 2 caps the per-server stripe count at alpha;
* **load imbalance** — when concurrent writers map unevenly onto OSTs the
  most-loaded OST is the straggler; :meth:`StripingLayout.imbalance`
  computes `max_load / mean_load` for a layout, the quantity Eq. 6 drives
  to 1.

A :class:`StripingLayout` is the explicit writer→OST assignment; UniviStor's
adaptive policy (in :mod:`repro.core.striping`) and the default policies
both *produce* layouts, so experiments compare them on the same substrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.cluster.cpu import mean
from repro.cluster.spec import LustreSpec
from repro.sim.engine import Engine, Event
from repro.storage.device import StorageDevice

if TYPE_CHECKING:
    import numpy as np

__all__ = ["StripingLayout", "LustreFS"]


@dataclass(frozen=True)
class StripingLayout:
    """Which OSTs each of ``writers`` concurrent writers touches.

    ``ost_sets[w]`` is the tuple of OST indices writer ``w`` stripes its
    range across; optional ``weights[w]`` gives the byte fraction of the
    writer's range landing on each of those OSTs (defaults to an even
    split).  The layout is purely descriptive; the policies that build
    layouts live with their owners (ADPT in ``repro.core.striping``,
    defaults here).
    """

    osts: int
    ost_sets: tuple  # tuple[tuple[int, ...], ...]
    weights: Optional[tuple] = None  # tuple[tuple[float, ...], ...] | None

    def __post_init__(self):
        for w, s in enumerate(self.ost_sets):
            if not s:
                raise ValueError(f"writer {w} touches no OSTs")
            for o in s:
                if not 0 <= o < self.osts:
                    raise ValueError(f"writer {w} references OST {o} "
                                     f"outside [0, {self.osts})")
        if self.weights is not None:
            if len(self.weights) != len(self.ost_sets):
                raise ValueError("weights must align with ost_sets")
            for w, (s, ws) in enumerate(zip(self.ost_sets, self.weights)):
                if len(ws) != len(s):
                    raise ValueError(f"writer {w}: weight/OST mismatch")
                if abs(sum(ws) - 1.0) > 1e-6:
                    raise ValueError(f"writer {w}: weights sum to "
                                     f"{sum(ws)}, expected 1")

    @property
    def writers(self) -> int:
        return len(self.ost_sets)

    @property
    def stripe_count_per_writer(self) -> float:
        """Mean number of OSTs a writer touches."""
        return sum(len(s) for s in self.ost_sets) / len(self.ost_sets)

    def ost_loads(self) -> List[float]:
        """Byte-weighted writer load per OST (even split by default)."""
        loads = [0.0] * self.osts
        for w, s in enumerate(self.ost_sets):
            if self.weights is not None:
                for o, share in zip(s, self.weights[w]):
                    loads[o] += share
            else:
                share = 1.0 / len(s)
                for o in s:
                    loads[o] += share
        return loads

    def engaged_osts(self) -> int:
        return sum(1 for load in self.ost_loads() if load)

    def imbalance(self) -> float:
        """max OST load / mean *engaged* OST load (>= 1; 1 = balanced)."""
        engaged = [load for load in self.ost_loads() if load > 0]
        if not engaged:
            return 1.0
        return max(engaged) / mean(engaged)

    # -- canned layouts -----------------------------------------------------
    @staticmethod
    def round_robin(writers: int, osts: int,
                    per_writer: int = 1) -> "StripingLayout":
        """Writer w takes OSTs ``w*per_writer .. +per_writer`` modulo osts."""
        sets = []
        for w in range(writers):
            start = (w * per_writer) % osts
            sets.append(tuple((start + i) % osts for i in range(per_writer)))
        return StripingLayout(osts, tuple(sets))

    @staticmethod
    def all_osts(writers: int, osts: int) -> "StripingLayout":
        """Every writer stripes across every OST (naive wide striping)."""
        full = tuple(range(osts))
        return StripingLayout(osts, tuple(full for _ in range(writers)))

    @staticmethod
    def random(writers: int, osts: int, per_writer: int,
               rng: np.random.Generator) -> "StripingLayout":
        """Each writer lands on ``per_writer`` random OSTs (the paper's
        "write requests are randomly directed to storage units")."""
        sets = []
        for _ in range(writers):
            sets.append(tuple(int(x) for x in
                              rng.choice(osts, size=min(per_writer, osts),
                                         replace=False)))
        return StripingLayout(osts, tuple(sets))


class LustreFS:
    """The PFS: one aggregate pipe plus the contention/striping maths."""

    def __init__(self, engine: Engine, spec: LustreSpec):
        self.engine = engine
        self.spec = spec

        def mixed_workload(resource, flows):
            """Seek-thrash: reads and writes in flight together slow
            every flow to ``mixed_workload_factor`` (disks, not SSDs)."""
            ops = {f.meta.get("op") for f in flows}
            if "read" in ops and "write" in ops:
                return {f: spec.mixed_workload_factor for f in flows}
            return {}

        self.device = StorageDevice(
            engine, "lustre", capacity=spec.capacity,
            bandwidth=spec.aggregate_bandwidth, latency=spec.latency,
            contention_model=mixed_workload)

    # -- derived quantities -------------------------------------------------
    def layout_efficiency(self, layout: StripingLayout) -> float:
        """Per-writer goodput factor implied by a striping layout."""
        sync = self.spec.stripe_sync_efficiency(
            int(round(layout.stripe_count_per_writer)))
        return sync / layout.imbalance()

    def layout_cap(self, layout: StripingLayout) -> float:
        """Per-writer bandwidth ceiling: the OSTs it touches."""
        per_writer = layout.stripe_count_per_writer
        return per_writer * self.spec.ost_bandwidth

    def aggregate_cap(self, layout: StripingLayout) -> float:
        """Ceiling from the engaged-OST subset."""
        return layout.engaged_osts() * self.spec.ost_bandwidth

    # -- timed I/O ------------------------------------------------------------
    def write_shared_file(self, nbytes_per_writer: float, writers: int,
                          stripe_count: Optional[int] = None,
                          per_stream_cap: float = math.inf,
                          efficiency: float = 1.0,
                          tag: str = "lustre-shared-write") -> Event:
        """N writers into one shared file (the Lustre baseline pattern).

        Interleaved N-to-1 writes bounce extent locks between clients; the
        observed aggregate plateaus at ``~plateau_base * sqrt(N)`` however
        many OSTs the file is striped over.
        """
        stripes = stripe_count or self.spec.default_stripe_count
        stripes = min(stripes, self.spec.osts)
        group_cap = min(stripes * self.spec.ost_bandwidth,
                        self.spec.shared_file_plateau(writers))
        cap = min(per_stream_cap, group_cap / writers)
        return self.device.write(nbytes_per_writer, streams=writers,
                                 per_stream_cap=cap,
                                 efficiency=max(1e-3, min(1.0, efficiency)),
                                 tag=tag)

    def write_with_layout(self, nbytes_per_writer: float,
                          layout: StripingLayout,
                          per_stream_cap: float = math.inf,
                          efficiency: float = 1.0,
                          shared_file_writers: int = 0,
                          tag: str = "lustre-write") -> Event:
        """Writers with an explicit writer→OST layout (flush paths).

        ``shared_file_writers`` > 0 additionally applies the (mild)
        contiguous-range shared-file contention — flushes that preserve a
        shared-file on-disk layout conflict at range boundaries.  Data
        Elevator's flush passes its server count; UniviStor's ADPT ranges
        are lock-aligned and pass 0.
        """
        eff = self.layout_efficiency(layout) * efficiency
        if shared_file_writers > 1:
            eff *= self.spec.range_write_efficiency(shared_file_writers)
        writer_cap = min(per_stream_cap, self.layout_cap(layout))
        group_cap = self.aggregate_cap(layout)
        cap = min(writer_cap, group_cap / layout.writers)
        return self.device.write(nbytes_per_writer, streams=layout.writers,
                                 per_stream_cap=cap,
                                 efficiency=max(1e-3, min(1.0, eff)), tag=tag)

    def read_shared_file(self, nbytes_per_reader: float, readers: int,
                         stripe_count: Optional[int] = None,
                         per_stream_cap: float = math.inf,
                         efficiency: float = 1.0,
                         tag: str = "lustre-shared-read") -> Event:
        """N readers from one shared file; read locks are shared, so the
        plateau sits higher than the write plateau."""
        stripes = min(stripe_count or self.spec.default_stripe_count,
                      self.spec.osts)
        eff = efficiency
        group_cap = min(stripes * self.spec.ost_bandwidth,
                        self.spec.shared_file_plateau(readers, read=True))
        cap = min(per_stream_cap, group_cap / readers)
        return self.device.read(nbytes_per_reader, streams=readers,
                                per_stream_cap=cap,
                                efficiency=max(1e-3, min(1.0, eff)), tag=tag)
