"""Adaptive data striping (§II-D, Eqs. 2–6).

UniviStor's flush servers each write one contiguous range of the shared
file to the PFS.  How those ranges map onto OSTs decides the flush
bandwidth; this module computes that mapping.

* **Case 1, servers < OSTs** — maximise each server's bandwidth by
  striping its range across a *distinct* set of
  ``C_per_server = min(C_max_units / C_servers, alpha)`` OSTs (Eq. 2),
  with the stripe size/count of Eqs. 3–4.
* **Case 2, servers >= OSTs** — balance the per-OST writer load.  The
  naive Eq. 5 (``stripe = file / servers``, OSTs round-robin) leaves
  ``servers mod OSTs`` OSTs with an extra writer; Eq. 6 rounds the server
  count up to ``C_dum_servers``, shrinking the stripe so every server's
  range spreads evenly over the OST ring.

:func:`default_plan` builds the non-adaptive baseline: the file striped
with the system default stripe settings, every server's contiguous range
touching (nearly) every OST — the wide-striping synchronisation overhead
the paper calls out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.cluster.spec import LustreSpec
from repro.storage.lustre import StripingLayout

__all__ = ["StripingPlan", "adaptive_plan", "eq5_plan", "default_plan",
           "layout_for_ranges"]


@dataclass(frozen=True)
class StripingPlan:
    """The outcome of a striping decision, ready for the flush path."""

    file_size: float
    servers: int
    stripe_size: float
    stripe_count: int
    per_server_osts: float
    layout: StripingLayout
    adaptive: bool
    #: Eq. 6's C_dum_servers (equals ``servers`` outside case 2).
    dum_servers: int

    @property
    def bytes_per_server(self) -> float:
        return self.file_size / self.servers


def layout_for_ranges(file_size: float, servers: int, stripe_size: float,
                      osts: int, ost_offset: int = 0) -> StripingLayout:
    """Writer→OST sets when each of ``servers`` writers owns the ``s``-th
    contiguous range of the file and stripe ``i`` lives on OST
    ``(i + ost_offset) % osts`` (Lustre's round-robin object allocation)."""
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if stripe_size <= 0:
        raise ValueError(f"stripe_size must be positive, got {stripe_size}")
    per_server = file_size / servers
    sets: List[tuple] = []
    weights: List[tuple] = []
    for s in range(servers):
        start = s * per_server
        end = (s + 1) * per_server
        first = int(start // stripe_size)
        last = int(max(start, end - 1) // stripe_size)
        # A range whose last byte straddles a stripe boundary (a tiny
        # flush over many servers: stripes shorter than a byte) touches
        # the next stripes too; slivers within the weight tolerance stay
        # dropped, as they always were.
        while end - (last + 1) * stripe_size > 1e-6 * per_server:
            last += 1
        span = last - first + 1
        if span >= osts:
            sets.append(tuple(range(osts)))
            weights.append(tuple([1.0 / osts] * osts))
            continue
        # Byte-exact split of the range over its stripes, folded onto the
        # OST ring (stripes of one writer may share an OST when wrapping).
        per_ost: dict = {}
        for stripe in range(first, last + 1):
            lo = max(start, stripe * stripe_size)
            hi = min(end, (stripe + 1) * stripe_size)
            if hi <= lo:
                continue
            ost = (stripe + ost_offset) % osts
            per_ost[ost] = per_ost.get(ost, 0.0) + (hi - lo) / per_server
        items = sorted(per_ost.items())
        sets.append(tuple(o for o, _w in items))
        weights.append(tuple(w for _o, w in items))
    return StripingLayout(osts, tuple(sets), weights=tuple(weights))


def adaptive_plan(file_size: float, servers: int,
                  lustre: LustreSpec) -> StripingPlan:
    """UniviStor's ADPT policy: Eqs. 2–4 (case 1) or Eqs. 5–6 (case 2)."""
    if file_size <= 0:
        raise ValueError(f"file_size must be positive, got {file_size}")
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    units = lustre.osts
    if units // servers >= 2:
        # Case 1: distinct OST sets per server, Eq. 2.  (When servers
        # approach the OST count, Eq. 2's floor division would strand
        # OSTs — e.g. 128 servers on 248 OSTs would engage only 128 — so
        # the balanced case-2 layout below takes over as soon as distinct
        # sets cannot span every OST; the paper leaves this boundary
        # unspecified.)
        per_server = min(units // servers, lustre.saturation_stripe_count)
        per_server = max(1, per_server)
        # Eq. 3 / Eq. 4.
        stripe_size = min(file_size / (servers * per_server),
                          lustre.max_stripe_size)
        stripe_count = int(min(math.ceil(file_size / stripe_size), units))
        # Distinct sets never wrap: servers * per_server <= units.
        sets = tuple(tuple(range(s * per_server, (s + 1) * per_server))
                     for s in range(servers))
        layout = StripingLayout(units, sets)
        return StripingPlan(file_size, servers, stripe_size, stripe_count,
                            float(per_server), layout, adaptive=True,
                            dum_servers=servers)
    # Case 2: Eq. 6 rounds servers up to a multiple of the OST count,
    # shrinking Eq. 5's stripe so per-OST load balances.  (For servers
    # slightly below the OST count this degenerates to one stripe per
    # OST, which spreads every server's range over ~units/servers OSTs —
    # balanced and fully engaged.)
    dum_servers = int(math.ceil(servers / units)) * units
    stripe_size = file_size / dum_servers
    layout = layout_for_ranges(file_size, servers, stripe_size, units)
    stripe_count = units
    per_server = layout.stripe_count_per_writer
    return StripingPlan(file_size, servers, stripe_size, stripe_count,
                        per_server, layout, adaptive=True,
                        dum_servers=dum_servers)


def eq5_plan(file_size: float, servers: int,
             lustre: LustreSpec) -> StripingPlan:
    """Case 2 *without* Eq. 6 — the straggler-prone strawman of §II-D
    (``512 % 248 = 16`` OSTs carry an extra flushing server)."""
    units = lustre.osts
    stripe_size = file_size / servers
    layout = StripingLayout.round_robin(servers, units, per_writer=1)
    return StripingPlan(file_size, servers, stripe_size, units,
                        1.0, layout, adaptive=False, dum_servers=servers)


def default_plan(file_size: float, servers: int,
                 lustre: LustreSpec) -> StripingPlan:
    """The non-ADPT baseline: system-default striping.

    Each server's contiguous range spans many default-size stripes laid
    round-robin over the default stripe count, so every server talks to
    (nearly) every OST — maximal synchronisation overhead, the §II-D
    motivation.
    """
    stripe_size = lustre.default_stripe_size
    units = min(lustre.default_stripe_count, lustre.osts)
    layout = layout_for_ranges(file_size, servers, stripe_size, units)
    return StripingPlan(file_size, servers, stripe_size, units,
                        layout.stripe_count_per_writer, layout,
                        adaptive=False, dum_servers=servers)
