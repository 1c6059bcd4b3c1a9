"""The name the record list had as the client-side location cache.

The metadata service keeps one record list per file and every lookup
bisects it (docs/MODEL.md §9), so the cache that mirrored it is gone.
:class:`LocationCache` names that list's class, so code that imported
the cache keeps working: ``lookup(fid, offset, length)`` answers from
the list and ``insert_records(records)`` applies records to it.
"""

from repro.core.metadata import RecordMap as LocationCache

__all__ = ["LocationCache"]
