"""Measurement and reporting utilities.

:class:`OpRecord` / :class:`Telemetry` and the report tables import with
the package; the timeline, utilisation and workload-comparison views
load on first access.
"""

from repro._lazy import lazy_exports
from repro.analysis.metrics import OpRecord, Telemetry
from repro.analysis.report import Table, fmt_markdown_table

__all__ = [
    "Lane",
    "OpRecord",
    "ResourceUsage",
    "Table",
    "Telemetry",
    "Timeline",
    "UtilisationReport",
    "build_timeline",
    "fmt_markdown_table",
    "machine_utilisation",
    "strategy_table",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "Lane": "repro.analysis.timeline",
    "ResourceUsage": "repro.analysis.utilisation",
    "Timeline": "repro.analysis.timeline",
    "UtilisationReport": "repro.analysis.utilisation",
    "build_timeline": "repro.analysis.timeline",
    "machine_utilisation": "repro.analysis.utilisation",
    "strategy_table": "repro.analysis.workload",
})
