"""Experiment runners: one module per figure of the evaluation (§III).

Every runner returns a :class:`repro.analysis.report.Table` whose rows are
process counts and whose columns are the figure's series, so the benchmark
harness can print the same rows the paper plots and assert the ratio bands
DESIGN.md records.

Entry point: the registry.  ``run_experiment("fig7", {"steps": 3})`` runs
a figure by name, and :func:`list_experiments` names every figure runner
plus the multi-job ``"workload"`` comparison; the registry imports the
figure modules on first use, so importing this package loads none of
them.  The ``run_fig*`` names stay re-exported for compatibility and load
their module on first access.
"""

from repro._lazy import lazy_exports
from repro.experiments.registry import (list_experiments,
                                        register_experiment, run_experiment)
from repro.experiments.common import PAPER_SWEEP, SMALL_SWEEP, build_simulation

__all__ = [
    "PAPER_SWEEP",
    "SMALL_SWEEP",
    "build_simulation",
    "list_experiments",
    "register_experiment",
    "run_experiment",
    "run_fig5a",
    "run_fig5b",
    "run_fig5c",
    "run_fig6a",
    "run_fig6b",
    "run_fig6c",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "run_fig5a": "repro.experiments.fig5",
    "run_fig5b": "repro.experiments.fig5",
    "run_fig5c": "repro.experiments.fig5",
    "run_fig6a": "repro.experiments.fig6",
    "run_fig6b": "repro.experiments.fig6",
    "run_fig6c": "repro.experiments.fig6",
    "run_fig7": "repro.experiments.fig7",
    "run_fig8": "repro.experiments.fig8",
    "run_fig9": "repro.experiments.fig9",
    "run_fig10": "repro.experiments.fig10",
})
