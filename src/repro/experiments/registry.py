"""The experiment registry: one named entry point per figure runner.

Every ``experiments/fig*.py`` runner self-registers here when its module
is imported.  The registry names those modules in
:data:`FIGURE_MODULES` and imports them on first use (listing, running or
registering an experiment), so callers ask for experiments by name
instead of hunting per-module functions, and nothing depends on which
modules happen to be imported already::

    from repro import run_experiment
    table = run_experiment("fig7", {"steps": 3})

``config`` is a plain mapping of keyword arguments for the runner — the
same keywords the ``run_fig*`` functions always took.  The multi-job
workload comparison registers as ``"workload"`` (config keys are
:class:`~repro.workloads.WorkloadSpec` fields).

The figure modules have no ``__main__`` entry point of their own: run
them through :func:`run_experiment` or the ``repro figures`` CLI.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Mapping, Optional

__all__ = [
    "list_experiments",
    "register_experiment",
    "run_experiment",
]

#: The figure-runner modules, each registering its runners on import.
FIGURE_MODULES = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10")
_BUILTIN_HOMES = frozenset([__name__] + [f"{__package__}.{module}"
                                         for module in FIGURE_MODULES])

_REGISTRY: Dict[str, Callable] = {}


def _load_figures() -> None:
    """Import every figure module (a no-op once imported), so every
    built-in runner is registered."""
    for module in FIGURE_MODULES:
        import_module(f"{__package__}.{module}")


def register_experiment(name: str, runner: Optional[Callable] = None):
    """Register ``runner`` under ``name`` (usable as a decorator)."""
    if runner is None:
        return lambda fn: register_experiment(name, fn)
    if not name or not isinstance(name, str):
        raise TypeError("experiment name must be a non-empty string")
    if getattr(runner, "__module__", None) not in _BUILTIN_HOMES:
        # A caller's runner must not take a figure's name first.
        _load_figures()
    current = _REGISTRY.get(name)
    if current is not None and current is not runner:
        raise ValueError(f"experiment {name!r} already registered")
    _REGISTRY[name] = runner
    return runner


def run_experiment(name: str, config: Optional[Mapping] = None):
    """Run a registered experiment; returns whatever the runner returns
    (a :class:`~repro.analysis.report.Table` for the figure runners)."""
    _load_figures()
    try:
        runner = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"available: {list_experiments()}") from None
    return runner(**dict(config or {}))


def list_experiments() -> List[str]:
    _load_figures()
    return sorted(_REGISTRY)


# -- the multi-job workload comparison ----------------------------------------

@register_experiment("workload")
def _run_workload(**config):
    """Compare every registered storage scheduler on one generated trace
    (config keys: WorkloadSpec fields)."""
    from repro.analysis.workload import strategy_table
    from repro.workloads import WorkloadSpec, compare_strategies
    from repro.workloads.strategies import available_strategies

    spec = WorkloadSpec(**config)
    results = compare_strategies(spec.generate(), spec=spec,
                                 strategies=available_strategies())
    return strategy_table(results)
