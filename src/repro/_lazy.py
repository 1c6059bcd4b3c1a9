"""Re-exports that resolve on first access (PEP 562).

A package that bundles optional subsystems lists every public name in
``__all__`` as usual, imports the always-used ones eagerly, and hands the
rest to :func:`lazy_exports` with the module each one lives in::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "run_trace": "repro.workloads.engine",
    })

The home module is imported the first time the name is read (attribute
access, ``from pkg import name`` or ``from pkg import *``); the value is
then stored on the package, so later reads are plain attribute hits.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, homes: Mapping[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module-level ``__getattr__`` and ``__dir__`` for ``package`` that
    resolve each name in ``homes`` (name -> home module) on first use."""

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(home), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(homes))

    return __getattr__, __dir__
