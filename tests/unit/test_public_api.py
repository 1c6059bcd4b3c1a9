"""The stable public surface of the top-level ``repro`` package, and
the re-exports of the subpackages that resolve them on first access."""

import ast
import importlib
import re
import warnings
from pathlib import Path

import pytest

import repro
from repro import MachineSpec, Simulation, UniviStorConfig
from repro.baselines.data_elevator import DataElevatorConfig

PUBLIC = [
    "FaultSpec",
    "File",
    "IORequest",
    "MachineSpec",
    "PatternPayload",
    "Simulation",
    "Table",
    "Telemetry",
    "UniviStorConfig",
    "WorkloadSpec",
    "run_experiment",
    "run_trace",
]

#: Packages whose ``__all__`` includes re-exports resolved on first
#: access (``repro._lazy``).
LAZY_PACKAGES = ["repro", "repro.analysis", "repro.experiments",
                 "repro.simmpi", "repro.workloads"]

ROOT = Path(__file__).resolve().parents[2]


class TestPublicSurface:
    def test_all_is_exactly_the_documented_surface(self):
        assert sorted(repro.__all__) == PUBLIC

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_star_import_yields_exactly_all(self, package):
        ns = {}
        exec(f"from {package} import *", ns)
        imported = sorted(k for k in ns if not k.startswith("__"))
        assert imported == sorted(importlib.import_module(package).__all__)

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_public_name_resolves(self, package):
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) <= set(dir(pkg))
        for name in pkg.__all__:
            assert getattr(pkg, name) is not None

    def test_moved_symbol_error_names_new_home(self):
        with pytest.raises(AttributeError, match="from repro.core import "
                                                 "StorageTier"):
            repro.StorageTier
        with pytest.raises(AttributeError, match="from repro.sim import "
                                                 "Engine"):
            repro.Engine
        with pytest.raises(AttributeError, match="from repro.analysis import "
                                                 "fmt_markdown_table"):
            repro.fmt_markdown_table

    def test_unknown_attribute_plain_error(self):
        with pytest.raises(AttributeError, match="no attribute 'bogus'"):
            repro.bogus


def pyproject_tables():
    """``pyproject.toml`` as {table: {key: raw value}}, one-line values
    only (enough for the keys checked here, and no TOML parser needed
    on Python 3.10)."""
    tables, current = {}, None
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        header = re.fullmatch(r"\[([\w.-]+)\]", line.strip())
        if header:
            current = tables.setdefault(header.group(1), {})
        elif "=" in line and current is not None and line[0].isalpha():
            key, value = line.split("=", 1)
            current[key.strip()] = value.strip()
    return tables


class TestVersion:
    def test_package_version_is_the_single_source(self):
        tables = pyproject_tables()
        assert "version" not in tables["project"]
        assert '"version"' in tables["project"]["dynamic"]
        assert tables["tool.setuptools.dynamic"]["version"] == (
            '{ attr = "repro.__version__" }')

    def test_version_is_a_static_literal(self):
        """setuptools reads ``attr`` versions statically when the value is
        a plain string assignment, without importing the package."""
        tree = ast.parse(Path(repro.__file__).read_text())
        literals = [node.value.value for node in tree.body
                    if isinstance(node, ast.Assign)
                    and ast.unparse(node.targets[0]) == "__version__"]
        assert literals == [repro.__version__]


class TestConfigKeywordOnly:
    def test_positional_construction_rejected(self):
        with pytest.raises(TypeError):
            UniviStorConfig(())

    def test_keyword_construction_and_variants_work(self):
        cfg = UniviStorConfig(servers_per_node=4, adaptive_striping=False)
        assert cfg.servers_per_node == 4
        assert not cfg.adaptive_striping
        assert UniviStorConfig.dram_only().cache_tiers


class TestInstallDataElevatorForms:
    def _sim(self):
        return Simulation(MachineSpec.cori_haswell(nodes=2))

    def test_config_object_form_no_warning(self):
        sim = self._sim()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            de = sim.install_data_elevator(
                DataElevatorConfig(servers_per_node=3))
        assert de.servers_per_node == 3
        assert de.config.servers_per_node == 3

    def test_default_form_no_warning(self):
        sim = self._sim()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            de = sim.install_data_elevator()
        assert de.servers_per_node == 2

    def test_removed_int_forms_rejected(self):
        sim = self._sim()
        with pytest.raises(TypeError, match="DataElevatorConfig"):
            sim.install_data_elevator(3)
        with pytest.raises(TypeError, match="servers_per_node"):
            sim.install_data_elevator(servers_per_node=3)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DataElevatorConfig(servers_per_node=0)


class TestSignatureSnapshots:
    """Pinned call signatures for the stable surface.

    A drifted snapshot means a breaking API change: either restore the
    signature or update this test *and* docs/API.md together.
    """

    def test_run_trace_signature(self):
        import inspect
        assert str(inspect.signature(repro.run_trace)) == (
            "(trace: 'Union[JobTrace, str, os.PathLike]', *, "
            "spec: 'Optional[WorkloadSpec]' = None) -> 'TraceResult'")

    def test_run_experiment_signature(self):
        import inspect
        assert str(inspect.signature(repro.run_experiment)) == (
            "(name: 'str', config: 'Optional[Mapping]' = None)")

    def test_workload_spec_fields(self):
        import dataclasses
        assert tuple(f.name for f in
                     dataclasses.fields(repro.WorkloadSpec)) == (
            "machine", "nodes", "procs_per_node", "system", "config",
            "chunk_size", "strategy", "strategy_params", "bb_pools",
            "bb_fraction", "max_concurrent", "jobs", "mix", "arrival_rate",
            "mean_mb_per_rank", "max_ranks", "compute_seconds", "seed",
            "fault_spec", "fault_seed", "verify_reads")

    def test_workload_spec_is_kw_only(self):
        with pytest.raises(TypeError):
            repro.WorkloadSpec("small")

    def test_univistor_config_field_superset(self):
        """Config fields may grow (defaults keep old calls working) but
        the existing names must never disappear or reorder."""
        import dataclasses
        names = tuple(f.name for f in
                      dataclasses.fields(repro.UniviStorConfig))
        for required in ("servers_per_node", "chunk_size", "cache_tiers",
                         "flush_enabled", "adaptive_striping",
                         "metadata_replication", "bb_quota_enforced"):
            assert required in names
