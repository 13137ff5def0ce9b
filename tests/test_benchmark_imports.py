"""The benchmark's modules still find every library name they use.

``perfbench`` imports ``sdtlearn`` by name and patches its functions by
attribute, so a name moved out of the library would otherwise surface
only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sdtlearn.harness import budgets_for

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def load(monkeypatch):
    def load_module(name: str):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up by name while the class body runs.
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    return load_module


def test_checks_module_imports(load):
    load("checks")


def test_every_patched_attribute_exists(load):
    tracing = load("tracing")
    missing = [(owner, attr) for owner, attr, _, _ in tracing.PATCHES if not hasattr(owner, attr)]
    assert missing == []


def test_every_workload_config_passes_its_budgets(load):
    workloads = load("workloads")
    for workload in workloads.WORKLOADS.values():
        for cfg in (workload.base, workload.tiny):
            budgets_for(cfg)
