"""The benchmark's modules still find every library name they use.

``perfbench`` imports ``sdtlearn`` by name, patches its functions by
attribute and reads their arguments, so a name moved out of the library
or a changed call would otherwise surface only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sdtlearn import harness
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


def test_every_tiny_workload_runs_traced_and_passes_its_checks(load):
    # The traced child's path on each workload's warm-up config: spans,
    # the captured target and hypothesis, distinct inputs, then the checks.
    tracing, workloads, checks = load("tracing"), load("workloads"), load("checks")
    for workload in workloads.WORKLOADS.values():
        cfg = workload.tiny
        tracer = tracing.Tracer()
        tracer.exp = 0
        with tracing.installed(tracer):
            report = harness.run_experiment(cfg).to_json()
        tracer.count_distinct_inputs()
        captured = tracer.captured.pop(0)
        assert checks.check_report(cfg, report, checks.dump_capture(*captured)) == []


def test_every_tiny_workload_records_its_layer_counters(load):
    # The per-layer metrics are read from these spans and counters, so a
    # learner that stopped being called by its traced name, or a counter
    # that stopped being filled, would read 0 in the benchmark.
    tracing, workloads = load("tracing"), load("workloads")
    fits = ("regression.l1_regress", "regression.l2_regress")
    for name, workload in workloads.WORKLOADS.items():
        cfg = workload.tiny
        tracer = tracing.Tracer()
        tracer.exp = 0
        with tracing.installed(tracer):
            harness.run_experiment(cfg)
        spans: dict[str, list] = {}
        for span in tracer.spans:
            spans.setdefault(span.name, []).append(span)
        assert [s.name for s in tracer.spans if s.name in fits] == (
            [] if cfg.method == "find" else [f"regression.{cfg.method}_regress"]
        ), name
        if cfg.method == "find":
            assert [s.counts["nodes_expanded"] > 0 for s in spans["find.find"]] == [True], name
        if cfg.method == "l1":
            lps = spans["regression.linprog"]
            assert lps and all(s.counts["lp_rows"] > 0 for s in lps), name
        if name == "mc_wide":
            assert [s.counts["trials"] for s in spans["evaluation.mc_error"]] == [cfg.mc_trials]
