"""The benchmark's modules still find every library name they use.

``perfbench`` imports ``sdtlearn`` by name, patches its functions by
attribute and reads their arguments, so a name moved out of the library
or a changed call would otherwise surface only when the benchmark runs.
"""

import hashlib
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


#: sha256 of each workload's reports, one JSON line each, as
#: ``perfbench/run.py`` prints them, at workload seeds 1 and 2.
#: ``l1_acceptance`` is left out: its randomized reports carry HiGHS's last
#: bits, and the l1 pins in test_harness and test_regression cover that path.
REPORT_DIGESTS = {
    ("find_acceptance", 1): "b1c7a349b3959e2d32e31ab190858931369eb2012b587bf706c09bd0cc9d1e5e",
    ("find_acceptance", 2): "9cf17ab0f9a3eda3a99c96999cd89987ba1d0183c7ee2a35fc0a8bbece74255b",
    ("l2_acceptance", 1): "73de31498dc57ef298d0ec4a25577333ab45f99153a067bacfe24c1821a1fbee",
    ("l2_acceptance", 2): "2a48595e7a1a3575f552314a097f0711a7c82b65b11e3049824fcab049114b38",
    ("mc_wide", 1): "9cc4c27de83f9039cf874e5f270426cc39ccc16338152b3312299524aa0b03d6",
    ("mc_wide", 2): "edb14f7cbf8f1d92d57cc69dd6bc79aa3b4f7191328bd643ec29171f47c93a40",
}


@pytest.mark.parametrize("name,seed", REPORT_DIGESTS, ids=[f"{w}-{s}" for w, s in REPORT_DIGESTS])
def test_workload_reports_match_their_digest(load, name, seed):
    configs = load("workloads").WORKLOADS[name].configs(seed)
    reports = "\n".join(harness.run_experiment(cfg).to_json() for cfg in configs)
    assert hashlib.sha256(reports.encode()).hexdigest() == REPORT_DIGESTS[name, seed]


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
