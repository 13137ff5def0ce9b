"""Experiment orchestration: generate, corrupt, learn, evaluate, report.

A single seed fully determines an experiment: it is split into
independent streams for tree generation, sampling, corruption, and
learning, so identical configs produce byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .data import Adversary, corrupt, draw_clean
from .evaluation import DEFAULT_ENUMERATION_CAP, ErrorReport, Hypothesis, exact_error, exact_opt, mc_error
from .find import check_table_budget, find
from .polynomials import MAX_PACKED_VARS
from .regression import check_budget, degree_budget, learn_pipeline
from .trees import StochasticTree, random_tree

METHODS = ("find", "l1", "l2")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    s: int
    m: int
    eps: float
    method: str = "find"
    stoch_fraction: float = 0.3
    eta: float = 0.0
    adversary: str = "none"
    seed: int = 0
    max_depth: int = 6
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    mc_trials: int = 200_000

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_PACKED_VARS:
            raise ValueError(f"n must lie in [1, {MAX_PACKED_VARS}]")
        if self.s < 1:
            raise ValueError("s must be positive")
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        # One spelling per value in the reports: 0, -0.0 and 0.0 all read 0.0.
        object.__setattr__(self, "eta", float(self.eta) + 0.0)
        if not 0.0 <= self.stoch_fraction <= 1.0:
            raise ValueError("stoch_fraction must lie in [0, 1]")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        Adversary(self.adversary)  # raises on unknown kinds
        if self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        if not 0 <= self.enumeration_cap <= DEFAULT_ENUMERATION_CAP:
            raise ValueError(f"enumeration_cap must lie in [0, {DEFAULT_ENUMERATION_CAP}]")
        if self.mc_trials < 1:
            raise ValueError("mc_trials must be positive")


def find_depth_budget(s: int, eps: float, max_depth: int) -> int:
    """Depth for the table search: ceil(log2(stacked_size / eps))
    with stacked_size = s^c, c = ceil(1/eps^2) copies as
    ``trees.stochastic_leaf_approx`` stacks, clamped to the configured cap.
    It is c log2(s) - log2(eps), so no size is too large.  For s > 1 it
    exceeds c, so once 1/eps^2 passes max_depth + 1 the cap decides and c
    is never formed.  Only a cap of 2^1000 or more lets c near the end of
    the float range, and there c and the budget are formed exactly: no
    positive eps is too small under any cap."""
    log_eps = math.log2(eps)
    if s == 1:
        raw = -log_eps
    elif -2.0 * log_eps > math.log2(max_depth + 1):
        return max_depth
    elif log_eps > -500:
        raw = math.ceil(1.0 / (eps * eps)) * math.log2(s) - log_eps
    else:
        p, q = eps.as_integer_ratio()
        c = -(-q * q // (p * p))
        return min(max_depth, math.ceil(c * Fraction(math.log2(s)) - Fraction(log_eps + 1e-12)))
    return min(max_depth, max(0, math.ceil(raw - 1e-12)))


def budgets_for(cfg: ExperimentConfig) -> tuple[int | None, int | None]:
    """(depth budget, degree budget) for the configured method; validates
    feasibility before any data is generated."""
    if cfg.method == "find":
        depth = find_depth_budget(cfg.s, cfg.eps, cfg.max_depth)
        check_table_budget(cfg.n, depth)
        return depth, None
    degree = degree_budget(cfg.s, cfg.eps, cfg.n)
    # l2 builds one row per distinct input, the dual l1 LP one per distinct
    # (input, label) pair.
    rows = min(cfg.m, 2**cfg.n) * (1 if cfg.method == "l2" else 2)
    check_budget(cfg.method, cfg.n, degree, rows)
    return None, degree


def run_experiment(cfg: ExperimentConfig) -> ErrorReport:
    depth, degree = budgets_for(cfg)

    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_tree, rng_sample, rng_corrupt, rng_eval = (np.random.default_rng(s) for s in streams)

    tree = random_tree(cfg.n, cfg.s, cfg.stoch_fraction, rng_tree)
    clean = draw_clean(tree, cfg.m, rng_sample)
    corrupted = corrupt(clean, cfg.eta, Adversary(cfg.adversary), tree, rng_corrupt)

    if cfg.method == "find":
        hypothesis = find(corrupted, depth).tree
    else:
        hypothesis = learn_pipeline(corrupted, cfg.method, degree)
    return report(cfg, tree, hypothesis, depth, degree, rng_eval)


def report(
    cfg: ExperimentConfig,
    tree: StochasticTree,
    hypothesis: Hypothesis,
    depth: int | None,
    degree: int | None,
    rng: np.random.Generator,
) -> ErrorReport:
    """Evaluate the hypothesis against the target tree and account for the
    guarantee: exactly when the tree's n is within ``cfg.enumeration_cap``,
    otherwise by Monte Carlo over one draw of ``cfg.mc_trials`` inputs from
    rng, shared by opt and the hypothesis's error.
    n comes from the tree and everything else from cfg."""
    if tree.n <= cfg.enumeration_cap:
        opt = exact_opt(tree)
        err = exact_error(tree, hypothesis)
        estimation = "exact"
    else:
        opt, err, _ = mc_error(tree, hypothesis, cfg.mc_trials, rng)
        estimation = "monte_carlo"

    return ErrorReport(
        method=cfg.method,
        opt=opt,
        hypothesis_error=err,
        eta=cfg.eta,
        eps=cfg.eps,
        n=tree.n,
        s=cfg.s,
        m=cfg.m,
        seed=cfg.seed,
        adversary=cfg.adversary,
        depth_budget=depth,
        degree_budget=degree,
        error_estimation=estimation,
    )


@dataclass(frozen=True)
class SweepAggregate:
    method: str
    eta: float
    trials: int
    success_rate: float
    mean_opt: float
    mean_error: float


def sweep_grid(base: ExperimentConfig, etas: Sequence[float], trials: int) -> Iterator[ExperimentConfig]:
    """One config per (eta, trial), each made when it is asked for; trial i
    runs with seed base.seed + i.  The grid is checked before it is returned."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if len(set(etas)) != len(etas):
        raise ValueError(f"eta grid {list(etas)} repeats a value")
    return (replace(base, eta=eta, seed=base.seed + i) for eta in etas for i in range(trials))


def aggregate(reports: Iterable[ErrorReport]) -> list[SweepAggregate]:
    """One aggregate per (method, eta), in sorted order, from running sums
    kept in report order; each report is dropped once it is counted."""
    sums: dict[tuple[str, float], list] = {}
    for rep in reports:
        acc = sums.setdefault((rep.method, rep.eta), [0, 0, 0, 0])
        acc[0] += 1
        acc[1] += rep.margin <= 0
        acc[2] += rep.opt
        acc[3] += rep.hypothesis_error
    return [
        SweepAggregate(method=method, eta=eta, trials=count, success_rate=passed / count,
                       mean_opt=opt / count, mean_error=error / count)
        for (method, eta), (count, passed, opt, error) in sorted(sums.items())
    ]


def run_sweep(configs: Iterable[ExperimentConfig]) -> tuple[list[ErrorReport], list[SweepAggregate]]:
    reports = [run_experiment(cfg) for cfg in configs]
    return reports, aggregate(reports)


def csv_rows(reports: Iterable[ErrorReport], fh: TextIO) -> Iterator[ErrorReport]:
    """Write the CSV header to fh, then each report's row as it passes."""
    fh.write(ErrorReport.csv_header() + "\n")
    for rep in reports:
        fh.write(rep.to_csv_row() + "\n")
        yield rep


def write_csv(reports: Iterable[ErrorReport], path: str) -> None:
    with open(path, "w") as fh:
        for _ in csv_rows(reports, fh):
            pass
