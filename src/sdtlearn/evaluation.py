"""Exact and Monte Carlo error measurement, plus guarantee accounting.

For n up to the enumeration cap every quantity here is computed exactly
by enumerating {0,1}^n: the Bayes error, the classification error of a
hypothesis against the target tree, and the mean-square/mean-absolute
distances used by the regression guarantees.  Above the cap, inputs are
sampled, as packed integers drawn uniformly below 2^n, but tree coins
never are: every error is an average of exact per-input means, and
randomized hypotheses are integrated out in closed form rather than
sampled.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar, Union

import numpy as np

from .regression import TruncatedPolyHypothesis, round_half_up
from .trees import StochasticTree, mean_on_points, mean_vector

Hypothesis = Union[StochasticTree, TruncatedPolyHypothesis]

DEFAULT_ENUMERATION_CAP = 24


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(
            f"exact enumeration over n={n} exceeds the cap {cap}; use mc_error instead"
        )


def exact_opt(tree: StochasticTree, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Bayes error: the exact average of min(mu, 1 - mu) over all inputs."""
    _check_cap(tree.n, cap)
    mu = mean_vector(tree)
    return float(np.mean(np.minimum(mu, 1.0 - mu)))


def _hypothesis_means(hypothesis: Hypothesis, n: int, zs: np.ndarray) -> np.ndarray:
    """Pr[hypothesis outputs 1] at the packed inputs zs over n variables."""
    hyp_n = hypothesis.n if isinstance(hypothesis, StochasticTree) else hypothesis.poly.n
    if hyp_n != n:
        raise ValueError(f"hypothesis is over {hyp_n} variables, expected {n}")
    if isinstance(hypothesis, StochasticTree):
        return mean_on_points(hypothesis, zs)
    q = hypothesis.clamped_packed(zs)
    if hypothesis.mode == "rounded":
        return round_half_up(q).astype(np.float64)
    return q


def _disagreement(tree: StochasticTree, hypothesis: Hypothesis, zs: np.ndarray) -> np.ndarray:
    """Pr[tree(x) != hypothesis(x)] at each packed input: q(1-mu) + (1-q)mu,
    where q is the hypothesis's own output probability, so the coins of
    neither side are ever sampled."""
    mu = mean_on_points(tree, zs)
    q = _hypothesis_means(hypothesis, tree.n, zs)
    return q + mu - 2.0 * q * mu


def exact_error(
    tree: StochasticTree, hypothesis: Hypothesis, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """Exact disagreement probability E_x Pr[tree(x) != hypothesis(x)]."""
    _check_cap(tree.n, cap)
    return float(np.mean(_disagreement(tree, hypothesis, np.arange(1 << tree.n, dtype=np.int64))))


def _draw_inputs(n: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """``trials`` packed inputs drawn uniformly from {0,1}^n."""
    if trials < 1:
        raise ValueError("need at least one trial")
    return rng.integers(0, 1 << n, size=trials, dtype=np.int64)


def mc_opt(tree: StochasticTree, trials: int, rng: np.random.Generator) -> float:
    """Monte Carlo Bayes error: sampled inputs, exact per-input means, so an
    unbiased estimate without enumerating {0,1}^n."""
    mu = mean_on_points(tree, _draw_inputs(tree.n, trials, rng))
    return float(np.mean(np.minimum(mu, 1.0 - mu)))


def mc_error(
    tree: StochasticTree,
    hypothesis: Hypothesis,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo disagreement estimate with its standard error.

    Only the inputs are sampled; the disagreement at each is exact, so the
    estimate carries no noise from the coins of either tree.
    """
    per_input = _disagreement(tree, hypothesis, _draw_inputs(tree.n, trials, rng))
    estimate = float(np.mean(per_input))
    stderr = float(np.sqrt(max(float(np.var(per_input)), 1e-12) / trials))
    return estimate, stderr


def guarantee_bound(method: str, opt: float, eta: float, eps: float) -> float:
    """The error level each learner is promised not to exceed."""
    if method == "find":
        return opt + 2.0 * eta + eps
    if method == "l2":
        return opt + 2.0 * np.sqrt(3.0 * eps + 2.0 * eta) + eps
    if method == "l1":
        return 2.0 * opt + 2.0 * eta + eps
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class ErrorReport:
    """One experiment's guarantee accounting; negative margin means the
    guarantee held.  ``bound`` and ``margin`` are derived from the rest."""

    method: str
    n: int
    s: int
    m: int
    eta: float
    eps: float
    seed: int
    adversary: str
    depth_budget: int | None
    degree_budget: int | None
    opt: float
    hypothesis_error: float
    bound: float = field(init=False)
    margin: float = field(init=False)
    error_estimation: str = "exact"

    #: CSV column order: the field order.
    CSV_FIELDS: ClassVar[tuple[str, ...]]

    def __post_init__(self) -> None:
        bound = float(guarantee_bound(self.method, self.opt, self.eta, self.eps))
        if not 0.0 <= self.opt <= 0.5 + 1e-12:
            raise ValueError(f"opt={self.opt} outside [0, 1/2]")
        if not 0.0 <= self.hypothesis_error <= 1.0 + 1e-12:
            raise ValueError(f"hypothesis_error={self.hypothesis_error} outside [0, 1]")
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "margin", self.hypothesis_error - bound)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def to_csv_row(self) -> str:
        return ",".join(
            "" if v is None else repr(v) if isinstance(v, float) else str(v)
            for v in asdict(self).values()
        )

    @staticmethod
    def csv_header() -> str:
        return ",".join(ErrorReport.CSV_FIELDS)


ErrorReport.CSV_FIELDS = tuple(f.name for f in fields(ErrorReport))
