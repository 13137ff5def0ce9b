"""Exact and Monte Carlo error measurement, plus guarantee accounting.

For n up to the enumeration cap every quantity here is computed exactly
by enumerating {0,1}^n: the Bayes error, the classification error of a
hypothesis against the target tree, and the mean-square/mean-absolute
distances used by the regression guarantees.  Above the cap, inputs are
sampled, as packed integers drawn uniformly below 2^n, but tree coins
never are: every error is an average of exact per-input means, and
randomized hypotheses are integrated out in closed form rather than
sampled.  One draw serves both the Bayes error and the hypothesis's
error, so the two estimates share their sampling noise.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar, Union

import numpy as np

from .regression import TruncatedPolyHypothesis
from .trees import StochasticTree, mean_on_points, mean_vector

Hypothesis = Union[StochasticTree, TruncatedPolyHypothesis]

DEFAULT_ENUMERATION_CAP = 24


def _check_cap(n: int) -> None:
    """Refuse to enumerate 2^n inputs past the cap, before allocating any."""
    if n > DEFAULT_ENUMERATION_CAP:
        raise ValueError(
            f"exact enumeration over n={n} exceeds the cap {DEFAULT_ENUMERATION_CAP}; "
            "use mc_error instead"
        )


def _bayes_error(mu: np.ndarray) -> float:
    """E[min(mu, 1 - mu)]: the Bayes error over inputs with target means mu."""
    return float(np.mean(np.minimum(mu, 1.0 - mu)))


def exact_opt(tree: StochasticTree) -> float:
    """Bayes error: the exact average of min(mu, 1 - mu) over all inputs."""
    _check_cap(tree.n)
    return _bayes_error(mean_vector(tree))


def _hypothesis_means(hypothesis: Hypothesis, n: int, zs: np.ndarray) -> np.ndarray:
    """Pr[hypothesis outputs 1] at the packed inputs zs over n variables."""
    hyp_n = hypothesis.n if isinstance(hypothesis, StochasticTree) else hypothesis.poly.n
    if hyp_n != n:
        raise ValueError(f"hypothesis is over {hyp_n} variables, expected {n}")
    if isinstance(hypothesis, StochasticTree):
        return mean_on_points(hypothesis, zs)
    return hypothesis.means(zs)


def _disagreement(mu: np.ndarray, hypothesis: Hypothesis, n: int, zs: np.ndarray) -> np.ndarray:
    """Pr[tree(x) != hypothesis(x)] at each packed input, given the target's
    means mu there: q(1-mu) + (1-q)mu, where q is the hypothesis's own
    output probability, so the coins of neither side are ever sampled."""
    q = _hypothesis_means(hypothesis, n, zs)
    return q + mu - 2.0 * q * mu


def exact_error(tree: StochasticTree, hypothesis: Hypothesis) -> float:
    """Exact disagreement probability E_x Pr[tree(x) != hypothesis(x)]."""
    _check_cap(tree.n)
    zs = np.arange(1 << tree.n, dtype=np.int64)
    return float(np.mean(_disagreement(mean_on_points(tree, zs), hypothesis, tree.n, zs)))


def mc_error(
    tree: StochasticTree,
    hypothesis: Hypothesis,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """Monte Carlo (Bayes error, disagreement estimate, its standard error),
    both from one draw of ``trials`` packed inputs and one pass of the
    target's means over it.  The means are exact, so no coin is sampled."""
    if trials < 1:
        raise ValueError("need at least one trial")
    zs = rng.integers(0, 1 << tree.n, size=trials, dtype=np.int64)
    mu = mean_on_points(tree, zs)
    per_input = _disagreement(mu, hypothesis, tree.n, zs)
    stderr = float(np.sqrt(max(float(np.var(per_input)), 1e-12) / trials))
    return _bayes_error(mu), float(np.mean(per_input)), stderr


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
