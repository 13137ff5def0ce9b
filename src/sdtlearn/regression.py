"""Low-degree polynomial regression learners and their hypotheses.

Both learners fit a degree-bounded multilinear polynomial to the
dataset's count table (distinct inputs with their 0- and 1-label
counts), which leaves both optima unchanged and keeps the solves small.
Both check the size of their design matrix before they build it.

``l2_regress`` minimizes mean squared error.  With Phi the monomial
design matrix over the u distinct inputs, W = c0 + c1 their row counts
and c1 their 1-label counts, it solves the normal equations
Phi^T W Phi b = Phi^T c1 by a pivoted (rank-revealing) Cholesky
factorization of the Gram matrix.  When the rank falls short of the
feature count the solution is not unique, and the minimum-norm one comes
from ``lstsq`` on the weighted distinct-input rows instead.

``l1_regress`` minimizes mean absolute error through the dual linear
program over one weighted row per distinct (input, label) pair,
certified by its duality gap.

Hypotheses clamp the fitted polynomial to [0,1]; the rounded mode
thresholds at one half (ties, up to ROUND_TIE_TOL, round to 1), the
randomized mode outputs 1 with the clamped probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Sequence

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpstrf
from scipy.optimize import linprog

from .polynomials import (
    MultilinearPolynomial,
    feature_count,
    monomials,
    trunc,
    trunc_array,
)
from .trees import pack_inputs

if TYPE_CHECKING:
    from .data import Dataset

DEFAULT_FEATURE_CAP = 20_000

#: Largest float64 design matrix (rows x monomial features) a fit may
#: build; the solvers' own copies come on top of it.
DESIGN_BYTES_CAP = 1 << 30

#: Clamped fits within this distance below one half round to 1, as exact
#: ties do, so that the last bits of a solver cannot decide a tie.
ROUND_TIE_TOL = 1e-9

#: Largest duality gap, per sample row, that certifies an L1 fit optimal.
L1_CERTIFICATE_TOL = 1e-9


class FeatureBudgetExceeded(ValueError):
    """The monomial basis or its design matrix would exceed its cap."""


class L1SolverError(Exception):
    """The LP solver failed or its fit was not certified optimal;
    ``incumbent`` carries the uncertified fit, if there is one."""

    def __init__(self, message: str, incumbent: MultilinearPolynomial | None = None):
        super().__init__(message)
        self.incumbent = incumbent


def check_budget(n: int, d: int, rows: int, feature_cap: int) -> None:
    """Reject a degree-d fit over n variables and ``rows`` design rows
    whose monomial basis exceeds ``feature_cap`` or whose design matrix
    exceeds DESIGN_BYTES_CAP, before anything is allocated."""
    count = feature_count(n, d)
    if count > feature_cap:
        raise FeatureBudgetExceeded(
            f"degree {d} over {n} variables needs {count} features, cap is {feature_cap}"
        )
    nbytes = rows * count * 8
    if nbytes > DESIGN_BYTES_CAP:
        raise FeatureBudgetExceeded(
            f"{rows} rows x {count} features need a {nbytes / 2**30:.1f} GiB design "
            f"matrix, cap is {DESIGN_BYTES_CAP / 2**30:.1f} GiB"
        )


def _grouped_rows(dataset: "Dataset") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (input, label) pairs with multiplicities, by input then label."""
    zs, c0, c1, _ = dataset.counts()
    w = np.stack([c0, c1], axis=1).ravel()
    keep = w > 0
    ys = np.tile(np.array([0.0, 1.0]), zs.size)
    return np.repeat(zs, 2)[keep], ys[keep], w[keep].astype(np.float64)


def _design_matrix(zs: np.ndarray, monos: list[tuple[int, ...]]) -> np.ndarray:
    phi = np.empty((zs.size, len(monos)), dtype=np.float64)
    for j, mono in enumerate(monos):
        mask = 0
        for i in mono:
            mask |= 1 << i
        phi[:, j] = (zs & mask) == mask
    return phi


def _to_poly(n: int, d: int, monos: list[tuple[int, ...]], beta: np.ndarray) -> MultilinearPolynomial:
    coeffs = {mono: float(b) for mono, b in zip(monos, beta) if b != 0.0}
    return MultilinearPolynomial(n, d, coeffs)


def l2_regress(dataset: "Dataset", d: int, feature_cap: int = DEFAULT_FEATURE_CAP) -> MultilinearPolynomial:
    """Least-squares fit over degree-<= d monomials (minimum-norm on ties).

    Over the u distinct inputs, with A = sqrt(W) Phi and t = c1 / sqrt(W),
    the sample's squared error is |A b - t|^2 up to a constant.  When
    u >= F (the feature count) the Gram matrix G = A^T A is formed with one
    ``dsyrk`` and factored by ``dpstrf`` (LAPACK's default tolerance); at
    full rank b solves G b = A^T t by ``cho_solve``.  When u < F or the
    rank falls short of F, G is singular, and the minimum-norm b comes
    from ``lstsq(A, t)``.
    """
    if d > dataset.n:
        raise ValueError(f"degree {d} exceeds the variable count {dataset.n}")
    zs, c0, c1, _ = dataset.counts()
    check_budget(dataset.n, d, zs.size, feature_cap)
    monos = monomials(dataset.n, d)
    sw = np.sqrt((c0 + c1).astype(np.float64))
    a = _design_matrix(zs, monos)
    a *= sw[:, None]
    t = c1 / sw
    f = len(monos)
    if zs.size >= f:
        # a.T is Fortran-ordered, so dsyrk reads it without a copy; both
        # routines use the upper triangle only.
        chol, piv, rank, _ = dpstrf(dsyrk(1.0, a.T), overwrite_a=1)
        if rank == f:
            order = piv - 1
            beta = np.empty(f)
            beta[order] = cho_solve((chol, False), (a.T @ t)[order], check_finite=False)
            return _to_poly(dataset.n, d, monos, beta)
    beta, *_ = np.linalg.lstsq(a, t, rcond=None)
    return _to_poly(dataset.n, d, monos, beta)


def l1_objective(poly: MultilinearPolynomial, dataset: "Dataset") -> float:
    """Mean absolute error of the polynomial against the dataset labels."""
    preds = poly.evaluate_packed(pack_inputs(dataset.xs))
    return float(np.mean(np.abs(preds - dataset.ys)))


def l2_objective(poly: MultilinearPolynomial, dataset: "Dataset") -> float:
    preds = poly.evaluate_packed(pack_inputs(dataset.xs))
    return float(np.mean((preds - dataset.ys) ** 2))


def l1_regress(dataset: "Dataset", d: int, feature_cap: int = DEFAULT_FEATURE_CAP) -> MultilinearPolynomial:
    """Least-absolute-deviations fit over degree-<= d monomials.

    The primal  min_b sum_i w_i |phi_i b - y_i|  is solved through its dual

        max y^T u  s.t.  phi^T u = 0,  -w <= u <= w,

    an LP with one equality row per feature over one bounded variable per
    grouped row; b is read from the equality rows' multipliers.  Strong
    duality certifies b: its primal objective may exceed the dual optimum
    by at most L1_CERTIFICATE_TOL per sample row, otherwise L1SolverError
    is raised with b as its incumbent.
    """
    if d > dataset.n:
        raise ValueError(f"degree {d} exceeds the variable count {dataset.n}")
    zs, ys, w = _grouped_rows(dataset)
    check_budget(dataset.n, d, zs.size, feature_cap)
    if zs.size == 0:  # every polynomial is optimal; HiGHS rejects an LP without variables
        return MultilinearPolynomial(dataset.n, d, {})
    monos = monomials(dataset.n, d)
    phi = _design_matrix(zs, monos)

    bounds = np.stack([-w, w], axis=1)
    res = linprog(-ys, A_eq=phi.T, b_eq=np.zeros(len(monos)), bounds=bounds, method="highs-ipm")
    if not res.success:
        raise L1SolverError(f"LP solver failed: {res.message}", incumbent=None)
    beta = -res.eqlin.marginals
    poly = _to_poly(dataset.n, d, monos, beta)

    gap = float(w @ np.abs(phi @ beta - ys)) + res.fun
    if gap > L1_CERTIFICATE_TOL * dataset.m:
        raise L1SolverError(
            f"LP result not certified: duality gap {gap:.3g} over {dataset.m} rows",
            incumbent=poly,
        )
    return poly


HypothesisMode = Literal["rounded", "randomized"]


@dataclass(frozen=True)
class TruncatedPolyHypothesis:
    """A fitted polynomial used as a classifier.

    rounded: predict round(trunc(p(x))), deterministically.
    randomized: predict 1 with probability trunc(p(x)).
    """

    poly: MultilinearPolynomial
    mode: HypothesisMode

    def __post_init__(self) -> None:
        if self.mode not in ("rounded", "randomized"):
            raise ValueError(f"unknown hypothesis mode {self.mode!r}")

    def clamped(self, x: Sequence[int]) -> float:
        return trunc(self.poly.evaluate(x))

    def clamped_packed(self, zs: np.ndarray) -> np.ndarray:
        return trunc_array(self.poly.evaluate_packed(zs))


def round_half_up(q):
    """The rounded hypothesis's output at clamped value(s) q: true from
    one half - ROUND_TIE_TOL up, so a tie rounds to 1 as in
    trees.round_prob even when the solver leaves it a few ulps low."""
    return q >= 0.5 - ROUND_TIE_TOL


def predict(
    hypothesis: TruncatedPolyHypothesis,
    x: Sequence[int],
    rng: np.random.Generator | None = None,
) -> int:
    q = hypothesis.clamped(x)
    if hypothesis.mode == "rounded":
        return int(round_half_up(q))
    if rng is None:
        raise ValueError("randomized prediction needs an rng")
    return int(rng.random() < q)


def degree_budget(s: int, eps: float) -> int:
    """ceil(log2(size / eps)), guarded against float slop on exact powers."""
    if s < 1 or not 0.0 < eps:
        raise ValueError("need size >= 1 and eps > 0")
    return max(0, math.ceil(math.log2(s / eps) - 1e-12))


def learn_l2_pipeline(
    dataset: "Dataset", s: int, eps: float, feature_cap: int = DEFAULT_FEATURE_CAP
) -> TruncatedPolyHypothesis:
    d = min(degree_budget(s, eps), dataset.n)
    return TruncatedPolyHypothesis(l2_regress(dataset, d, feature_cap), "rounded")


def learn_l1_pipeline(
    dataset: "Dataset", s: int, eps: float, feature_cap: int = DEFAULT_FEATURE_CAP
) -> TruncatedPolyHypothesis:
    d = min(degree_budget(s, eps), dataset.n)
    return TruncatedPolyHypothesis(l1_regress(dataset, d, feature_cap), "randomized")
