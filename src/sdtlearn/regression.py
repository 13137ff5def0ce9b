"""Low-degree polynomial regression learners and their hypotheses.

Both learners fit a degree-bounded multilinear polynomial to the
dataset's count table (distinct inputs with their 0- and 1-label
counts), which leaves both optima unchanged and keeps the solves small.
Both check the size of what they build before they build it.

Both learners can work on one of two sides, whichever has fewer rows
to solve for; ``cube_side(n, d)`` decides.  With F the number of
monomials of degree <= d, the feature side solves for the F coefficients,
and the cube side for the fit's values q on all of {0,1}^n.  The
degree-<= d functions are exactly the q with v_T . q = 0 for every
|T| > d, where v_T(z) = (-1)^(|T|-|z|) [z subset of T] is a row of the
Moebius matrix V of the subset lattice, so the cube side has 2^n - F
constraint rows, and the coefficients are q's fast Moebius transform.

``l2_regress`` minimizes mean squared error.  With Phi the monomial
design matrix over the u distinct inputs, W = c0 + c1 their row counts
and c1 their 1-label counts, it solves the normal equations
Phi^T W Phi b = Phi^T c1 by a pivoted (rank-revealing) Cholesky
factorization of the Gram matrix.  When the rank falls short of the
feature count the solution is not unique, and the minimum-norm one comes
from ``lstsq`` on the weighted distinct-input rows instead.

On the cube side, taken when every input is seen (u = 2^n, so W > 0
everywhere, Phi has full column rank and the fit is unique), ``l2``
minimizes sum_z W(z) (q_z - t_z)^2 subject to V q = 0, with t = c1 / W.
With D = diag(1/W) the solution is q = t - D V^T (V D V^T)^-1 V t, and
V D V^T is a positive-definite (2^n - F)-square matrix factored by
Cholesky; no design or Gram matrix is built.  A fit with an unseen input
stays on the feature side, where the minimum-norm tie-break matters.

``l1_regress`` minimizes mean absolute error by one of two linear
programs, one per side; the choice depends only on (n, d):

* the dual LP over one weighted row per distinct (input, label) pair has
  one equality row per feature, F rows;
* the cube LP solves for q subject to V q = 0, 2^n - F rows.  Inputs
  never seen cost nothing.

Each fit is certified by a lower bound from the dual: its objective may
exceed that bound by at most L1_CERTIFICATE_TOL per sample row, otherwise
L1SolverError is raised with the fit as its incumbent.  The dual LP is
charged as its design matrix (grouped rows x F), the cube LP as its
constraint matrix and variables, both against DESIGN_BYTES_CAP; an l2
fit is charged the larger of its two sides.

``learn_pipeline`` fits either method at the degree it is handed.  Hypotheses
clamp the fitted polynomial to [0,1]; ``MODES`` gives each method's
output: l2 rounds, thresholding at one half (ties, up to ROUND_TIE_TOL,
round to 1), and l1 outputs 1 with the clamped probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpstrf
from scipy.optimize import linprog

from .polynomials import MultilinearPolynomial, _subset_transform, feature_count, monomials

if TYPE_CHECKING:
    from .data import Dataset

#: Most monomial features a regression fit may use.
FEATURE_CAP = 20_000

#: Largest float64 design matrix (rows x monomial features) or cube LP
#: (constraint entries and variables) a fit may build; the solvers' own
#: copies come on top of it.
DESIGN_BYTES_CAP = 1 << 30

#: Clamped fits within this distance below one half round to 1, as exact
#: ties do, so that the last bits of a solver cannot decide a tie.
ROUND_TIE_TOL = 1e-9

#: Largest duality gap, per sample row, that certifies an L1 fit optimal;
#: also how far the cube LP's dual slacks may leave their bounds.
L1_CERTIFICATE_TOL = 1e-9


class FeatureBudgetExceeded(ValueError):
    """The monomial basis or its design matrix would exceed its cap."""


class L1SolverError(Exception):
    """The LP solver failed or its fit was not certified optimal;
    ``incumbent`` carries the uncertified fit, if there is one."""

    def __init__(self, message: str, incumbent: MultilinearPolynomial | None = None):
        super().__init__(message)
        self.incumbent = incumbent


def cube_side(n: int, d: int) -> bool:
    """Whether the cube side (2^n - F constraint rows) is smaller than the
    feature side (F rows), F the degree-<= d monomial count."""
    count = feature_count(n, d)
    return (1 << n) - count < count


def check_budget(method: str, n: int, d: int, rows: int) -> None:
    """Reject a degree-d ``method`` fit over n variables, before anything
    is allocated, when its monomial basis exceeds FEATURE_CAP or what it
    builds exceeds DESIGN_BYTES_CAP at 8 bytes an entry.  A fit on the
    feature side builds a ``rows`` x F design matrix.  On the cube side,
    with nnz(V) = sum over |T| > d of 2^|T|, an l1 fit builds 3 nnz(V)
    constraint entries and 3 * 2^n variables (these matter when d = n and
    V is empty), and an l2 fit builds nnz(V) entries and a (2^n - F)-square
    matrix.  Which side an l2 fit takes depends on the distinct inputs,
    known only after the draw, so it is charged the larger of the two.  A
    degree outside [0, n] is refused first."""
    if not 0 <= d <= n:
        raise ValueError(f"degree {d} must lie in [0, {n}], the variable count")
    count = feature_count(n, d)
    if count > FEATURE_CAP:
        raise FeatureBudgetExceeded(
            f"degree {d} over {n} variables needs {count} features, cap is {FEATURE_CAP}"
        )
    # (entries, what they are) for each side the fit may take.
    charges = [(rows * count, f"a design matrix of {rows} rows x {count} features")]
    if cube_side(n, d):
        nnz = sum(math.comb(n, k) << k for k in range(d + 1, n + 1))
        side = (1 << n) - count
        if method == "l1":
            charges = [(3 * nnz + (3 << n), f"a cube LP of {3 * nnz} entries over {3 << n} variables")]
        else:
            charges.append((nnz + side * side, f"a cube system of {nnz} entries and a {side}x{side} matrix"))
    entries, need = max(charges)
    if entries * 8 > DESIGN_BYTES_CAP:
        raise FeatureBudgetExceeded(
            f"{need}: {entries * 8 / 2**30:.1f} GiB, cap is {DESIGN_BYTES_CAP / 2**30:.1f} GiB"
        )


def _grouped_rows(dataset: "Dataset") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (input, label) pairs with multiplicities, by input then label."""
    zs, c0, c1, _ = dataset.counts()
    w = np.stack([c0, c1], axis=1).ravel()
    keep = w > 0
    ys = np.tile(np.array([0.0, 1.0]), zs.size)
    return np.repeat(zs, 2)[keep], ys[keep], w[keep].astype(np.float64)


def _design_matrix(zs: np.ndarray, masks: np.ndarray) -> np.ndarray:
    phi = np.empty((zs.size, masks.size), dtype=np.float64)
    for j, mask in enumerate(masks.tolist()):
        phi[:, j] = (zs & mask) == mask
    return phi


def _to_poly(n: int, d: int, masks: np.ndarray, beta: np.ndarray) -> MultilinearPolynomial:
    keep = beta != 0.0
    return MultilinearPolynomial(n, d, masks[keep], beta[keep])


def l2_regress(dataset: "Dataset", d: int) -> MultilinearPolynomial:
    """Least-squares fit over degree-<= d monomials (minimum-norm on ties),
    on the cube side when every input is seen and ``cube_side(n, d)``, and
    on the feature side otherwise.

    On the feature side, over the u distinct inputs, with A = sqrt(W) Phi
    and t = c1 / sqrt(W), the sample's squared error is |A b - t|^2 up to
    a constant.  When u >= F (the feature count) the Gram matrix G = A^T A
    is formed with one ``dsyrk`` and factored by ``dpstrf`` (LAPACK's
    default tolerance); at full rank b solves G b = A^T t by
    ``cho_solve``.  When u < F or the rank falls short of F, G is
    singular, and the minimum-norm b comes from ``lstsq(A, t)``.
    """
    zs, c0, c1, _ = dataset.counts()
    n = dataset.n
    check_budget("l2", n, d, zs.size)
    masks = monomials(n, d)
    if zs.size == 1 << n and cube_side(n, d):
        return _to_poly(n, d, masks, _l2_cube(c0, c1, n, d)[masks])
    sw = np.sqrt((c0 + c1).astype(np.float64))
    a = _design_matrix(zs, masks)
    a *= sw[:, None]
    t = c1 / sw
    f = masks.size
    beta = None
    if zs.size >= f:
        # a.T is Fortran-ordered, so dsyrk reads it without a copy; both
        # routines use the upper triangle only.
        chol, piv, rank, _ = dpstrf(dsyrk(1.0, a.T), overwrite_a=1)
        if rank == f:
            beta = np.empty(f)
            beta[piv - 1] = cho_solve((chol, False), (a.T @ t)[piv - 1], check_finite=False)
    if beta is None:
        beta = np.linalg.lstsq(a, t, rcond=None)[0]
    return _to_poly(n, d, masks, beta)


def _l2_cube(c0: np.ndarray, c1: np.ndarray, n: int, d: int) -> np.ndarray:
    """The Moebius coefficients of q = t - D V^T (V D V^T)^-1 V t, indexed
    by mask, from the label counts on every input of {0,1}^n in order."""
    w = (c0 + c1).astype(np.float64)
    t = c1 / w
    v = _mobius_rows(n, d)
    dvt = (v / w).T
    lam = cho_solve(cho_factor((v @ dvt).toarray()), v @ t)
    return _subset_transform(t - dvt @ lam, n, -1.0)


def l1_regress(dataset: "Dataset", d: int) -> MultilinearPolynomial:
    """Least-absolute-deviations fit over degree-<= d monomials, by the cube
    LP when ``cube_side(n, d)`` and by the dual LP otherwise."""
    solve = _l1_cube if cube_side(dataset.n, d) else _l1_dual
    return solve(dataset, d)


def _l1_dual(dataset: "Dataset", d: int) -> MultilinearPolynomial:
    """The primal  min_b sum_i w_i |phi_i b - y_i|  solved through its dual

        max y^T u  s.t.  phi^T u = 0,  -w <= u <= w,

    an LP with one equality row per feature over one bounded variable per
    grouped row; b is read from the equality rows' multipliers and
    certified by strong duality.
    """
    zs, ys, w = _grouped_rows(dataset)
    check_budget("l1", dataset.n, d, zs.size)
    if zs.size == 0:  # every polynomial is optimal; HiGHS rejects an LP without variables
        return MultilinearPolynomial(dataset.n, d, [], [])
    masks = monomials(dataset.n, d)
    phi = _design_matrix(zs, masks)

    bounds = np.stack([-w, w], axis=1)
    res = linprog(-ys, A_eq=phi.T, b_eq=np.zeros(masks.size), bounds=bounds, method="highs-ipm")
    if not res.success:
        raise L1SolverError(f"LP solver failed: {res.message}", incumbent=None)
    beta = -res.eqlin.marginals
    poly = _to_poly(dataset.n, d, masks, beta)
    _certify(poly, float(w @ np.abs(phi @ beta - ys)), -res.fun, dataset.m)
    return poly


def _l1_cube(dataset: "Dataset", d: int) -> MultilinearPolynomial:
    """The fit's values q on {0,1}^n, from

        min sum_z c0(z) |q_z| + c1(z) |q_z - 1|  s.t.  V q = 0,

    V holding one Moebius row v_T per |T| > d.  With q = -a + b + e,
    a, e >= 0 and 0 <= b <= 1, the cost is W.a + (c0 - c1).b + W.e plus
    the constant sum c1.  For multipliers lam of V's rows, s = V^T lam,
    the dual bound is sum_z min(c1(z), c0(z) - s_z), valid when
    |s_z| <= W(z) for every z.
    """
    n, size = dataset.n, 1 << dataset.n
    zs, c0, c1, _ = dataset.counts()
    check_budget("l1", n, d, zs.size)
    w0 = np.zeros(size)
    w1 = np.zeros(size)
    w0[zs] = c0
    w1[zs] = c1
    w = w0 + w1
    v = _mobius_rows(n, d)

    bounds = np.zeros((3, size, 2))
    bounds[:, :, 1] = np.inf
    bounds[1, :, 1] = 1.0
    res = linprog(
        np.concatenate([w, w0 - w1, w]),
        A_eq=sp.hstack([-v, v, v], format="csr"),
        b_eq=np.zeros(v.shape[0]),
        bounds=bounds.reshape(-1, 2),
        method="highs",
    )
    if not res.success:
        raise L1SolverError(f"LP solver failed: {res.message}", incumbent=None)
    a, b, e = res.x.reshape(3, size)
    beta = _subset_transform(b + e - a, n, -1.0)
    beta[np.bitwise_count(np.arange(size)) > d] = 0.0
    masks = monomials(n, d)
    poly = _to_poly(n, d, masks, beta[masks])

    s = v.T @ res.eqlin.marginals
    excess = float(np.max(np.abs(s) - w))
    if excess > L1_CERTIFICATE_TOL:
        raise L1SolverError(
            f"LP result not certified: dual multipliers infeasible by {excess:.3g}",
            incumbent=poly,
        )
    fit = _subset_transform(beta, n, 1.0)
    primal = float(w0 @ np.abs(fit) + w1 @ np.abs(fit - 1.0))
    _certify(poly, primal, float(np.minimum(w1, w0 - s).sum()), dataset.m)
    return poly


def _certify(poly: MultilinearPolynomial, primal: float, bound: float, m: int) -> None:
    gap = primal - bound
    if gap > L1_CERTIFICATE_TOL * m:
        raise L1SolverError(
            f"LP result not certified: duality gap {gap:.3g} over {m} rows",
            incumbent=poly,
        )


def _mobius_rows(n: int, d: int) -> sp.csr_array:
    """V: one row v_T(z) = (-1)^(|T|-|z|) [z subset of T] per |T| > d, by
    |T| and then T; v_T has 2^|T| nonzeros."""
    cube = np.arange(1 << n, dtype=np.int64)
    sizes = np.bitwise_count(cube)
    rows, cols, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    start = 0
    for k in range(d + 1, n + 1):
        ts = cube[sizes == k]
        variables = np.nonzero((ts[:, None] >> np.arange(n)) & 1)[1].reshape(-1, k)
        # Row j of picks selects the subset of T's variables that j's bits mark.
        picks = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
        cols.append(((np.int64(1) << variables) @ picks.T).ravel())
        vals.append(np.tile(1.0 - 2.0 * ((k - picks.sum(axis=1)) & 1), ts.size))
        rows.append(np.repeat(np.arange(start, start + ts.size), 1 << k))
        start += ts.size
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return sp.csr_array(entries, shape=(start, 1 << n))


HypothesisMode = Literal["rounded", "randomized"]

#: Each regression method's output mode: l2 rounds its fit, l1 outputs 1
#: with the clamped fit as probability.
MODES: dict[str, HypothesisMode] = {"l1": "randomized", "l2": "rounded"}


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

    def clamped_packed(self, zs: np.ndarray) -> np.ndarray:
        return np.clip(self.poly.evaluate_packed(zs), 0.0, 1.0)

    def means(self, zs: np.ndarray) -> np.ndarray:
        """Pr[output 1] at the packed inputs zs.  The rounded mode is 1 from
        one half - ROUND_TIE_TOL up, so a tie rounds to 1 as in
        trees.round_prob even when the solver leaves it a few ulps low."""
        q = self.clamped_packed(zs)
        if self.mode == "rounded":
            return (q >= 0.5 - ROUND_TIE_TOL).astype(np.float64)
        return q


def degree_budget(s: int, eps: float, n: int) -> int:
    """ceil(log2(size / eps)) capped at n, guarded against float slop on
    exact powers.  It is log2(size) - log2(eps), so no size or eps is too
    large or too small to give a degree."""
    if s < 1 or not 0.0 < eps < math.inf:
        raise ValueError("need size >= 1 and a finite eps > 0")
    return min(n, max(0, math.ceil(math.log2(s) - math.log2(eps) - 1e-12)))


def learn_pipeline(dataset: "Dataset", method: str, d: int) -> TruncatedPolyHypothesis:
    """Fit ``method`` ("l1" or "l2") at degree d, as a hypothesis in its mode."""
    if method not in MODES:
        raise ValueError(f"unknown regression method {method!r}")
    # Read the fits by name at call time, so a wrapped l1_regress or
    # l2_regress is the one called.
    fit = l2_regress if method == "l2" else l1_regress
    return TruncatedPolyHypothesis(fit(dataset, d), MODES[method])
