"""Output checks, run by the benchmark after timing.

Every report is checked against its config and against ``guarantee_bound``.
For exactly evaluated experiments with n <= ``ORACLE_MAX_N`` the Bayes
error and the hypothesis error are recomputed from pointwise oracles:
``trees.mean`` on every input for trees, and for polynomials a subset-sum
transform of the coefficients, itself spot-checked against the polynomial's
own ``evaluate``.  Monte Carlo reports get range checks only.
"""

from __future__ import annotations

import json
import math

import numpy as np

from sdtlearn.evaluation import guarantee_bound
from sdtlearn.harness import ExperimentConfig
from sdtlearn.polynomials import MultilinearPolynomial, dump_polynomial, load_polynomial, trunc
from sdtlearn.regression import TruncatedPolyHypothesis
from sdtlearn.trees import StochasticTree, dump_tree, load_tree, mean, unpack_inputs

ORACLE_MAX_N = 10
TOL = 1e-9
#: Inputs on which the subset-sum values are compared with ``evaluate``.
SPOT_CHECKS = 32


def dump_capture(target: StochasticTree, hypothesis) -> dict:
    if isinstance(hypothesis, StochasticTree):
        hyp = {"tree": dump_tree(hypothesis)}
    else:
        hyp = {"poly": dump_polynomial(hypothesis.poly), "mode": hypothesis.mode}
    return {"target": dump_tree(target), "hypothesis": hyp}


def _load_hypothesis(hyp: dict):
    if "tree" in hyp:
        return load_tree(hyp["tree"])
    return TruncatedPolyHypothesis(load_polynomial(hyp["poly"]), hyp["mode"])


def _poly_values(poly: MultilinearPolynomial) -> np.ndarray:
    """p(z) for every packed z: the sum of c_S over monomials S inside z."""
    n = poly.n
    values = np.zeros(1 << n)
    for mono, c in poly.coeffs.items():
        values[sum(1 << i for i in mono)] += c
    zs = np.arange(1 << n)
    for i in range(n):
        upper = zs[(zs >> i) & 1 == 1]
        values[upper] += values[upper ^ (1 << i)]
    spots = zs[:: max(1, (1 << n) // SPOT_CHECKS)]
    for z, x in zip(spots, unpack_inputs(spots, n)):
        if not math.isclose(poly.evaluate(list(x)), values[z], rel_tol=0.0, abs_tol=TOL):
            raise ValueError(f"subset-sum oracle disagrees with evaluate at input {z}")
    return values


def _oracle(target: StochasticTree, hypothesis) -> tuple[float, float]:
    """(Bayes error, hypothesis error) by enumerating {0,1}^n pointwise."""
    xs = [list(x) for x in unpack_inputs(np.arange(1 << target.n), target.n)]
    mu = np.array([mean(target, x) for x in xs])
    if isinstance(hypothesis, StochasticTree):
        q = np.array([mean(hypothesis, x) for x in xs])
    else:
        q = np.array([trunc(v) for v in _poly_values(hypothesis.poly)])
        if hypothesis.mode == "rounded":
            q = (q >= 0.5).astype(np.float64)
    return float(np.mean(np.minimum(mu, 1.0 - mu))), float(np.mean(q + mu - 2.0 * q * mu))


def check_report(cfg: ExperimentConfig, report_json: str, capture: dict) -> list[str]:
    """Problems found in one report; empty when it is correct."""
    rep = json.loads(report_json)
    problems = [
        f"{key}={rep[key]!r}, config has {getattr(cfg, key)!r}"
        for key in ("method", "n", "s", "m", "eta", "eps", "seed", "adversary")
        if rep[key] != getattr(cfg, key)
    ]
    exact = cfg.n <= cfg.enumeration_cap
    if rep["error_estimation"] != ("exact" if exact else "monte_carlo"):
        problems.append(f"error_estimation={rep['error_estimation']!r}")
    if not 0.0 <= rep["opt"] <= 0.5:
        problems.append(f"opt={rep['opt']} outside [0, 1/2]")
    if not 0.0 <= rep["hypothesis_error"] <= 1.0:
        problems.append(f"hypothesis_error={rep['hypothesis_error']} outside [0, 1]")
    bound = guarantee_bound(cfg.method, rep["opt"], cfg.eta, cfg.eps)
    if not math.isclose(rep["bound"], bound, rel_tol=0.0, abs_tol=1e-12):
        problems.append(f"bound={rep['bound']}, guarantee_bound gives {bound}")
    if not math.isclose(rep["margin"], rep["hypothesis_error"] - bound, rel_tol=0.0, abs_tol=1e-12):
        problems.append(f"margin={rep['margin']}, expected {rep['hypothesis_error'] - bound}")

    target = load_tree(capture["target"])
    hypothesis = _load_hypothesis(capture["hypothesis"])
    hyp_n = hypothesis.n if isinstance(hypothesis, StochasticTree) else hypothesis.poly.n
    if target.n != cfg.n or hyp_n != cfg.n:
        problems.append(f"captured target/hypothesis over {target.n}/{hyp_n} variables")
    elif exact and cfg.n <= ORACLE_MAX_N:
        opt, err = _oracle(target, hypothesis)
        if not math.isclose(rep["opt"], opt, rel_tol=0.0, abs_tol=TOL):
            problems.append(f"opt={rep['opt']}, pointwise oracle gives {opt}")
        if not math.isclose(rep["hypothesis_error"], err, rel_tol=0.0, abs_tol=TOL):
            problems.append(f"hypothesis_error={rep['hypothesis_error']}, oracle gives {err}")
    return problems
