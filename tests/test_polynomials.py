import numpy as np
import pytest

from sdtlearn.polynomials import (
    COEFF_ABS_SUM_CAP,
    MultilinearPolynomial,
    dump_polynomial,
    feature_count,
    load_polynomial,
    monomials,
    trunc,
)


def test_trunc_frozen_values():
    assert trunc(-0.5) == 0.0
    assert trunc(1.2) == 1.0
    assert trunc(0.3) == 0.3


def test_trunc_idempotent_and_lipschitz():
    rng = np.random.default_rng(0)
    vals = rng.uniform(-3, 3, size=500)
    for a, b in zip(vals[:-1], vals[1:]):
        assert trunc(trunc(a)) == trunc(a)
        assert abs(trunc(a) - trunc(b)) <= abs(a - b) + 1e-15


def test_monomials_count_and_order():
    monos = monomials(4, 2)
    assert len(monos) == feature_count(4, 2) == 1 + 4 + 6
    assert monos[0] == ()
    sizes = [len(m) for m in monos]
    assert sizes == sorted(sizes)


def test_evaluate_matches_packed():
    rng = np.random.default_rng(1)
    coeffs = {(): 0.5, (0,): -1.25, (1, 3): 2.0, (0, 2, 3): 0.75}
    poly = MultilinearPolynomial(4, 3, coeffs)
    zs = np.arange(16)
    packed = poly.evaluate_packed(zs)
    for z in zs:
        x = [(z >> i) & 1 for i in range(4)]
        assert packed[z] == pytest.approx(poly.evaluate(x), abs=1e-15)
    assert poly.degree == 3


def test_validation_rejects_bad_monomials():
    with pytest.raises(ValueError):
        MultilinearPolynomial(3, 1, {(0, 1): 1.0})  # degree too high
    with pytest.raises(ValueError):
        MultilinearPolynomial(3, 2, {(1, 0): 1.0})  # unsorted
    with pytest.raises(ValueError):
        MultilinearPolynomial(3, 2, {(0, 5): 1.0})  # out of range


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), -float("inf")])
def test_validation_rejects_non_finite_coefficients(coeff):
    with pytest.raises(ValueError, match="non-finite coefficient"):
        MultilinearPolynomial(6, 1, {(): 0.5, (2,): coeff})
    with pytest.raises(ValueError, match="non-finite coefficient"):
        load_polynomial(f"n=6 d=1\n:{coeff}\n")


def test_validation_rejects_variable_count_outside_packing():
    with pytest.raises(ValueError, match="at most 62 variables"):
        load_polynomial("n=100 d=1\n70:1.0\n")
    with pytest.raises(ValueError, match="at most 62 variables"):
        MultilinearPolynomial(63, 0, {})
    assert MultilinearPolynomial(62, 1, {(61,): 1.0}).evaluate_packed(np.array([1 << 61])) == [1.0]


def test_validation_rejects_coefficients_that_could_overflow():
    # Each coefficient is finite and the value at input 3 is 0, but adding
    # the terms in order overflows to inf on the way.
    with pytest.raises(ValueError, match="half the largest double"):
        load_polynomial("n=2 d=2\n:1e308\n0:1e308\n1:-1e308\n0,1:-1e308\n")
    half = COEFF_ABS_SUM_CAP / 2
    at_cap = MultilinearPolynomial(2, 2, {(): half, (0, 1): -half})
    assert at_cap.evaluate_packed(np.arange(4)).tolist() == [half, half, half, 0.0]
    with pytest.raises(ValueError, match="half the largest double"):
        MultilinearPolynomial(2, 2, {(): half, (0, 1): -np.nextafter(half, np.inf)})


def test_serialization_roundtrip_exact():
    rng = np.random.default_rng(2)
    coeffs = {m: float(rng.normal()) for m in monomials(5, 3) if rng.random() < 0.5}
    poly = MultilinearPolynomial(5, 3, coeffs)
    again = load_polynomial(dump_polynomial(poly))
    assert again.n == poly.n and again.d == poly.d
    assert again.coeffs == poly.coeffs


@pytest.mark.parametrize("text,problem", [
    ("", "empty"),
    ("d=2", "header"),
    ("n=3", "header"),
    ("n=3 d=two\n", "header"),
    ("n=3 d=1\n0 1.0\n", "monomial line"),
    ("n=3 d=1\n0:one\n", "monomial line"),
    ("n=3 d=1\nx:1.0\n", "monomial line"),
    ("n=3 d=1\n0:1.0\n0:2.0\n", "appears twice"),
    ("n=3 d=1\n:1.0\n:0.5\n", "appears twice"),
])
def test_load_rejects_malformed_text(text, problem):
    with pytest.raises(ValueError, match=problem):
        load_polynomial(text)
