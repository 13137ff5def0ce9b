import re
from itertools import combinations

import numpy as np
import pytest

from sdtlearn.data import draw_clean, dump_dataset, load_dataset
from sdtlearn.polynomials import (
    COEFF_ABS_SUM_CAP,
    MultilinearPolynomial,
    dump_polynomial,
    feature_count,
    load_polynomial,
    monomials,
    trunc,
)
from sdtlearn.regression import l1_regress, l2_regress
from sdtlearn.trees import dump_tree, load_tree, mean_polynomial, random_tree


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
    assert monos.dtype == np.int64
    assert len(monos) == feature_count(4, 2) == 1 + 4 + 6
    assert monos[0] == 0
    # By size, then by index tuple in lex order.
    indices = [tuple(i for i in range(4) if m >> i & 1) for m in monos.tolist()]
    assert indices == [c for k in range(3) for c in combinations(range(4), k)]


def test_evaluate_matches_packed():
    rng = np.random.default_rng(1)
    poly = MultilinearPolynomial(4, 3, [0, 1, 0b1010, 0b1101], [0.5, -1.25, 2.0, 0.75])
    zs = np.arange(16)
    packed = poly.evaluate_packed(zs)
    for z in zs:
        x = [(z >> i) & 1 for i in range(4)]
        assert packed[z] == pytest.approx(poly.evaluate(x), abs=1e-15)
    assert poly.degree == 3


def test_validation_rejects_bad_monomials():
    with pytest.raises(ValueError, match="exceeds degree bound 1"):
        MultilinearPolynomial(3, 1, [0b11], [1.0])
    with pytest.raises(ValueError, match="sorted set of indices"):
        load_polynomial("n=3 d=2\n1,0:1.0\n")
    with pytest.raises(ValueError, match=r"sorted set of indices in \[0, 3\)"):
        load_polynomial("n=3 d=2\n0,5:1.0\n")


@pytest.mark.parametrize("masks,values,problem", [
    ([-1], [1.0], "out of range for n=3"),
    ([8], [1.0], "out of range for n=3"),
    ([0b111], [1.0], "exceeds degree bound 2"),
    ([1, 2, 1], [1.0, 2.0, 3.0], "monomial mask 1 appears twice"),
    ([1, 2], [1.0], "do not match"),
    ([1.5], [1.0], "monomial mask 1.5 is not an integer that int64 holds"),
    ([1, 2.0], [1.0, 2.0], "monomial mask 2.0 is not an integer"),
    ([1 << 70], [1.0], f"monomial mask {1 << 70} is not an integer that int64 holds"),
    ([-1, 1 << 63], [1.0, 2.0], f"monomial mask {1 << 63} is not an integer"),
])
def test_validation_rejects_bad_masks(masks, values, problem):
    with pytest.raises(ValueError, match=problem):
        MultilinearPolynomial(3, 2, masks, values)


def test_empty_masks_build_the_zero_polynomial():
    for masks in ([], np.zeros(0), np.zeros(0, dtype=np.uint64)):
        poly = MultilinearPolynomial(3, 2, masks, [])
        assert poly.masks.dtype == np.int64 and poly.masks.size == 0
        assert poly.evaluate_packed(np.arange(8)).tolist() == [0.0] * 8


def test_terms_are_read_only_and_equal_in_any_order():
    masks = np.array([0, 5, 2])
    poly = MultilinearPolynomial(3, 2, masks, [0.5, -1.0, 2.0])
    masks[0] = 7
    assert poly.masks.tolist() == [0, 5, 2]
    with pytest.raises(ValueError):
        poly.values[0] = 1.0
    with pytest.raises(TypeError):
        poly.coeffs[()] = 1.0
    assert list(poly.coeffs.items()) == [((), 0.5), ((0, 2), -1.0), ((1,), 2.0)]
    assert poly == MultilinearPolynomial(3, 2, [2, 0, 5], [2.0, 0.5, -1.0])
    assert poly != MultilinearPolynomial(3, 2, [2, 0], [2.0, 0.5])
    assert poly != MultilinearPolynomial(3, 3, [2, 0, 5], [2.0, 0.5, -1.0])


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), -float("inf")])
def test_validation_rejects_non_finite_coefficients(coeff):
    with pytest.raises(ValueError, match="non-finite coefficient"):
        MultilinearPolynomial(6, 1, [0, 4], [0.5, coeff])
    with pytest.raises(ValueError, match="non-finite coefficient"):
        load_polynomial(f"n=6 d=1\n:{coeff}\n")


def test_validation_rejects_variable_count_outside_packing():
    with pytest.raises(ValueError, match="at most 62 variables"):
        load_polynomial("n=100 d=1\n70:1.0\n")
    with pytest.raises(ValueError, match="at most 62 variables"):
        MultilinearPolynomial(63, 0, [], [])
    assert MultilinearPolynomial(62, 1, [1 << 61], [1.0]).evaluate_packed(np.array([1 << 61])) == [1.0]


def test_validation_rejects_coefficients_that_could_overflow():
    # Each coefficient is finite and the value at input 3 is 0, but adding
    # the terms in order overflows to inf on the way.
    with pytest.raises(ValueError, match="half the largest double"):
        load_polynomial("n=2 d=2\n:1e308\n0:1e308\n1:-1e308\n0,1:-1e308\n")
    half = COEFF_ABS_SUM_CAP / 2
    at_cap = MultilinearPolynomial(2, 2, [0, 0b11], [half, -half])
    assert at_cap.evaluate_packed(np.arange(4)).tolist() == [half, half, half, 0.0]
    with pytest.raises(ValueError, match="half the largest double"):
        MultilinearPolynomial(2, 2, [0, 0b11], [half, -np.nextafter(half, np.inf)])


def test_serialization_roundtrip_exact():
    rng = np.random.default_rng(2)
    masks = [m for m in monomials(5, 3) if rng.random() < 0.5]
    poly = MultilinearPolynomial(5, 3, masks, rng.normal(size=len(masks)))
    again = load_polynomial(dump_polynomial(poly))
    assert again.n == poly.n and again.d == poly.d
    assert again.coeffs == poly.coeffs
    assert again == poly


def test_serialization_roundtrip_of_fits():
    # The l1 fits take the dual LP (d=2) and the cube LP (d=4).  At m = 120
    # the dual LP's optimum is the zero polynomial; at m = 100 it is not.
    tree = random_tree(6, 8, 0.5, np.random.default_rng(60))
    ds = draw_clean(tree, 100, np.random.default_rng(61))
    for poly in (l1_regress(ds, 2), l1_regress(ds, 4), l2_regress(ds, 3), mean_polynomial(tree, 3)):
        assert poly.coeffs
        assert load_polynomial(dump_polynomial(poly)) == poly


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
    ("n=3 d=2\n0,0:1.0\n", "sorted set of indices"),
    ("n=3 d=1\n5:1.0\n", r"sorted set of indices in \[0, 3\)"),
    ("n=63 d=1\n0:oops\n", "at most 62 variables"),  # n is checked before the body is read
])
def test_load_rejects_malformed_text(text, problem):
    with pytest.raises(ValueError, match=problem):
        load_polynomial(text)


# Each loader with its dump, its kind, its header keys and a one-line body
# that reads back as written under the header with every value 1.
LOADERS = [
    pytest.param(load_tree, dump_tree, "tree", ("n",), "L 1", id="tree"),
    pytest.param(load_dataset, dump_dataset, "dataset", ("n", "m"), "1 1 0", id="dataset"),
    pytest.param(load_polynomial, dump_polynomial, "polynomial", ("n", "d"), "0:1.5", id="polynomial"),
]


@pytest.mark.parametrize("load,dump,kind,keys,body", LOADERS)
def test_loaders_share_one_text_reader(load, dump, kind, keys, body):
    header = " ".join(f"{k}=1" for k in keys)
    assert dump(load(f"{header}\n{body}\n")) == f"{header}\n{body}\n"
    # Blank lines, `\r\n` and surrounding spaces are dropped.
    assert dump(load(f"\r\n  {header} \r\n\r\n \t\r\n{body}\r\n\r\n")) == f"{header}\n{body}\n"
    for text in ("", " \n\t\r\n"):
        with pytest.raises(ValueError, match=f"^{kind} text is empty$"):
            load(text)
    expected = " ".join(f"{k}=<count>" for k in keys)
    wrong = [
        " ".join(f"{k}=1" for k in keys[1:]),  # n missing: a tree's body line is read as its header
        f"{header} x=1",
        f"{header} n=1",
        " ".join(f"{k}=1" for k in keys[::-1]) if len(keys) > 1 else "N=1",
    ]
    for line in wrong:
        with pytest.raises(ValueError, match=re.escape(f"header {line or body!r} must read `{expected}`") + "$"):
            load(f"{line}\n{body}\n")
    # A negative n, a negative last key, and a digit int() cannot read.
    for values in (["-1"] * len(keys), ["1"] * (len(keys) - 1) + ["-1"], ["\u00b2"] * len(keys)):
        line = " ".join(f"{k}={v}" for k, v in zip(keys, values))
        message = f"header {line!r} must read `{expected}` with nonnegative integers"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            load(f"{line}\n{body}\n")
    with pytest.raises(ValueError, match=r"^n must lie in \[0, 62\], got 63: packed inputs hold at most 62 variables$"):
        load(f"{header.replace('n=1', 'n=63')}\n{body}\n")
    # 19 digits are read; past that a value is refused by key before int()
    # sees it, on every Python (3.11 and later refuse 4,300 digits themselves).
    assert dump(load(f"{header.replace('n=1', 'n=' + '1'.zfill(19))}\n{body}\n")) == f"{header}\n{body}\n"
    for key in {keys[0], keys[-1]}:
        for digits in (20, 5000):
            line = " ".join(f"{k}={'1' * digits if k == key else 1}" for k in keys)
            with pytest.raises(ValueError, match=f"^header value {key}= has {digits} digits, more than 19$"):
                load(f"{line}\n{body}\n")
