"""Sparse multilinear polynomials over boolean inputs.

A polynomial is a list of monomials, each the bitmask of its variables as
in packed inputs, with real coefficients.  On x in {0,1}^n a monomial
evaluates to the AND of its variables, so every function {0,1}^n -> R has
a unique multilinear representation.  Degree-bounded instances of this
class are the hypothesis space for both regression learners.  Only the
text format and the ``coeffs`` view spell monomials as index tuples.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

#: Most variables an input can have: packed inputs are nonnegative int64.
MAX_PACKED_VARS = 62

#: Largest sum of a polynomial's absolute coefficients, half the largest
#: double: below it no partial sum of an evaluation, in any order, overflows.
COEFF_ABS_SUM_CAP = sys.float_info.max / 2


def check_var_count(n: int) -> None:
    """Refuse a variable count that packed inputs cannot hold, before
    anything is built for it."""
    if not 0 <= n <= MAX_PACKED_VARS:
        raise ValueError(
            f"n must lie in [0, {MAX_PACKED_VARS}], got {n}: packed inputs hold at most "
            f"{MAX_PACKED_VARS} variables"
        )


def trunc(t: float) -> float:
    """Clamp a real number to the unit interval."""
    if t < 0.0:
        return 0.0
    if t > 1.0:
        return 1.0
    return float(t)


def monomials(n: int, d: int) -> np.ndarray:
    """The masks of all monomials over n variables of degree at most d,
    by size and then by their index tuples in lex order."""
    bits = [1 << i for i in range(n)]
    return np.array([sum(c) for k in range(min(n, d) + 1) for c in combinations(bits, k)], dtype=np.int64)


def feature_count(n: int, d: int) -> int:
    return sum(math.comb(n, k) for k in range(min(n, d) + 1))


@dataclass(frozen=True, eq=False)
class MultilinearPolynomial:
    """A degree-bounded multilinear polynomial in n boolean variables.

    ``masks`` holds distinct monomial masks and ``values`` their
    coefficients, both as read-only arrays in the order given.  Instances
    are immutable value objects, equal when n, d and the terms are.
    """

    n: int
    d: int
    masks: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        check_var_count(self.n)
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        masks = np.array(self.masks, dtype=np.int64)
        values = np.array(self.values, dtype=np.float64)
        if masks.ndim != 1 or masks.shape != values.shape:
            raise ValueError(f"{masks.shape} masks do not match {values.shape} values")
        ordered = np.sort(masks)
        for bad, problem in (
            (masks[(masks < 0) | (masks >> self.n != 0)], f"out of range for n={self.n}"),
            (masks[np.bitwise_count(masks) > self.d], f"exceeds degree bound {self.d}"),
            (ordered[1:][ordered[1:] == ordered[:-1]], "appears twice"),
            (masks[~np.isfinite(values)], "has a non-finite coefficient"),
        ):
            if bad.size:
                raise ValueError(f"monomial mask {bad[0]} {problem}")
        # At 2^-64 scale the sum cannot overflow, and scaling by a power of two moves no comparison.
        if math.fsum((np.abs(values) * 2.0**-64).tolist()) > COEFF_ABS_SUM_CAP * 2.0**-64:
            raise ValueError(
                f"absolute coefficients sum past {COEFF_ABS_SUM_CAP!r}, half the largest double"
            )
        masks.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "values", values)

    @property
    def coeffs(self) -> Mapping[tuple[int, ...], float]:
        """Each monomial's index tuple with its coefficient, read-only, in storage order."""
        monos = (tuple(i for i in range(self.n) if m >> i & 1) for m in self.masks.tolist())
        return MappingProxyType(dict(zip(monos, self.values.tolist())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultilinearPolynomial):
            return NotImplemented
        return (self.n, self.d, self.coeffs) == (other.n, other.d, other.coeffs)

    @property
    def degree(self) -> int:
        return int(np.bitwise_count(self.masks).max(initial=0))

    def evaluate(self, x: Sequence[int]) -> float:
        if len(x) != self.n:
            raise ValueError(f"input has length {len(x)}, expected {self.n}")
        z = sum(1 << i for i, xi in enumerate(x) if xi)
        total = 0.0
        for mask, c in zip(self.masks.tolist(), self.values.tolist()):
            if z & mask == mask:
                total += c
        return total

    def evaluate_packed(self, zs: np.ndarray) -> np.ndarray:
        """Evaluate on packed inputs, where bit i of z is variable i and
        bits from n up are ignored.  With at least 2^n inputs the values on
        the whole cube come from one zeta transform of the coefficients
        scattered into a dense 2^n vector, never larger than zs, and are
        read at zs; with fewer, each monomial adds its coefficient where
        all its bits are set."""
        zs = np.asarray(zs, dtype=np.int64)
        if zs.size >= 1 << self.n:
            dense = np.zeros(1 << self.n)
            dense[self.masks] = self.values
            return _subset_transform(dense, self.n, 1.0)[zs & ((1 << self.n) - 1)]
        out = np.zeros(zs.shape, dtype=np.float64)
        for mask, c in zip(self.masks.tolist(), self.values.tolist()):
            out += c * ((zs & mask) == mask)
        return out


def _subset_transform(values: np.ndarray, n: int, sign: float) -> np.ndarray:
    """The zeta (sign 1: sum over subsets) or Moebius (sign -1: signed sum
    over subsets) transform over the subset lattice of n bits, in n passes."""
    out = np.array(values, dtype=np.float64)
    for i in range(n):
        view = out.reshape(-1, 2, 1 << i)
        view[:, 1] += sign * view[:, 0]
    return out


def dump_polynomial(poly: MultilinearPolynomial) -> str:
    """Serialize as one `i,j,k:coeff` line per monomial (constant term has
    an empty index list).  `repr` of the coefficient round-trips exactly."""
    lines = [f"n={poly.n} d={poly.d}"]
    for mono, c in sorted(poly.coeffs.items(), key=lambda t: (len(t[0]), t[0])):
        lines.append(f"{','.join(str(i) for i in mono)}:{c!r}")
    return "\n".join(lines) + "\n"


def parse_header(line: str, keys: Sequence[str]) -> list[int]:
    """Read a `k1=<int> k2=<int> ...` header line with exactly these keys,
    as the text formats of trees, datasets and polynomials begin."""
    tokens = line.split()
    expected = " ".join(f"{k}=<count>" for k in keys)
    if len(tokens) != len(keys) or any(not t.startswith(f"{k}=") for t, k in zip(tokens, keys)):
        raise ValueError(f"header {line!r} must read `{expected}`")
    values = [t.partition("=")[2] for t in tokens]
    if not all(v.isdigit() for v in values):
        raise ValueError(f"header {line!r} must read `{expected}` with nonnegative integers")
    return [int(v) for v in values]


def load_polynomial(text: str) -> MultilinearPolynomial:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("polynomial text is empty")
    n, d = parse_header(lines[0], ("n", "d"))
    masks, values = [], []
    for ln in lines[1:]:
        idx_part, sep, coeff_part = ln.rpartition(":")
        if not sep:
            raise ValueError(f"monomial line {ln!r} must read `i,j,...:<coeff>`")
        try:
            mono = tuple(int(i) for i in idx_part.split(",")) if idx_part else ()
            values.append(float(coeff_part))
        except ValueError:
            raise ValueError(f"monomial line {ln!r} must read `i,j,...:<coeff>`") from None
        if list(mono) != sorted(set(mono)) or not all(0 <= i < n for i in mono):
            raise ValueError(f"monomial {mono} must be a sorted set of indices in [0, {n})")
        masks.append(sum(1 << i for i in mono))
    return MultilinearPolynomial(n, d, masks, values)
