"""Sparse multilinear polynomials over boolean inputs.

A polynomial is a map from monomials (sorted tuples of variable indices)
to real coefficients.  On x in {0,1}^n a monomial evaluates to the AND of
its variables, so every function {0,1}^n -> R has a unique multilinear
representation.  Degree-bounded instances of this class are the
hypothesis space for both regression learners.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence, Tuple

import numpy as np

Monomial = Tuple[int, ...]


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


def monomials(n: int, d: int) -> list[Monomial]:
    """All monomials over n variables of degree at most d, by (size, lex)."""
    out: list[Monomial] = []
    for k in range(min(n, d) + 1):
        out.extend(combinations(range(n), k))
    return out


def feature_count(n: int, d: int) -> int:
    return sum(math.comb(n, k) for k in range(min(n, d) + 1))


@dataclass(frozen=True)
class MultilinearPolynomial:
    """A degree-bounded multilinear polynomial in n boolean variables.

    ``coeffs`` maps sorted index tuples to coefficients; the empty tuple
    is the constant term.  Instances are immutable value objects.
    """

    n: int
    d: int
    coeffs: Mapping[Monomial, float]

    def __post_init__(self) -> None:
        check_var_count(self.n)
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        clean: dict[Monomial, float] = {}
        for mono, c in self.coeffs.items():
            mono = tuple(mono)
            if list(mono) != sorted(set(mono)):
                raise ValueError(f"monomial {mono} is not a sorted set of indices")
            if len(mono) > self.d:
                raise ValueError(f"monomial {mono} exceeds degree bound {self.d}")
            if mono and (mono[0] < 0 or mono[-1] >= self.n):
                raise ValueError(f"monomial {mono} out of range for n={self.n}")
            if not math.isfinite(float(c)):
                raise ValueError(f"monomial {mono} has the non-finite coefficient {c}")
            clean[mono] = float(c)
        # At 2^-64 scale the sum cannot overflow, and scaling by a power of two moves no comparison.
        if math.fsum(abs(c) * 2.0**-64 for c in clean.values()) > COEFF_ABS_SUM_CAP * 2.0**-64:
            raise ValueError(
                f"absolute coefficients sum past {COEFF_ABS_SUM_CAP!r}, half the largest double"
            )
        object.__setattr__(self, "coeffs", clean)

    @property
    def degree(self) -> int:
        return max((len(m) for m in self.coeffs), default=0)

    def evaluate(self, x: Sequence[int]) -> float:
        if len(x) != self.n:
            raise ValueError(f"input has length {len(x)}, expected {self.n}")
        total = 0.0
        for mono, c in self.coeffs.items():
            if all(x[i] for i in mono):
                total += c
        return total

    def evaluate_packed(self, zs: np.ndarray) -> np.ndarray:
        """Evaluate on packed inputs, where bit i of z is variable i."""
        zs = np.asarray(zs, dtype=np.int64)
        out = np.zeros(zs.shape, dtype=np.float64)
        for mono, c in self.coeffs.items():
            mask = 0
            for i in mono:
                mask |= 1 << i
            out += c * ((zs & mask) == mask)
        return out


def dump_polynomial(poly: MultilinearPolynomial) -> str:
    """Serialize as one `i,j,k:coeff` line per monomial (constant term has
    an empty index list).  `repr` of the coefficient round-trips exactly."""
    lines = [f"n={poly.n} d={poly.d}"]
    for mono in sorted(poly.coeffs, key=lambda m: (len(m), m)):
        lines.append(f"{','.join(str(i) for i in mono)}:{poly.coeffs[mono]!r}")
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
    coeffs: dict[Monomial, float] = {}
    for ln in lines[1:]:
        idx_part, sep, coeff_part = ln.rpartition(":")
        if not sep:
            raise ValueError(f"monomial line {ln!r} must read `i,j,...:<coeff>`")
        try:
            mono = tuple(int(i) for i in idx_part.split(",")) if idx_part else ()
            coeff = float(coeff_part)
        except ValueError:
            raise ValueError(f"monomial line {ln!r} must read `i,j,...:<coeff>`") from None
        if mono in coeffs:
            raise ValueError(f"monomial {mono} appears twice")
        coeffs[mono] = coeff
    return MultilinearPolynomial(n, d, coeffs)
