"""Sample generation under the uniform distribution and adversarial corruption.

The adversary model: after a clean i.i.d. sample is drawn, an omniscient
adversary may rewrite any floor(eta * m) rows, both inputs and labels,
with full knowledge of the target tree and the clean sample.  The
``corrupted`` flags record which rows were touched; they are provenance
metadata only and learners never read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .polynomials import parse_header
from .trees import (
    StochasticTree,
    mean_on_points,
    mean_vector,
    pack_inputs,
    round_prob,
    sample,
    unpack_inputs,
)


class Adversary(Enum):
    NONE = "none"
    LABEL_FLIP_RANDOM = "label_flip_random"
    LABEL_FLIP_MARGIN = "label_flip_margin"
    EXAMPLE_REPLACE = "example_replace"


@dataclass(frozen=True, eq=False)
class Dataset:
    """A multiset of labeled rows with per-row corruption flags."""

    n: int
    xs: np.ndarray
    ys: np.ndarray
    corrupted: np.ndarray

    def __post_init__(self) -> None:
        xs = np.ascontiguousarray(np.asarray(self.xs, dtype=np.uint8))
        ys = np.ascontiguousarray(np.asarray(self.ys, dtype=np.uint8))
        flags = np.ascontiguousarray(np.asarray(self.corrupted, dtype=bool))
        if xs.ndim != 2 or xs.shape[1] != self.n:
            raise ValueError(f"xs must have shape (m, {self.n})")
        if ys.shape != (xs.shape[0],) or flags.shape != (xs.shape[0],):
            raise ValueError("ys and corrupted must have one entry per row")
        if xs.size and xs.max() > 1:
            raise ValueError("inputs must be 0/1 valued")
        if ys.size and ys.max() > 1:
            raise ValueError("labels must be 0/1 valued")
        for arr in (xs, ys, flags):
            arr.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "corrupted", flags)

    @property
    def m(self) -> int:
        return self.xs.shape[0]

    @property
    def corrupted_count(self) -> int:
        return int(self.corrupted.sum())

    def packed(self) -> np.ndarray:
        return pack_inputs(self.xs)

    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The count table: distinct packed inputs in ascending order, the
        number of rows labeled 0 and labeled 1 at each (int64), and each
        row's index into the table."""
        zs, inverse = np.unique(self.packed(), return_inverse=True)
        total = np.bincount(inverse, minlength=zs.size).astype(np.int64)
        c1 = np.bincount(inverse[self.ys == 1], minlength=zs.size).astype(np.int64)
        return zs, total - c1, c1, inverse


def draw_clean(tree: StochasticTree, m: int, rng: np.random.Generator) -> Dataset:
    """m i.i.d. rows: x uniform on {0,1}^n, y drawn from the tree on x."""
    if m < 0:
        raise ValueError("sample count must be nonnegative")
    xs = rng.integers(0, 2, size=(m, tree.n), dtype=np.uint8)
    ys = np.fromiter((sample(tree, row, rng) for row in xs), dtype=np.uint8, count=m)
    return Dataset(tree.n, xs, ys, np.zeros(m, dtype=bool))


def corruption_budget(eta: float, m: int) -> int:
    # floor(eta * m), guarded against float slop like 0.29 * 100 = 28.999...
    return int(math.floor(eta * m + 1e-9))


def corrupt(
    clean: Dataset,
    eta: float,
    strategy: Adversary,
    tree: StochasticTree,
    rng: np.random.Generator,
) -> Dataset:
    """Apply an adversary to exactly floor(eta * m) rows of a clean sample."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0,1], got {eta}")
    if clean.corrupted.any():
        raise ValueError("corrupt expects an all-clean sample")
    m = clean.m
    budget = corruption_budget(eta, m)
    xs = np.array(clean.xs)
    ys = np.array(clean.ys)
    flags = np.zeros(m, dtype=bool)
    if budget == 0:
        return Dataset(clean.n, xs, ys, flags)

    if strategy is Adversary.NONE:
        # The do-nothing adversary still spends its budget: it replaces
        # rows with identical copies, so the flags stay an exact record.
        chosen = np.sort(rng.choice(m, size=budget, replace=False))
    elif strategy is Adversary.LABEL_FLIP_RANDOM:
        chosen = np.sort(rng.choice(m, size=budget, replace=False))
        ys[chosen] ^= 1
    elif strategy is Adversary.LABEL_FLIP_MARGIN:
        chosen = _flip_margin_rows(clean, budget, tree)
        ys[chosen] ^= 1
    elif strategy is Adversary.EXAMPLE_REPLACE:
        chosen = np.sort(rng.choice(m, size=budget, replace=False))
        z_star, y_star = _replacement_point(clean, tree)
        xs[chosen] = unpack_inputs(np.array([z_star]), clean.n)[0]
        ys[chosen] = y_star
    else:
        raise ValueError(f"unknown adversary {strategy!r}")

    flags[chosen] = True
    return Dataset(clean.n, xs, ys, flags)


def _flip_margin_rows(clean: Dataset, budget: int, tree: StochasticTree) -> np.ndarray:
    """Rows whose flip hurts the Bayes classifier most, highest margin first.

    For each distinct input, flipping just over half of the rows that agree
    with the Bayes label overturns the empirical majority there; spending
    the minimum per input lets the budget reach about twice as many inputs
    as flipping whole groups would.  Inputs are visited by decreasing
    margin (ties by input), each gets the first rows it needs in row order
    until the budget runs out, and any budget left over goes to the lowest
    untaken rows.
    """
    zs, c0, c1, inverse = clean.counts()
    mu = mean_on_points(tree, zs)
    bayes = (mu >= 0.5).astype(np.uint8)
    agree = np.where(bayes == 1, c1, c0)
    disagree = c0 + c1 - agree
    # Inputs whose empirical majority already contradicts the Bayes label need nothing.
    need = np.where(agree >= disagree, (agree - disagree) // 2 + 1, 0)

    order = np.lexsort((zs, -np.abs(mu - 0.5)))
    need_in_order = need[order]
    spent_before = np.cumsum(need_in_order) - need_in_order
    take = np.empty_like(need)
    take[order] = np.clip(budget - spent_before, 0, need_in_order)

    rows = np.flatnonzero(clean.ys == bayes[inverse])
    groups = inverse[rows]
    by_group = np.argsort(groups, kind="stable")
    rows, groups = rows[by_group], groups[by_group]
    rank = np.arange(rows.size) - np.searchsorted(groups, groups)
    chosen = rows[rank < take[groups]]

    leftover = budget - chosen.size
    if leftover:
        untaken = np.ones(clean.m, dtype=bool)
        untaken[chosen] = False
        chosen = np.concatenate([chosen, np.flatnonzero(untaken)[:leftover]])
    return np.sort(chosen).astype(np.int64, copy=False)


def _replacement_point(clean: Dataset, tree: StochasticTree, enumeration_cap: int = 20) -> tuple[int, int]:
    """The most confidently classified input, mislabeled."""
    if tree.n <= enumeration_cap:
        mu = mean_vector(tree)
        z_star = int(np.argmax(np.abs(mu - 0.5)))
        mu_star = float(mu[z_star])
    else:
        zs = clean.counts()[0]
        mu = mean_on_points(tree, zs)
        best = int(np.argmax(np.abs(mu - 0.5)))
        z_star, mu_star = int(zs[best]), float(mu[best])
    return z_star, 1 - round_prob(mu_star)


def dump_dataset(ds: Dataset) -> str:
    """Header `n=<n> m=<m>`, then one `<bits> <label> <flag>` row per line."""
    lines = [f"n={ds.n} m={ds.m}"]
    for row, y, flag in zip(ds.xs, ds.ys, ds.corrupted):
        bits = "".join(str(int(b)) for b in row)
        lines.append(f"{bits} {int(y)} {int(flag)}")
    return "\n".join(lines) + "\n"


def load_dataset(text: str) -> Dataset:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("dataset text is empty")
    n, m = parse_header(lines[0], ("n", "m"))
    if len(lines) - 1 != m:
        raise ValueError(f"header says m={m} but found {len(lines) - 1} rows")
    xs = np.zeros((m, n), dtype=np.uint8)
    ys = np.zeros(m, dtype=np.uint8)
    flags = np.zeros(m, dtype=bool)
    for i, ln in enumerate(lines[1:]):
        fields = ln.split()
        if len(fields) != 3:
            raise ValueError(f"row {i} has {len(fields)} fields, expected `<bits> <label> <flag>`")
        bits, label, flag = fields
        if len(bits) != n:
            raise ValueError(f"row {i} has {len(bits)} bits, expected {n}")
        if set(bits) - {"0", "1"} or label not in ("0", "1") or flag not in ("0", "1"):
            raise ValueError(f"row {i} must hold only 0/1 bits, label and flag")
        xs[i] = [int(b) for b in bits]
        ys[i] = int(label)
        flags[i] = flag == "1"
    return Dataset(n, xs, ys, flags)


def load_learner_dataset(text: str) -> Dataset:
    """Load with the provenance flag column dropped (all rows marked clean)."""
    ds = load_dataset(text)
    return Dataset(ds.n, ds.xs, ds.ys, np.zeros(ds.m, dtype=bool))
