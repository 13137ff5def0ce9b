"""Sample generation under the uniform distribution and adversarial corruption.

The adversary model: after a clean i.i.d. sample is drawn, an omniscient
adversary may rewrite any floor(eta * m) rows, both inputs and labels,
with full knowledge of the target tree and the clean sample.  The
``corrupted`` flags record which rows were touched; they are provenance
metadata only and learners never read them.

A dataset holds its inputs packed, as int64 values with bit i holding
variable i, which is the form every kernel reads.  Rows of bits exist only
in the text format: ``dump_dataset`` unpacks and ``load_dataset`` packs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .polynomials import check_var_count, parse_header
from .trees import (
    StochasticTree,
    mean_on_points,
    pack_inputs,
    round_prob,
    unpack_inputs,
)


class Adversary(Enum):
    NONE = "none"
    LABEL_FLIP_RANDOM = "label_flip_random"
    LABEL_FLIP_MARGIN = "label_flip_margin"
    EXAMPLE_REPLACE = "example_replace"


@dataclass(frozen=True, eq=False)
class Dataset:
    """A multiset of labeled inputs with per-row corruption flags; row i
    has the packed input zs[i], label ys[i] and flag corrupted[i]."""

    n: int
    zs: np.ndarray
    ys: np.ndarray
    corrupted: np.ndarray

    def __post_init__(self) -> None:
        check_var_count(self.n)
        zs = np.ascontiguousarray(np.asarray(self.zs, dtype=np.int64))
        ys = np.ascontiguousarray(np.asarray(self.ys, dtype=np.uint8))
        flags = np.ascontiguousarray(np.asarray(self.corrupted, dtype=bool))
        if zs.ndim != 1:
            raise ValueError("zs must be a 1-d array of packed inputs")
        if ys.shape != zs.shape or flags.shape != zs.shape:
            raise ValueError("ys and corrupted must have one entry per row")
        if zs.size and (zs.min() < 0 or zs.max() >= 1 << self.n):
            raise ValueError(f"packed inputs must lie in [0, 2^{self.n})")
        if ys.size and ys.max() > 1:
            raise ValueError("labels must be 0/1 valued")
        for arr in (zs, ys, flags):
            arr.setflags(write=False)
        object.__setattr__(self, "zs", zs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "corrupted", flags)

    @property
    def m(self) -> int:
        return self.zs.size

    @property
    def corrupted_count(self) -> int:
        return int(self.corrupted.sum())

    def packed(self) -> np.ndarray:
        # Kept for the benchmark's tracer, which counts distinct inputs
        # through this accessor; the library reads ``zs``.
        return self.zs

    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The count table: distinct packed inputs in ascending order, the
        number of rows labeled 0 and labeled 1 at each (int64), and each
        row's index into the table."""
        zs, inverse = np.unique(self.zs, return_inverse=True)
        total = np.bincount(inverse, minlength=zs.size).astype(np.int64)
        c1 = np.bincount(inverse[self.ys == 1], minlength=zs.size).astype(np.int64)
        return zs, total - c1, c1, inverse


def draw_clean(tree: StochasticTree, m: int, rng: np.random.Generator) -> Dataset:
    """m i.i.d. rows: x uniform on {0,1}^n, y = 1 with probability mu(x).

    The generator is consumed in a fixed order: all inputs first, as one
    ``rng.integers(0, 2, size=(m, n))`` call whose rows are packed at once,
    then one uniform u_i per row from ``rng.random(m)``; row i is labeled 1
    exactly when u_i < mu(x_i).  Integrating the coins out through the exact
    mean gives each label the same law as walking the tree and flipping
    every coin on the way.
    """
    if m < 0:
        raise ValueError("sample count must be nonnegative")
    zs = pack_inputs(rng.integers(0, 2, size=(m, tree.n), dtype=np.uint8))
    ys = (rng.random(m) < mean_on_points(tree, zs)).astype(np.uint8)
    return Dataset(tree.n, zs, ys, np.zeros(m, dtype=bool))


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
    """Apply an adversary to exactly floor(eta * m) rows of a clean sample;
    every strategy but the margin adversary picks them with one rng.choice."""
    if not isinstance(strategy, Adversary):
        raise ValueError(f"unknown adversary {strategy!r}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0,1], got {eta}")
    if clean.corrupted.any():
        raise ValueError("corrupt expects an all-clean sample")
    if tree.n != clean.n:
        raise ValueError(f"tree is over {tree.n} variables, sample over {clean.n}")
    m = clean.m
    budget = corruption_budget(eta, m)
    zs = np.array(clean.zs)
    ys = np.array(clean.ys)
    flags = np.zeros(m, dtype=bool)
    if budget == 0:
        return Dataset(clean.n, zs, ys, flags)

    if strategy is Adversary.LABEL_FLIP_MARGIN:
        chosen = _flip_margin_rows(clean, budget, tree)
    else:
        # The do-nothing adversary still spends its budget: it replaces
        # rows with identical copies, so the flags stay an exact record.
        chosen = np.sort(rng.choice(m, size=budget, replace=False))
    if strategy in (Adversary.LABEL_FLIP_RANDOM, Adversary.LABEL_FLIP_MARGIN):
        ys[chosen] ^= 1
    elif strategy is Adversary.EXAMPLE_REPLACE:
        zs[chosen], ys[chosen] = _replacement_point(clean, tree)

    flags[chosen] = True
    return Dataset(clean.n, zs, ys, flags)


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


#: Largest n for which ``_replacement_point`` searches all of {0,1}^n
#: rather than the sample's inputs.
_REPLACEMENT_ENUMERATION_CAP = 20


def _replacement_point(clean: Dataset, tree: StochasticTree) -> tuple[int, int]:
    """The most confidently classified input, mislabeled: the argmax of
    |mu - 1/2| over {0,1}^n up to the cap, over the sample's distinct
    inputs above it."""
    if tree.n <= _REPLACEMENT_ENUMERATION_CAP:
        zs = np.arange(1 << tree.n, dtype=np.int64)
    else:
        zs = np.unique(clean.zs)
    mu = mean_on_points(tree, zs)
    best = int(np.argmax(np.abs(mu - 0.5)))
    return int(zs[best]), 1 - round_prob(float(mu[best]))


def dump_dataset(ds: Dataset) -> str:
    """Header `n=<n> m=<m>`, then one `<bits> <label> <flag>` row per line."""
    n = ds.n
    rows = np.empty((ds.m, n + 5), dtype=np.uint8)
    rows[:, :n] = unpack_inputs(ds.zs, n) + ord("0")
    rows[:, n] = rows[:, n + 2] = ord(" ")
    rows[:, n + 1] = ds.ys + ord("0")
    rows[:, n + 3] = ds.corrupted + ord("0")
    rows[:, n + 4] = ord("\n")
    return f"n={n} m={ds.m}\n" + rows.tobytes().decode("ascii")


def load_dataset(text: str) -> Dataset:
    """Parse `dump_dataset` text; fields may be separated by any whitespace.

    Every row goes through the same checks at once, in this order: three
    fields, n bits, and only 0/1 characters.  The first row that fails
    any check is named, with the first check it fails.  With n = 0 the
    bits field is empty, so a row `<label> <flag>` has all three.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("dataset text is empty")
    n, m = parse_header(lines[0], ("n", "m"))
    check_var_count(n)  # before any row is read at n + 2 bytes
    if len(lines) - 1 != m:
        raise ValueError(f"header says m={m} but found {len(lines) - 1} rows")
    rows = [ln.split() for ln in lines[1:]]
    if n == 0:
        rows = [[""] + r if len(r) == 2 else r for r in rows]
    fields = np.fromiter(map(len, rows), dtype=np.int64, count=m)
    widths = np.fromiter((len(r[0]) if len(r) == 3 else 0 for r in rows), dtype=np.int64, count=m)
    # Each row's n + 2 characters, or n + 2 placeholders that fail the 0/1
    # check when the row has another shape; non-ASCII characters become
    # one "?" each, so the buffer always holds m * (n + 2) bytes.
    cells = "".join(
        "".join(r) if len(r) == 3 and len(r[0]) == n and len(r[1]) == len(r[2]) == 1 else "?" * (n + 2)
        for r in rows
    )
    codes = np.frombuffer(cells.encode("ascii", "replace"), dtype=np.uint8).reshape(m, n + 2) - ord("0")
    failed = np.stack([fields != 3, widths != n, (codes > 1).any(axis=1)])
    bad_rows = np.flatnonzero(failed.any(axis=0))
    if bad_rows.size:
        i = int(bad_rows[0])
        messages = (
            f"row {i} has {fields[i]} fields, expected `<bits> <label> <flag>`",
            f"row {i} has {widths[i]} bits, expected {n}",
            f"row {i} must hold only 0/1 bits, label and flag",
        )
        raise ValueError(messages[int(np.argmax(failed[:, i]))])
    return Dataset(n, pack_inputs(codes[:, :n]), codes[:, n], codes[:, n + 1] == 1)

