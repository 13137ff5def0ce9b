"""Sample generation under the uniform distribution and adversarial corruption.

The adversary model: after a clean i.i.d. sample is drawn, an omniscient
adversary may rewrite any floor(eta * m) rows, both inputs and labels,
with full knowledge of the target tree and the clean sample, which lets
the example adversary find its point over the tree's query cube.  The
``corrupted`` flags record which rows were touched; they are provenance
metadata only and learners never read them.

A dataset holds its inputs packed, as int64 values with bit i holding
variable i, which is the form every kernel reads.  Rows of bits appear only
where ``draw_clean`` draws and packs inputs, where ``find`` unpacks a block
of them into the bit rows of its moment products, and in the text format:
``dump_dataset`` unpacks, ``load_dataset`` packs.

``Dataset.counts``, the count table that ``find``, the regressions and the
margin adversary read, counts over the cube when there are at least as many
rows as {0,1}^n has points and sorts the rows otherwise, with identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .polynomials import check_var_count, read_text
from .trees import (
    DEFAULT_ENUMERATION_CAP,
    StochasticTree,
    cube_inputs,
    mean_on_points,
    pack_inputs,
    query_mask,
    round_prob,
    unpack_inputs,
)


#: The example adversary scans its query cube in blocks of 2^this inputs.
_CUBE_BLOCK_BITS = 16


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
        row's index into the table (intp).  With at least as many rows as
        {0,1}^n has points the inputs seen come from a ``bincount`` over the
        cube, never longer than the rows; with fewer, from ``np.unique``."""
        if self.m >= 1 << self.n:
            seen = np.bincount(self.zs, minlength=1 << self.n) > 0
            zs, inverse = np.flatnonzero(seen), (np.cumsum(seen) - 1)[self.zs]
        else:
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
    # 8- or 16-bit group ids (u <= 65,536) sort by radix; group g holds
    # agree[g] rows, so a row's rank counts from where its group starts.
    groups = inverse[rows].astype(np.min_scalar_type(zs.size - 1))
    by_group = np.argsort(groups, kind="stable")
    rows, groups = rows[by_group], groups[by_group]
    rank = np.arange(rows.size) - (np.cumsum(agree) - agree)[groups]
    chosen = rows[rank < take[groups]]

    leftover = budget - chosen.size
    if leftover:
        untaken = np.ones(clean.m, dtype=bool)
        untaken[chosen] = False
        chosen = np.concatenate([chosen, np.flatnonzero(untaken)[:leftover]])
    return np.sort(chosen).astype(np.int64, copy=False)


def _replacement_point(clean: Dataset, tree: StochasticTree) -> tuple[int, int]:
    """The most confidently classified input, mislabeled: the first argmax of
    |mu - 1/2| over the tree's query cube (the smallest over {0,1}^n) when
    it is within the enumeration cap, else over the sample's distinct inputs."""
    mask = query_mask(tree.root)
    blocks = _cube_blocks(mask) if mask.bit_count() <= DEFAULT_ENUMERATION_CAP else [np.unique(clean.zs)]
    best = (-1.0, 0, 0.0)
    for zs in blocks:
        mu = mean_on_points(tree, zs)
        i = int(np.argmax(np.abs(mu - 0.5)))
        if abs(mu[i] - 0.5) > best[0]:
            best = (abs(mu[i] - 0.5), int(zs[i]), float(mu[i]))
    return best[1], 1 - round_prob(best[2])


def _cube_blocks(mask: int):
    """``cube_inputs(mask)`` in order, in blocks of 2^_CUBE_BLOCK_BITS inputs:
    the block's index bits above the low ones land on mask's higher variables."""
    variables = [v for v in range(mask.bit_length()) if mask >> v & 1]
    width = min(len(variables), _CUBE_BLOCK_BITS)
    low = cube_inputs(sum(1 << v for v in variables[:width]))
    for h in range(1 << (len(variables) - width)):
        yield low | sum(1 << v for j, v in enumerate(variables[width:]) if h >> j & 1)


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

    Each row is checked in turn: three fields, n bits, and only 0/1
    characters.  The first row that fails is named, with the first check
    it fails.  With n = 0 the bits field is empty, so a row `<label> <flag>`
    has all three.
    """
    (n, m), rows = read_text(text, "dataset", ("n", "m"))
    if len(rows) != m:
        raise ValueError(f"header says m={m} but found {len(rows)} rows")
    cells = []
    for i, row in enumerate(rows):
        fields = row.split()
        if n == 0 and len(fields) == 2:
            fields.insert(0, "")
        if len(fields) != 3:
            raise ValueError(f"row {i} has {len(fields)} fields, expected `<bits> <label> <flag>`")
        if len(fields[0]) != n:
            raise ValueError(f"row {i} has {len(fields[0])} bits, expected {n}")
        cell = "".join(fields)
        if len(cell) != n + 2 or cell.strip("01"):
            raise ValueError(f"row {i} must hold only 0/1 bits, label and flag")
        cells.append(cell)
    codes = np.frombuffer("".join(cells).encode("ascii"), dtype=np.uint8).reshape(m, n + 2) - ord("0")
    return Dataset(n, pack_inputs(codes[:, :n]), codes[:, n], codes[:, n + 1] == 1)
