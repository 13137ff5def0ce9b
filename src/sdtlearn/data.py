"""Sample generation under the uniform distribution and adversarial corruption.

The adversary model: after a clean i.i.d. sample is drawn, an omniscient
adversary may rewrite any floor(eta * m) rows, both inputs and labels,
with full knowledge of the target tree and the clean sample, which lets
the example adversary find its point over the tree's query cube.  The
corruption flags record which rows were touched; they are provenance
metadata only and learners never read them.

The learners see a multiset of rows, so a dataset is its count table:
the distinct inputs, packed as int64 values with bit i holding variable
i, and how many rows sit in each (input, label, flag) cell.  It is drawn,
corrupted and fitted as that table; after the draw only numpy's
hypergeometric pick in ``corrupt`` holds one entry per row, while it runs.
Rows appear only in the text format: ``dump_dataset`` writes them in
ascending (input, label, flag) order, and ``load_dataset`` reads them in
any order and counts them.  Rows of bits appear only there and where
``find`` unpacks a block of distinct inputs into its moment products.
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
    """A multiset of labeled inputs with corruption flags, as its count
    table: the distinct packed inputs ``zs``, ascending, and ``cells``, where
    cells[u, label, flag] counts the rows at input zs[u] with that label and
    flag.  Every input in ``zs`` has at least one row."""

    n: int
    zs: np.ndarray
    cells: np.ndarray

    def __post_init__(self) -> None:
        check_var_count(self.n)
        zs = np.ascontiguousarray(np.asarray(self.zs, dtype=np.int64))
        cells = np.ascontiguousarray(np.asarray(self.cells, dtype=np.int64))
        if zs.ndim != 1 or cells.shape != (zs.size, 2, 2):
            raise ValueError(f"need 1-d zs and cells of shape (u, 2, 2), got {zs.shape} and {cells.shape}")
        if np.any(zs[1:] <= zs[:-1]):
            raise ValueError("inputs must be strictly ascending")
        if zs.size and (zs[0] < 0 or zs[-1] >= 1 << self.n):
            raise ValueError(f"packed inputs must lie in [0, 2^{self.n})")
        if cells.min(initial=0) < 0:
            raise ValueError("cell counts must be nonnegative")
        # Column sums: numpy reduces a short last axis far more slowly.
        if not (cells[:, 0, 0] + cells[:, 0, 1] + cells[:, 1, 0] + cells[:, 1, 1]).all():
            raise ValueError("every input must have at least one row")
        for arr in (zs, cells):
            arr.setflags(write=False)
        object.__setattr__(self, "zs", zs)
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_rows(cls, n: int, zs, ys, corrupted) -> "Dataset":
        """The table of rows whose i-th has packed input zs[i], label ys[i]
        and flag corrupted[i]; row order is lost."""
        zs, ys, flags = (np.asarray(a, dtype=np.int64) for a in (zs, ys, corrupted))
        if zs.ndim != 1 or ys.shape != zs.shape or flags.shape != zs.shape:
            raise ValueError("zs, ys and corrupted must be 1-d arrays with one entry per row")
        if np.any((ys >> 1 != 0) | (flags >> 1 != 0)):
            raise ValueError("labels and flags must be 0/1 valued")
        uz, inverse = np.unique(zs, return_inverse=True)
        return cls(n, uz, np.bincount(4 * inverse + 2 * ys + flags, minlength=4 * uz.size).reshape(-1, 2, 2))

    @property
    def m(self) -> int:
        return int(self.cells.sum())

    @property
    def corrupted_count(self) -> int:
        return int(self.cells[:, :, 1].sum())

    def packed(self) -> np.ndarray:
        # Kept for the benchmark's tracer, which counts distinct inputs
        # through this accessor; the library reads ``zs``.
        return self.zs

    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct packed inputs, ascending, and the number of rows
        labeled 0 and labeled 1 at each (int64), flags summed out."""
        return self.zs, self.cells[:, 0, 0] + self.cells[:, 0, 1], self.cells[:, 1, 0] + self.cells[:, 1, 1]


def draw_clean(tree: StochasticTree, m: int, rng: np.random.Generator) -> Dataset:
    """m i.i.d. rows: x uniform on {0,1}^n, y = 1 with probability mu(x).

    The generator is consumed in a fixed order: the m packed inputs first,
    as one ``rng.integers(0, 2^n, m)`` call, which are counted, then one
    ``rng.binomial`` call giving each distinct input's number of 1-labels
    among its w rows with probability mu(x).  A multiset of rows has the
    same law whichever order they come in, and integrating the coins out
    through the exact mean gives each label the same law as walking the
    tree and flipping every coin on the way.
    """
    if m < 0:
        raise ValueError("sample count must be nonnegative")
    zs, w = np.unique(rng.integers(0, 1 << tree.n, m), return_counts=True)
    # A sum of coin weights may round a few ulps past 1.
    ones = rng.binomial(w, np.minimum(mean_on_points(tree, zs), 1.0))
    cells = np.zeros((zs.size, 2, 2), dtype=np.int64)
    cells[:, 0, 0], cells[:, 1, 0] = w - ones, ones
    return Dataset(tree.n, zs, cells)


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
    every strategy but the margin adversary picks them uniformly, by one
    multivariate hypergeometric draw over the (input, label) cells."""
    if not isinstance(strategy, Adversary):
        raise ValueError(f"unknown adversary {strategy!r}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0,1], got {eta}")
    if clean.corrupted_count:
        raise ValueError("corrupt expects an all-clean sample")
    if tree.n != clean.n:
        raise ValueError(f"tree is over {tree.n} variables, sample over {clean.n}")
    budget = corruption_budget(eta, clean.m)
    if budget == 0:
        return clean

    rows = clean.cells[:, :, 0]
    if strategy is Adversary.LABEL_FLIP_MARGIN:
        chosen = _flip_margin_cells(clean, budget, tree)
    else:
        chosen = rng.multivariate_hypergeometric(rows.ravel(), budget, method="count").reshape(-1, 2)
    zs, cells = clean.zs, np.stack([rows - chosen, np.zeros_like(chosen)], axis=2)
    if strategy is Adversary.EXAMPLE_REPLACE:
        z, y = _replacement_point(clean, tree)
        at = int(np.searchsorted(zs, z))
        if at == zs.size or zs[at] != z:
            zs, cells = np.insert(zs, at, z), np.insert(cells, at, 0, axis=0)
        cells[at, y, 1] = budget
        # An input whose rows were all rewritten leaves the table.
        keep = cells.any(axis=(1, 2))
        zs, cells = zs[keep], cells[keep]
    else:
        # The do-nothing adversary still spends its budget: it replaces
        # rows with identical copies, so the flags stay an exact record.
        cells[:, :, 1] = chosen if strategy is Adversary.NONE else chosen[:, ::-1]
    return Dataset(clean.n, zs, cells)


def _flip_margin_cells(clean: Dataset, budget: int, tree: StochasticTree) -> np.ndarray:
    """How many rows of each (input, label) cell to flip: those that hurt
    the Bayes classifier most, highest margin first.

    For each distinct input, flipping just over half of the rows that agree
    with the Bayes label overturns the empirical majority there; spending
    the minimum per input lets the budget reach about twice as many inputs
    as flipping whole groups would.  Inputs are visited by decreasing
    margin (ties by input), each gets what it needs until the budget runs
    out, and any budget left over goes to the untaken rows of the lowest
    (input, label) cells.
    """
    rows = clean.cells[:, :, 0]
    mu = mean_on_points(tree, clean.zs)
    bayes = (mu >= 0.5).astype(np.intp)
    agree = np.where(bayes == 1, rows[:, 1], rows[:, 0])
    disagree = rows[:, 0] + rows[:, 1] - agree
    # Inputs whose empirical majority already contradicts the Bayes label need nothing.
    need = np.where(agree >= disagree, (agree - disagree) // 2 + 1, 0)

    order = np.lexsort((clean.zs, -np.abs(mu - 0.5)))
    need_in_order = need[order]
    spent_before = np.cumsum(need_in_order) - need_in_order
    chosen = np.zeros_like(rows)
    chosen[order, bayes[order]] = np.clip(budget - spent_before, 0, need_in_order)

    untaken = (rows - chosen).ravel()
    left_before = budget - chosen.sum() - (np.cumsum(untaken) - untaken)
    return chosen + np.clip(left_before, 0, untaken).reshape(-1, 2)


def _replacement_point(clean: Dataset, tree: StochasticTree) -> tuple[int, int]:
    """The most confidently classified input, mislabeled: the first argmax of
    |mu - 1/2| over the tree's query cube (the smallest over {0,1}^n) when
    it is within the enumeration cap, else over the sample's distinct inputs."""
    mask = query_mask(tree.root)
    blocks = _cube_blocks(mask) if mask.bit_count() <= DEFAULT_ENUMERATION_CAP else [clean.zs]
    best = (-1.0, 0, 0.0)
    for zs in blocks:
        mu = mean_on_points(tree, zs)
        i = int(np.argmax(np.abs(mu - 0.5)))
        if abs(mu[i] - 0.5) > best[0]:
            best = (abs(mu[i] - 0.5), int(zs[i]), float(mu[i]))
    return best[1], 1 - round_prob(best[2])


def _cube_blocks(mask: int):
    """``cube_inputs(mask)`` in order, in blocks of 2^_CUBE_BLOCK_BITS inputs:
    the cube of mask's lowest variables ORed with each point of the rest's."""
    low = mask
    while low.bit_count() > _CUBE_BLOCK_BITS:
        low &= ~(1 << (low.bit_length() - 1))
    block = cube_inputs(low)
    for high in cube_inputs(mask & ~low).tolist():
        yield block | high


def dump_dataset(ds: Dataset) -> str:
    """Header `n=<n> m=<m>`, then one `<bits> <label> <flag>` row per line,
    in ascending (input, label, flag) order."""
    n = ds.n
    lines = np.empty((ds.zs.size, 2, 2, n + 5), dtype=np.uint8)
    lines[..., :n] = unpack_inputs(ds.zs, n)[:, None, None] + ord("0")
    lines[..., n] = lines[..., n + 2] = ord(" ")
    lines[..., n + 1] = np.arange(2)[:, None] + ord("0")
    lines[..., n + 3] = np.arange(2) + ord("0")
    lines[..., n + 4] = ord("\n")
    rows = np.repeat(lines.reshape(-1, n + 5), ds.cells.ravel(), axis=0)
    return f"n={n} m={ds.m}\n" + rows.tobytes().decode("ascii")


def load_dataset(text: str) -> Dataset:
    """Parse `dump_dataset` text, its rows in any order; fields may be
    separated by any whitespace.

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
    return Dataset.from_rows(n, pack_inputs(codes[:, :n]), codes[:, n], codes[:, n + 1])
