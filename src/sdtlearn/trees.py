"""Stochastic decision trees over {0,1}^n: representation and exact semantics.

A tree mixes three node kinds: ``Query`` branches on an input variable,
``Stoch`` branches on an independent biased coin, and ``Leaf`` outputs a
fixed bit.  The mean function mu(x) = Pr[tree outputs 1 on x] is the
central quantity; the Bayes classifier, the stochastic-leaf approximation,
depth truncation, and the low-degree polynomial expansion all derive
from it.

Conventions used throughout the package:

* Trees are immutable values; every construction returns a new tree.
* Inputs are packed into int64 values, with bit i of z holding variable i.
  Datasets hold packed inputs; rows of bits exist only in text files.
* Stochastic nodes are enumerated in preorder (node before children,
  the 0/heads child before the 1/tails child).  A randomness string has
  one bit per stochastic node in that order; bit j = 1 means the j-th
  stochastic node takes its heads branch.
* Depth counts Query nodes only.  Stochastic nodes are free, which keeps
  the 2^-depth reach-probability accounting exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .polynomials import Monomial, MultilinearPolynomial, parse_header


@dataclass(frozen=True)
class Leaf:
    """Terminal node emitting a fixed bit."""

    label: int


@dataclass(frozen=True)
class Query:
    """Deterministic branch on variable ``var``; 0 goes to ``child0``."""

    var: int
    child0: "Node"
    child1: "Node"


@dataclass(frozen=True)
class Stoch:
    """Coin-flip branch: heads (probability ``p``) goes to ``child_heads``."""

    p: float
    child_heads: "Node"
    child_tails: "Node"


Node = Union[Leaf, Query, Stoch]

RandomnessString = Sequence[int]


#: Most nodes on a root-to-leaf path.  The tree functions recurse once per
#: node on a path, so this stays well below Python's recursion limit.
MAX_NESTING = 256


def _validate_node(node: Node, n: int) -> None:
    stack = [(node, 1)]
    while stack:
        cur, depth = stack.pop()
        if depth > MAX_NESTING:
            raise ValueError(f"tree nests deeper than {MAX_NESTING} nodes")
        if isinstance(cur, Leaf):
            if cur.label not in (0, 1):
                raise ValueError(f"leaf label must be 0 or 1, got {cur.label!r}")
        elif isinstance(cur, Query):
            if not 0 <= cur.var < n:
                raise ValueError(f"query variable {cur.var} out of range for n={n}")
            stack.append((cur.child0, depth + 1))
            stack.append((cur.child1, depth + 1))
        elif isinstance(cur, Stoch):
            if not 0.0 <= cur.p <= 1.0:
                raise ValueError(f"stochastic probability {cur.p} outside [0,1]")
            stack.append((cur.child_heads, depth + 1))
            stack.append((cur.child_tails, depth + 1))
        else:
            raise TypeError(f"not a tree node: {cur!r}")


def leaf_count(node: Node) -> int:
    if isinstance(node, Leaf):
        return 1
    if isinstance(node, Query):
        return leaf_count(node.child0) + leaf_count(node.child1)
    return leaf_count(node.child_heads) + leaf_count(node.child_tails)


def query_depth(node: Node) -> int:
    """Maximum number of Query nodes on any root-to-leaf path."""
    if isinstance(node, Leaf):
        return 0
    if isinstance(node, Query):
        return 1 + max(query_depth(node.child0), query_depth(node.child1))
    return max(query_depth(node.child_heads), query_depth(node.child_tails))


def stoch_count(node: Node) -> int:
    if isinstance(node, Leaf):
        return 0
    if isinstance(node, Query):
        return stoch_count(node.child0) + stoch_count(node.child1)
    return 1 + stoch_count(node.child_heads) + stoch_count(node.child_tails)


def preorder(node: Node) -> Iterator[Node]:
    """Preorder traversal; fixes the canonical stochastic-node order."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, Query):
            stack.append(cur.child1)
            stack.append(cur.child0)
        elif isinstance(cur, Stoch):
            stack.append(cur.child_tails)
            stack.append(cur.child_heads)


@dataclass(frozen=True)
class StochasticTree:
    """An immutable stochastic decision tree over n boolean variables."""

    n: int
    root: Node

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        _validate_node(self.root, self.n)

    @property
    def size(self) -> int:
        """Number of leaves."""
        return leaf_count(self.root)

    @property
    def depth(self) -> int:
        return query_depth(self.root)

    @property
    def num_stochastic(self) -> int:
        return stoch_count(self.root)

    @property
    def is_deterministic(self) -> bool:
        return self.num_stochastic == 0

    @property
    def is_stochastic_leaf(self) -> bool:
        """True when every stochastic node has two Leaf children."""
        for node in preorder(self.root):
            if isinstance(node, Stoch):
                if not (isinstance(node.child_heads, Leaf) and isinstance(node.child_tails, Leaf)):
                    return False
        return True


#: Most variables an input can have: packed inputs are nonnegative int64.
MAX_PACKED_VARS = 62


def pack_inputs(xs: np.ndarray) -> np.ndarray:
    """Pack rows of bits into int64 values (bit i = variable i), widening
    a block of rows at a time so that the int64 copy stays within 4 MiB."""
    xs = np.asarray(xs)
    if xs.ndim != 2:
        raise ValueError("expected a 2-d array of rows")
    m, n = xs.shape
    if n > MAX_PACKED_VARS:
        raise ValueError(f"packing supports at most {MAX_PACKED_VARS} variables")
    weights = np.int64(1) << np.arange(n, dtype=np.int64)
    out = np.empty(m, dtype=np.int64)
    step = (1 << 19) // max(n, 1)
    for start in range(0, m, step):
        out[start : start + step] = xs[start : start + step].astype(np.int64) @ weights
    return out


def unpack_inputs(zs: np.ndarray, n: int) -> np.ndarray:
    zs = np.asarray(zs, dtype=np.int64)
    bits = (zs[:, None] >> np.arange(n, dtype=np.int64)) & 1
    return bits.astype(np.uint8)


def mean(tree: StochasticTree, x: Sequence[int]) -> float:
    """Probability that the tree outputs 1 on x, by exact traversal."""
    if len(x) != tree.n:
        raise ValueError(f"input has length {len(x)}, expected {tree.n}")

    def rec(node: Node) -> float:
        if isinstance(node, Leaf):
            return float(node.label)
        if isinstance(node, Query):
            return rec(node.child1) if x[node.var] else rec(node.child0)
        return node.p * rec(node.child_heads) + (1.0 - node.p) * rec(node.child_tails)

    return rec(tree.root)


def mean_vector(tree: StochasticTree) -> np.ndarray:
    """mu over all 2^n packed inputs; index z has variable i = bit i of z."""
    return mean_on_points(tree, np.arange(1 << tree.n, dtype=np.int64))


def mean_on_points(tree: StochasticTree, zs: np.ndarray) -> np.ndarray:
    """mu evaluated at the given packed inputs."""
    zs = np.asarray(zs, dtype=np.int64)
    out = np.zeros(zs.shape, dtype=np.float64)
    idx0 = np.arange(zs.size, dtype=np.int64)

    def rec(node: Node, idx: np.ndarray, weight: float) -> None:
        if weight == 0.0 or idx.size == 0:
            return
        if isinstance(node, Leaf):
            if node.label:
                out[idx] += weight
            return
        if isinstance(node, Query):
            bit = (zs[idx] >> node.var) & 1
            rec(node.child0, idx[bit == 0], weight)
            rec(node.child1, idx[bit == 1], weight)
            return
        rec(node.child_heads, idx, weight * node.p)
        rec(node.child_tails, idx, weight * (1.0 - node.p))

    rec(tree.root, idx0, 1.0)
    # rec's closure holds rec itself; unbinding it frees zs now rather than
    # at the next cyclic garbage collection, which a caller that makes few
    # Python objects may not reach for many calls.
    del rec
    return out


def round_prob(t: float) -> int:
    """Threshold at one half: 1 exactly when t >= 0.5."""
    return int(t >= 0.5)


def stochastic_probabilities(tree: StochasticTree) -> list[float]:
    """Heads probabilities of all stochastic nodes, in preorder."""
    return [node.p for node in preorder(tree.root) if isinstance(node, Stoch)]


def sample_randomness(tree: StochasticTree, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw a randomness string; bit j is heads with the j-th node's probability."""
    return tuple(int(rng.random() < p) for p in stochastic_probabilities(tree))


def fix_randomness(tree: StochasticTree, r: RandomnessString) -> StochasticTree:
    """The deterministic tree obtained by resolving every coin flip via r."""
    m = stoch_count(tree.root)
    if len(r) != m:
        raise ValueError(f"randomness string has length {len(r)}, tree has {m} stochastic nodes")
    bits = iter(r)

    def rec(node: Node) -> Node:
        if isinstance(node, Leaf):
            return node
        if isinstance(node, Query):
            return Query(node.var, rec(node.child0), rec(node.child1))
        # Both branches are rebuilt so that r is read in preorder, one bit
        # per coin; the branch r's bit selects is kept.
        heads_taken = next(bits)
        heads, tails = rec(node.child_heads), rec(node.child_tails)
        return heads if heads_taken else tails

    return StochasticTree(tree.n, rec(tree.root))


#: Largest n for which ``stochastic_leaf_approx`` measures its exact l1 distance.
_APPROX_ENUMERATION_CAP = 20


@dataclass(frozen=True)
class StochasticLeafApproximation:
    """Result of the stacking construction.

    ``l1_distance`` is the exact average |mu_original - mu_approx| over all
    inputs (None when n exceeds the enumeration cap).  The construction
    only guarantees small distance in expectation over its random draws,
    so callers inspect the achieved distance and retry with a fresh rng
    if needed.
    """

    tree: StochasticTree
    c: int
    l1_distance: float | None


def stochastic_leaf_approx(
    tree: StochasticTree,
    eps: float,
    rng: np.random.Generator,
) -> StochasticLeafApproximation:
    """Approximate an arbitrary tree by one whose coins sit just above leaves.

    Draws c = ceil(1/eps^2) randomness strings, fixes the tree under each,
    and stacks the resulting deterministic trees; each stacked leaf becomes
    a coin whose heads probability is the fraction of the c trees that
    classify the leaf's region as 1.  Stacking is restriction-simplified:
    a query on a variable already fixed on the path collapses to the
    consistent child, which leaves the computed function unchanged while
    bounding the output at 2^n leaves.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    c = math.ceil(1.0 / (eps * eps))
    roots = [fix_randomness(tree, sample_randomness(tree, rng)).root for _ in range(c)]

    def build(i: int, node: Node, assign: dict[int, int], ones: int) -> Node:
        # Walks copy i from node, then copies i + 1, ..., c - 1 from their
        # roots, and recurses only on a variable no earlier query fixed, so
        # the recursion is at most n + 1 calls deep whatever c is.
        while True:
            if isinstance(node, Leaf):
                ones += node.label
                i += 1
                if i == c:
                    return Stoch(ones / c, Leaf(1), Leaf(0))
                node = roots[i]
            elif node.var in assign:
                node = node.child1 if assign[node.var] else node.child0
            else:
                return Query(
                    node.var,
                    build(i, node.child0, {**assign, node.var: 0}, ones),
                    build(i, node.child1, {**assign, node.var: 1}, ones),
                )

    approx = StochasticTree(tree.n, build(0, roots[0], {}, 0))
    l1 = None
    if tree.n <= _APPROX_ENUMERATION_CAP:
        l1 = float(np.mean(np.abs(mean_vector(tree) - mean_vector(approx))))
    return StochasticLeafApproximation(approx, c, l1)


def stochastic_leaf_to_deterministic(tree: StochasticTree) -> StochasticTree:
    """Replace each leaf-level coin by the leaf its mean rounds to.

    Requires a stochastic-leaf tree; the output is deterministic and
    computes the Bayes classifier of the input tree.
    """
    if not tree.is_stochastic_leaf:
        raise ValueError("input tree is not stochastic-leaf")

    def rec(node: Node) -> Node:
        if isinstance(node, Leaf):
            return node
        if isinstance(node, Query):
            return Query(node.var, rec(node.child0), rec(node.child1))
        heads = node.child_heads.label
        tails = node.child_tails.label
        return Leaf(round_prob(node.p * heads + (1.0 - node.p) * tails))

    return StochasticTree(tree.n, rec(tree.root))


def truncate(tree: StochasticTree, d: int) -> StochasticTree:
    """Cut every branch after d query nodes, replacing it with a 1-leaf."""
    if d < 0:
        raise ValueError("depth must be nonnegative")

    def rec(node: Node, budget: int) -> Node:
        if isinstance(node, Leaf):
            return node
        if isinstance(node, Query):
            if budget == 0:
                return Leaf(1)
            return Query(node.var, rec(node.child0, budget - 1), rec(node.child1, budget - 1))
        return Stoch(node.p, rec(node.child_heads, budget), rec(node.child_tails, budget))

    return StochasticTree(tree.n, rec(tree.root, d))


def deep_leaf_count(tree: StochasticTree, d: int) -> int:
    """Number of leaves whose path crosses more than d query nodes."""

    def rec(node: Node, qdepth: int) -> int:
        if isinstance(node, Leaf):
            return 1 if qdepth > d else 0
        if isinstance(node, Query):
            return rec(node.child0, qdepth + 1) + rec(node.child1, qdepth + 1)
        return rec(node.child_heads, qdepth) + rec(node.child_tails, qdepth)

    return rec(tree.root, 0)


def mean_polynomial(tree: StochasticTree, depth_cutoff: int) -> MultilinearPolynomial:
    """Exact multilinear expansion of the mean function, deep leaves zeroed.

    Leaves at query depth beyond the cutoff contribute nothing (as if they
    were 0-leaves), so the result has degree at most ``depth_cutoff`` and
    can disagree with mu only on inputs reaching such a leaf.
    """
    if depth_cutoff < 0:
        raise ValueError("depth cutoff must be nonnegative")
    coeffs: dict[Monomial, float] = {}

    def add_path(factors: tuple[tuple[int, int], ...], weight: float) -> None:
        poly: dict[Monomial, float] = {(): weight}
        for var, bit in factors:
            nxt: dict[Monomial, float] = {}
            for mono, coef in poly.items():
                grown = tuple(sorted(set(mono) | {var}))
                if bit:
                    nxt[grown] = nxt.get(grown, 0.0) + coef
                else:
                    nxt[mono] = nxt.get(mono, 0.0) + coef
                    nxt[grown] = nxt.get(grown, 0.0) - coef
            poly = nxt
        for mono, coef in poly.items():
            coeffs[mono] = coeffs.get(mono, 0.0) + coef

    def rec(node: Node, factors: tuple[tuple[int, int], ...], weight: float, qdepth: int) -> None:
        if weight == 0.0:
            return
        if isinstance(node, Leaf):
            if node.label and qdepth <= depth_cutoff:
                add_path(factors, weight)
            return
        if isinstance(node, Query):
            if qdepth >= depth_cutoff:
                # Every leaf below is too deep; nothing can contribute.
                return
            rec(node.child0, factors + ((node.var, 0),), weight, qdepth + 1)
            rec(node.child1, factors + ((node.var, 1),), weight, qdepth + 1)
            return
        rec(node.child_heads, factors, weight * node.p, qdepth)
        rec(node.child_tails, factors, weight * (1.0 - node.p), qdepth)

    rec(tree.root, (), 1.0, 0)
    coeffs = {m: c for m, c in coeffs.items() if c != 0.0}
    return MultilinearPolynomial(tree.n, min(depth_cutoff, tree.n), coeffs)


def random_tree(
    n: int,
    s: int,
    stoch_fraction: float,
    rng: np.random.Generator,
) -> StochasticTree:
    """Random tree with exactly s leaves.

    Each internal node is stochastic with probability ``stoch_fraction``
    (heads probability uniform on [0,1]) and otherwise queries a variable
    not yet queried on its path.  Purely deterministic trees need
    s <= 2^n; leaf budgets are split so paths never run out of variables.
    """
    if s < 1:
        raise ValueError("tree size must be at least 1")
    if not 0.0 <= stoch_fraction <= 1.0:
        raise ValueError("stoch_fraction must lie in [0,1]")
    if n == 0 and s > 1:
        raise ValueError("cannot build a multi-leaf tree over zero variables")
    if stoch_fraction == 0.0 and s > (1 << n):
        raise ValueError(f"a deterministic tree over {n} variables has at most {1 << n} leaves")

    def build(budget: int, available: tuple[int, ...]) -> Node:
        if budget == 1:
            return Leaf(int(rng.integers(2)))
        use_stoch = bool(rng.random() < stoch_fraction) or not available
        if use_stoch:
            left = int(rng.integers(1, budget))
            return Stoch(float(rng.random()), build(left, available), build(budget - left, available))
        var = available[int(rng.integers(len(available)))]
        rest = tuple(v for v in available if v != var)
        if stoch_fraction == 0.0:
            cap = 1 << len(rest)
            lo, hi = max(1, budget - cap), min(budget - 1, cap)
            left = int(rng.integers(lo, hi + 1))
        else:
            left = int(rng.integers(1, budget))
        return Query(var, build(left, rest), build(budget - left, rest))

    return StochasticTree(n, build(s, tuple(range(n))))


def dump_tree(tree: StochasticTree) -> str:
    """One node per line in preorder: `Q <var>`, `S <p>`, `L <0|1>`."""
    lines = [f"n={tree.n}"]
    for node in preorder(tree.root):
        if isinstance(node, Leaf):
            lines.append(f"L {node.label}")
        elif isinstance(node, Query):
            lines.append(f"Q {node.var}")
        else:
            lines.append(f"S {node.p!r}")
    return "\n".join(lines) + "\n"


def load_tree(text: str) -> StochasticTree:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("tree text is empty")
    (n,) = parse_header(lines[0], ("n",))
    it = iter(lines[1:])

    def parse(depth: int) -> Node:
        if depth > MAX_NESTING:
            raise ValueError(f"tree nests deeper than {MAX_NESTING} nodes")
        try:
            line = next(it)
        except StopIteration:
            raise ValueError("tree text ended before the tree was complete") from None
        kind, _, value = line.partition(" ")
        if kind == "L":
            return Leaf(int(value))
        if kind == "Q":
            return Query(int(value), parse(depth + 1), parse(depth + 1))
        if kind == "S":
            return Stoch(float(value), parse(depth + 1), parse(depth + 1))
        raise ValueError(f"unknown node line: {line!r}")

    root = parse(1)
    if next(it, None) is not None:
        raise ValueError("trailing node lines after the tree was complete")
    return StochasticTree(n, root)
