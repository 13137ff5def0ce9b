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
  Datasets hold distinct packed inputs with their row counts; rows of bits
  appear only in ``find``'s moment products and in text files.
* Stochastic nodes are enumerated in preorder (node before children,
  the 0/heads child before the 1/tails child).  A randomness string has
  one bit per stochastic node in that order; bit j = 1 means the j-th
  stochastic node takes its heads branch.
* Depth counts Query nodes only.  Stochastic nodes are free, which keeps
  the 2^-depth reach-probability accounting exact.
* Exact sums enumerate at most ``DEFAULT_ENUMERATION_CAP`` variables with
  ``cube_inputs``; mu reads only ``query_mask``, so its query cube suffices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .polynomials import MultilinearPolynomial, check_var_count, read_text


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


#: Most nodes on a root-to-leaf path.  ``mean``, ``fix_randomness``,
#: ``truncate``, ``stochastic_leaf_to_deterministic`` and ``load_tree``'s
#: parser recurse once per node on a path, so this stays well below
#: Python's recursion limit.
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


def stoch_count(node: Node) -> int:
    return sum(isinstance(cur, Stoch) for cur in preorder(node))


def leaf_paths(node: Node) -> Iterator[tuple[int, float, int, int, int]]:
    """Every leaf in preorder as (label, weight, mask, bits, query depth).

    The leaf's path fixes the subcube {z : z & mask == bits}, and on that
    subcube the leaf is reached with probability ``weight``: the product of
    the coin probabilities on the path, multiplied root first.  A path that
    answers one variable both ways is never taken and has weight 0.
    """
    stack = [(node, 1.0, 0, 0, 0)]
    while stack:
        cur, weight, mask, bits, depth = stack.pop()
        if isinstance(cur, Leaf):
            yield cur.label, weight, mask, bits, depth
        elif isinstance(cur, Query):
            bit = 1 << cur.var
            w0 = w1 = weight
            if mask & bit:
                w0, w1 = (0.0, weight) if bits & bit else (weight, 0.0)
            stack.append((cur.child1, w1, mask | bit, bits | bit, depth + 1))
            stack.append((cur.child0, w0, mask | bit, bits, depth + 1))
        else:
            stack.append((cur.child_tails, weight * (1.0 - cur.p), mask, bits, depth))
            stack.append((cur.child_heads, weight * cur.p, mask, bits, depth))


@dataclass(frozen=True)
class StochasticTree:
    """An immutable stochastic decision tree over n boolean variables."""

    n: int
    root: Node

    def __post_init__(self) -> None:
        check_var_count(self.n)
        _validate_node(self.root, self.n)

    @property
    def size(self) -> int:
        """Number of leaves."""
        return sum(isinstance(node, Leaf) for node in preorder(self.root))

    @property
    def depth(self) -> int:
        """Most Query nodes on any root-to-leaf path."""
        return max(depth for *_, depth in leaf_paths(self.root))

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


def pack_inputs(xs: np.ndarray) -> np.ndarray:
    """Pack rows of bits into int64 values (bit i = variable i), widening
    a block of rows at a time so that the int64 copy stays within 4 MiB."""
    xs = np.asarray(xs)
    if xs.ndim != 2:
        raise ValueError("expected a 2-d array of rows")
    m, n = xs.shape
    check_var_count(n)
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


#: Most variables any exact sum enumerates: 2^24 int64 inputs take 128 MiB.
DEFAULT_ENUMERATION_CAP = 24


def query_mask(node: Node) -> int:
    """The variables the Query nodes read, as a mask: mu(z) depends only on
    z & query_mask, so the query cube holds every value of mu equally often."""
    return sum({1 << cur.var for cur in preorder(node) if isinstance(cur, Query)})


def cube_inputs(mask: int) -> np.ndarray:
    """The 2^k packed inputs whose bits outside mask are 0, ascending, built
    by doubling over mask's bits from the lowest; for mask 2^n - 1 this is
    arange(2^n).  Past the cap's k it refuses before allocating anything."""
    k = mask.bit_count()
    if k > DEFAULT_ENUMERATION_CAP:
        raise ValueError(f"exact enumeration over {k} variables exceeds the cap {DEFAULT_ENUMERATION_CAP}")
    out = np.empty(1 << k, dtype=np.int64)
    out[0] = 0
    for j, var in enumerate(v for v in range(mask.bit_length()) if mask >> v & 1):
        out[1 << j : 2 << j] = out[: 1 << j] | (1 << var)
    return out


def mean_vector(tree: StochasticTree) -> np.ndarray:
    """mu over all 2^n packed inputs; index z has variable i = bit i of z."""
    return mean_on_points(tree, cube_inputs((1 << tree.n) - 1))


def mean_on_points(tree: StochasticTree, zs: np.ndarray) -> np.ndarray:
    """mu evaluated at the given packed inputs: each reachable 1-leaf adds
    its weight on its subcube, in preorder.  Given more inputs than the
    cube has points, the sums are taken once per point and gathered."""
    zs = np.asarray(zs, dtype=np.int64)
    if zs.size > 1 << tree.n and tree.n <= DEFAULT_ENUMERATION_CAP:
        return mean_vector(tree)[zs]
    out = np.zeros(zs.shape, dtype=np.float64)
    for label, weight, mask, bits, _ in leaf_paths(tree.root):
        if label and weight != 0.0:
            out += np.where((zs & mask) == bits, weight, 0.0)
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


@dataclass(frozen=True)
class StochasticLeafApproximation:
    """Result of the stacking construction.

    ``l1_distance`` is the exact average |mu_original - mu_approx| over all
    inputs, taken over the original's query cube (None past the enumeration
    cap).  The construction only guarantees small distance in expectation
    over its random draws, so callers inspect the achieved distance and
    retry with a fresh rng if needed.
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
    mask, l1 = query_mask(tree.root), None
    if mask.bit_count() <= DEFAULT_ENUMERATION_CAP:
        zs = cube_inputs(mask)
        l1 = float(np.mean(np.abs(mean_on_points(tree, zs) - mean_on_points(approx, zs))))
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
    return sum(depth > d for *_, depth in leaf_paths(tree.root))


def mean_polynomial(tree: StochasticTree, depth_cutoff: int) -> MultilinearPolynomial:
    """Exact multilinear expansion of the mean function, deep leaves zeroed.

    Leaves at query depth beyond the cutoff contribute nothing (as if they
    were 0-leaves), so the result has degree at most ``depth_cutoff`` and
    can disagree with mu only on inputs reaching such a leaf.  A 1-leaf of
    weight w on the subcube z & mask == bits is w times the product of x_i
    over bits and of (1 - x_i) over the rest of mask: it adds (-1)^|T| w to
    the monomial bits | T for every subset T of mask & ~bits.
    """
    if depth_cutoff < 0:
        raise ValueError("depth cutoff must be nonnegative")
    coeffs: dict[int, float] = {}
    for label, weight, mask, bits, depth in leaf_paths(tree.root):
        if not label or weight == 0.0 or depth > depth_cutoff:
            continue
        free = mask & ~bits
        sub = free
        while True:
            coef = -weight if sub.bit_count() % 2 else weight
            coeffs[bits | sub] = coeffs.get(bits | sub, 0.0) + coef
            if sub == 0:
                break
            sub = (sub - 1) & free
    terms = {key: c for key, c in coeffs.items() if c != 0.0}
    return MultilinearPolynomial(tree.n, min(depth_cutoff, tree.n), list(terms), list(terms.values()))


#: Most leaves ``random_tree`` builds: 2^16 take about a second at n = 30,
#: where 10^8 would take about half an hour and tens of GB.
MAX_TREE_LEAVES = 1 << 16


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
    check_var_count(n)
    if not 1 <= s <= MAX_TREE_LEAVES:
        raise ValueError(f"tree size must lie in [1, {MAX_TREE_LEAVES}], got {s}")
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


_NODE_FORMS = {"L": (int, "L <0|1>"), "Q": (int, "Q <var>"), "S": (float, "S <p>")}


def load_tree(text: str) -> StochasticTree:
    (n,), body = read_text(text, "tree", ("n",))
    it = iter(body)

    def parse(depth: int) -> Node:
        if depth > MAX_NESTING:
            raise ValueError(f"tree nests deeper than {MAX_NESTING} nodes")
        try:
            line = next(it)
        except StopIteration:
            raise ValueError("tree text ended before the tree was complete") from None
        kind, _, value = line.partition(" ")
        if kind not in _NODE_FORMS:
            raise ValueError(f"unknown node line: {line!r}")
        convert, form = _NODE_FORMS[kind]
        try:
            number = convert(value)
        except ValueError:
            raise ValueError(f"node line {line!r} must read {form}") from None
        if kind == "L":
            return Leaf(number)
        return (Query if kind == "Q" else Stoch)(number, parse(depth + 1), parse(depth + 1))

    root = parse(1)
    if next(it, None) is not None:
        raise ValueError("trailing node lines after the tree was complete")
    return StochasticTree(n, root)
