"""The 2*eta term of the guarantees is reached: a two-world instance.

Over n=4 variables every input is seen k=8 times (m=128) and eta=1/8.
The region R = {x0 = x1 = 1} has mass 1/4 = 2*eta.  World 1's target
labels R with 1 and every other input with 0; world 2's target is 0
everywhere.  The one dataset D labels every input off R with 0 and, on
R, half of each input's rows with 1.  D differs from either world's
clean sample in exactly the corruption budget, so nothing in the data
tells the worlds apart.  Both targets are deterministic (opt = 0), and
any hypothesis that is correct off R has errors summing to exactly the
mass of R, 2*eta, over the two worlds; a learner whose tie rule decides
R one way reaches 2*eta in one of them.

The same construction gives a family: n in {3, 4, 6, 8} variables,
R = {x0 = ... = x_(j-1) = 1} for j in {1, 2, 3}, eta = 2^-j / 2 and k in
{2, 4, 8} rows per input; find fits at depth j and the regressions at
degree j.  The l1 fits reach both of its LPs: the dual one at j = 1,
(6, 2) and n = 8, the cube one at (3, 2), (3, 3), (4, 2), (4, 3) and
(6, 3).

Through ``harness.report`` with eps = 1/16, which is exact in binary, a
learner that errs by 2*eta in world 1 has margin exactly -eps there:
opt = 0, so both the find bound opt + 2*eta + eps and the l1 bound
2*opt + 2*eta + eps are 2*eta + eps.
"""

import numpy as np
import pytest

from sdtlearn.data import Dataset, corruption_budget
from sdtlearn.evaluation import exact_error, exact_opt
from sdtlearn.find import find
from sdtlearn.harness import ExperimentConfig, report
from sdtlearn.regression import cube_side, learn_pipeline
from sdtlearn.trees import Leaf, Query, StochasticTree, mean_on_points

N, K, ETA = 4, 8, 1 / 8
WORLDS = (
    StochasticTree(N, Query(0, Leaf(0), Query(1, Leaf(0), Leaf(1)))),
    StochasticTree(N, Leaf(0)),
)
ZS = np.repeat(np.arange(1 << N), K)
IN_R = (ZS & 0b11) == 0b11
# Within each input's block of K rows, the first half are labeled 1 on R.
D_LABELS = IN_R & (np.arange(ZS.size) % K < K // 2)
D = Dataset.from_rows(N, ZS, D_LABELS, np.zeros(ZS.size, dtype=bool))


def _fit(learner):
    if learner == "find":
        return find(D, 2).tree
    return learn_pipeline(D, learner, 2)


@pytest.mark.parametrize("world", WORLDS, ids=["world1", "world2"])
def test_dataset_is_within_budget_of_each_world(world):
    # Both targets are deterministic, so their clean labels are their means.
    clean = mean_on_points(world, ZS)
    assert set(clean.tolist()) <= {0.0, 1.0}
    assert exact_opt(world) == 0.0
    assert int(np.sum(clean != D_LABELS)) == corruption_budget(ETA, ZS.size) == 16


@pytest.mark.parametrize("learner", ["find", "l2", "l1"])
def test_errors_over_the_two_worlds_sum_to_two_eta(learner):
    h = _fit(learner)
    assert exact_error(WORLDS[0], h) + exact_error(WORLDS[1], h) == 2 * ETA


@pytest.mark.parametrize("learner,world", [("find", 0), ("l2", 1)])
def test_tie_rule_reaches_two_eta_in_one_world(learner, world):
    # find predicts 1 only when 2*c1 > count, so 0 on R; l2 fits 1/2 on R
    # and rounds the tie up to 1.
    h = _fit(learner)
    assert exact_error(WORLDS[world], h) == 2 * ETA
    assert exact_error(WORLDS[1 - world], h) == 0.0


#: (n, j, k) for each member of the family.
FAMILY = [(n, j, k) for n in (3, 4, 6, 8) for j in (1, 2, 3) for k in (2, 4, 8)]


def _family_member(n: int, j: int, k: int) -> tuple[tuple[StochasticTree, StochasticTree], Dataset]:
    """The two worlds of member (n, j, k), and its dataset D."""
    region = Leaf(1)
    for var in reversed(range(j)):
        region = Query(var, Leaf(0), region)
    zs = np.repeat(np.arange(1 << n), k)
    in_r = (zs & ((1 << j) - 1)) == (1 << j) - 1
    labels = in_r & (np.arange(zs.size) % k < k // 2)
    worlds = (StochasticTree(n, region), StochasticTree(n, Leaf(0)))
    return worlds, Dataset.from_rows(n, zs, labels, np.zeros(zs.size, dtype=bool))


@pytest.mark.parametrize("n,j,k", FAMILY)
def test_family_dataset_is_within_budget_of_each_world(n, j, k):
    worlds, data = _family_member(n, j, k)
    zs, c0, c1 = data.counts()
    for world in worlds:
        clean = mean_on_points(world, zs)
        assert set(clean.tolist()) <= {0.0, 1.0}
        assert int(np.where(clean == 1.0, c0, c1).sum()) == corruption_budget(2.0**-j / 2, data.m)


def test_family_reaches_both_l1_sides():
    assert {cube_side(n, j) for n, j, _ in FAMILY} == {False, True}


@pytest.mark.parametrize("learner", ["find", "l2", "l1"])
@pytest.mark.parametrize("n,j,k", FAMILY)
def test_family_errors_over_the_two_worlds_sum_to_two_eta(n, j, k, learner):
    worlds, data = _family_member(n, j, k)
    h = find(data, j).tree if learner == "find" else learn_pipeline(data, learner, j)
    assert exact_error(worlds[0], h) + exact_error(worlds[1], h) == 2.0**-j


@pytest.mark.parametrize("n,j,k", FAMILY)
def test_family_tie_rules_reach_two_eta_in_one_world(n, j, k):
    # find's 2*c1 > count labels R with 0, so it errs by 2*eta in world 1;
    # l2 fits 1/2 on R and rounds the tie up, so it errs by 2*eta in world 2.
    worlds, data = _family_member(n, j, k)
    for h, world in ((find(data, j).tree, 0), (learn_pipeline(data, "l2", j), 1)):
        assert exact_error(worlds[world], h) == 2.0**-j
        assert exact_error(worlds[1 - world], h) == 0.0


EPS = 1 / 16


def _world1_margin(world, hypothesis, method, eta, m, depth=None, degree=None):
    # The config only supplies the report's fields: D is built, not drawn.
    cfg = ExperimentConfig(n=world.n, s=1, m=m, eps=EPS, method=method, eta=eta)
    return report(cfg, world, hypothesis, depth, degree, np.random.default_rng(0)).margin


@pytest.mark.parametrize("n,j,k", FAMILY)
def test_family_find_margin_in_world_one_is_minus_eps(n, j, k):
    worlds, data = _family_member(n, j, k)
    margin = _world1_margin(worlds[0], find(data, j).tree, "find", 2.0**-j / 2, data.m, depth=j)
    assert margin == -EPS


def test_l1_margin_in_world_one_is_minus_eps():
    # Not pinned across the family: l1's value on R is one vertex of a tied LP.
    margin = _world1_margin(WORLDS[0], _fit("l1"), "l1", ETA, D.m, degree=2)
    assert margin == -EPS
