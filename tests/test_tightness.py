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
"""

import numpy as np
import pytest

from sdtlearn.data import Dataset, corruption_budget
from sdtlearn.evaluation import exact_error, exact_opt
from sdtlearn.find import find
from sdtlearn.regression import learn_pipeline
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
D = Dataset(N, ZS, D_LABELS, np.zeros(ZS.size, dtype=bool))


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
