"""Learning stochastic decision trees under uniform inputs with adversarial noise."""

from .data import Adversary, Dataset, corrupt, draw_clean
from .evaluation import ErrorReport, exact_error, exact_opt, mc_error
from .find import FindResult, SearchStats, empirical_error, find
from .harness import ExperimentConfig, run_experiment, sweep_grid
from .polynomials import MultilinearPolynomial, trunc
from .regression import TruncatedPolyHypothesis, l1_regress, l2_regress, learn_pipeline
from .trees import (
    Leaf,
    Query,
    Stoch,
    StochasticTree,
    fix_randomness,
    mean_polynomial,
    random_tree,
    round_prob,
    stochastic_leaf_approx,
    stochastic_leaf_to_deterministic,
    truncate,
)

__version__ = "0.1.0"
