"""Canary for the numeric stack that every pinned report rests on.

The golden reports, pinned fits and workload digests depend on numpy's
``Generator`` streams (NEP 19 does not freeze them across releases), on the
vertex and iteration count HiGHS reaches, and on LAPACK's least squares.
Each case here records a few values from one of them; when a numpy or
scipy release moves one, this file fails first and names the method and
the stack it ran on, rather than leaving a pin to fail for no visible
reason.  Run it on its own with ``python -m pytest tests/test_streams.py``.
"""

import numpy as np
import pytest
import scipy
from scipy.optimize import linprog


def _stack() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, scipy {scipy.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


def _highs():
    c = np.array([-1.0, -2.0, 0.5, -0.25])
    a_ub = np.array([[1.0, 1.0, 1.0, 1.0], [2.0, 0.5, -1.0, 3.0], [0.0, 1.0, 2.0, -1.5]])
    res = linprog(c, A_ub=a_ub, b_ub=[4.0, 5.0, 3.0], bounds=[(0, 3)] * 4, method="highs")
    return [res.status, res.fun, res.nit, res.x.tolist()]


#: Method, the call, and what it returned when recorded (numpy 2.4.6,
#: scipy 1.17.1, scipy-openblas 0.3.31).
EXACT = {
    "Generator.integers": (
        lambda: np.random.default_rng(20240601).integers(0, 1 << 10, 6).tolist(),
        [165, 810, 155, 594, 315, 424],
    ),
    "Generator.binomial": (
        lambda: np.random.default_rng(20240602).binomial([10, 100, 1000, 50_000], [0.3, 0.5, 0.05, 0.99]).tolist(),
        [1, 55, 52, 49538],
    ),
    'Generator.multivariate_hypergeometric(method="count")': (
        lambda: np.random.default_rng(20240603)
        .multivariate_hypergeometric([5, 0, 12, 30, 7, 1], 20, method="count")
        .tolist(),
        [1, 0, 3, 11, 5, 0],
    ),
    "linprog(method='highs') status, objective, nit and vertex": (_highs, [0, -7.0, 2, [1.0, 3.0, 0.0, 0.0]]),
}


@pytest.mark.parametrize("method", EXACT)
def test_stream_is_unchanged(method):
    call, recorded = EXACT[method]
    got = call()
    assert got == recorded, f"{method} moved on {_stack()}: got {got}, recorded {recorded}"


def test_lstsq_is_unchanged():
    # The last bits depend on the kernels OpenBLAS picks for the CPU, so the
    # solution is compared to 1e-12 and only the rank exactly.
    a = np.random.default_rng(20240604).standard_normal((12, 5))
    solution, _, rank, _ = np.linalg.lstsq(a, np.arange(12.0), rcond=None)
    recorded = [4.23731006673335, 1.9135806084888916, 3.920500921693592, 3.8223582867278494, 2.0331570609831373]
    assert rank == 5 and np.allclose(solution, recorded, rtol=1e-12, atol=0), (
        f"numpy.linalg.lstsq moved on {_stack()}: got rank {rank}, {solution.tolist()}, recorded {recorded}"
    )
