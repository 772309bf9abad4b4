import sys
from pathlib import Path

import numpy as np
import pytest

# The benchmark's input ranges (inputs.py) and reference checker (verify.py)
# are imported read-only by the tests.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from sqzmirror.params import baseline_params


@pytest.fixture
def baseline():
    return baseline_params()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_physical_cov(rng, n_modes: int) -> np.ndarray:
    """Random physical covariance: I/2 plus a PSD perturbation."""
    dim = 2 * n_modes
    A = rng.normal(scale=0.4, size=(dim, dim))
    return 0.5 * np.eye(dim) + A @ A.T
