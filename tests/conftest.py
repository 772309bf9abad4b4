import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

# The benchmark's input ranges (inputs.py) and reference checker (verify.py)
# are imported read-only by the tests.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import inputs
from sqzmirror import full, generator, reduced, scenarios
from sqzmirror.params import baseline_params


@pytest.fixture
def baseline():
    return baseline_params()


# every randomized test draws from one seed; set SQZMIRROR_TEST_SEED to draw others
TEST_SEED = int(os.environ.get("SQZMIRROR_TEST_SEED", "12345"))


@pytest.fixture
def rng():
    return np.random.default_rng(TEST_SEED)


def random_physical_cov(rng, n_modes: int) -> np.ndarray:
    """Random physical covariance: I/2 plus a PSD perturbation."""
    dim = 2 * n_modes
    A = rng.normal(scale=0.4, size=(dim, dim))
    return 0.5 * np.eye(dim) + A @ A.T


def random_point_hz(rng) -> dict[str, float]:
    """The config fields of random_point, in their config units."""
    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    return dict(
        power_w=log_uniform(*inputs.POWER_W),
        temperature_k=rng.uniform(*inputs.TEMPERATURE_K),
        gamma_m_hz=inputs.KAPPA_HZ * log_uniform(*inputs.GAMMA_OVER_KAPPA),
    )


# one failing point per refusal a sweep point meets: a non-Hurwitz drift at
# its build, a laser frequency derive refuses, and parameters PhysicalParams
# refuses
FAILING_POINTS_HZ = ({"delta_hz": -32.1e6}, {"delta_hz": 7e9}, {"temperature_k": -1e-3},
                     {"power_w": -1e-6})


def random_point(rng):
    """A point of the benchmark's figure ranges (perfbench/inputs.py), r unset."""
    return baseline_params(**random_point_hz(rng))


@pytest.fixture
def builds(monkeypatch):
    """Counts of the calls that make and compile models, as they happen.

    "model" counts model-builder calls (reduced_generator, full_generator)
    and "compile" generator.compile_generator calls, each from every module
    that makes them; "members" the members those compile (the size of the
    returned omega, 1 for a spec without member axes); "build_system"
    reduced.build_system calls and "build_systems" reduced.build_systems
    calls.
    """
    counts = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1
            if key == "compile":
                counts["members"] += np.size(result.omega)
            return result
        return wrapper

    def count(module, name, key):
        monkeypatch.setattr(module, name, counting(key, getattr(module, name)))

    for module in (generator, reduced, scenarios, full):
        for name, key in (("reduced_generator", "model"), ("full_generator", "model"),
                          ("compile_generator", "compile")):
            if hasattr(module, name):
                count(module, name, key)
    count(reduced, "build_system", "build_system")
    count(reduced, "build_systems", "build_systems")
    return counts
