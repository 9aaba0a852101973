"""Shared instance builders for the test suite."""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import mixtv as mx

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@functools.cache
def benchmark_workloads():
    """perfbench/workloads.py, whose generators build the benchmark's pairs."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def mixture(weights, components) -> mx.Mixture:
    return mx.validate_mixture((weights, components))


def uniform_bits(n: int) -> mx.Mixture:
    """Single-component uniform distribution over {0,1}^n."""
    return mixture([1.0], [[[0.5, 0.5]] * n])


def point_mass(values, q: int = 2) -> mx.Mixture:
    """Single-component point mass at the given configuration."""
    rows = []
    for v in values:
        row = [0.0] * q
        row[v] = 1.0
        rows.append(row)
    return mixture([1.0], [rows])


def weight_shifted_pair(n: int) -> tuple[mx.Mixture, mx.Mixture]:
    """Three Boolean subcubes shared by P and Q under different weights.

    Each coordinate is fixed, to a random target bit, in exactly one random
    cube and free in the other two, so no coordinate agrees; P's weights,
    then Q's, are Dirichlet(1) draws.  Exact TV: 0.1614 at n = 200, 0.1231
    at 1200 and 0.7004 at 2500.
    """
    rng = np.random.default_rng(2)
    target = rng.integers(0, 2, n)
    owner = rng.integers(0, 3, n)
    comps = np.full((3, n, 2), 0.5)
    for s in range(3):
        comps[s, owner == s] = np.eye(2)[target[owner == s]]
    return mixture(rng.dirichlet(np.ones(3)), comps), mixture(rng.dirichlet(np.ones(3)), comps)


@pytest.fixture(scope="session")
def uniform2() -> mx.Mixture:
    return uniform_bits(2)


@pytest.fixture(scope="session")
def point00() -> mx.Mixture:
    return point_mass((0, 0))


@pytest.fixture(scope="session")
def two_component_pair() -> tuple[mx.Mixture, mx.Mixture]:
    """n=1 instance: half point-at-0 plus half uniform bit, vs a (0.7, 0.3) bit."""
    p = mixture([0.5, 0.5], [[[1.0, 0.0]], [[0.5, 0.5]]])
    q = mixture([1.0], [[[0.7, 0.3]]])
    return p, q


def lex_configs(n: int, q: int) -> list[tuple[int, ...]]:
    """All configurations in the lexicographic order used by the tables."""
    out = []
    for idx in range(q**n):
        out.append(tuple((idx // q ** (n - 1 - i)) % q for i in range(n)))
    return out
