"""Shared fixtures and small constructions used across the suite."""

import numpy as np
import pytest
from hypothesis import settings

from kreinframes import KreinSpace, Subspace, VectorFrame, WeightedFamily

# tier-1 stays deterministic: the same examples on every run, and no
# per-example deadline on a loaded machine
settings.register_profile("deterministic", derandomize=True, deadline=None)
# the soundness properties' extra run: fresh examples, ten times as many
# (pytest --hypothesis-profile=randomized; see generators.examples); a failure
# prints the @reproduce_failure blob that replays it
settings.register_profile("randomized", deadline=None, max_examples=1000, print_blob=True)
settings.load_profile("deterministic")


@pytest.fixture
def c3():
    """C^3 with J = diag(1, 1, -1), signature (2, 1)."""
    return KreinSpace.from_signs([1, 1, -1])


@pytest.fixture
def minkowski():
    """C^2 with J = diag(1, -1)."""
    return KreinSpace.from_signs([1, -1])


@pytest.fixture
def hilbert3():
    """C^3 with J = Identity (the classical Hilbert case)."""
    return KreinSpace(np.eye(3))


@pytest.fixture
def tilted_family(c3):
    """Three weighted lines in C^3: two positive, one negative."""
    w1 = Subspace(c3, np.array([[0.0], [1.0], [0.5]]))
    w2 = Subspace(c3, np.array([[1.0], [0.0], [0.5]]))
    w3 = Subspace(c3, np.array([[0.0], [0.0], [1.0]]))
    return WeightedFamily(c3, [w1, w2, w3], [1.0, 1.0, 1.0])


@pytest.fixture
def axis_frame(minkowski):
    """f1 = 2 e1, f2 = 3 e2 under diag(1, -1); bounds (-9, -9, 4, 4)."""
    return VectorFrame(minkowski, [[2.0, 0.0], [0.0, 3.0]])


@pytest.fixture
def coupled_frame(c3):
    """e1, e2 and the negative vector (0, 1, 2); signed spans not J-orthogonal."""
    return VectorFrame(c3, [[1, 0, 0], [0, 1, 0], [0, 1, 2]])


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name for one test; returns its calls."""

    def wrap(owner, name):
        calls, original = [], getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return wrap
