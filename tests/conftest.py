import numpy as np
import pytest

from bkchain.model import BKCParams, BoundaryCondition, ModBKCParams


@pytest.fixture
def skin_bkc():
    """Single-band chain deep in the skin regime (Delta0 > J0, omega = 0)."""
    return BKCParams(J0=0.5, Delta0=1.0, omega=0.0, N=100)


@pytest.fixture
def intercell_dominant():
    """Two-sublattice chain with dominant intercell couplings (topological)."""
    return ModBKCParams(J1=1.0, J2=1.4, Delta1=1.5, Delta2=2.1, omega=0.0, N=100)


@pytest.fixture
def intracell_dominant():
    """Topological despite all intracell couplings dominating."""
    return ModBKCParams(J1=2.2, J2=1.0, Delta1=2.1, Delta2=1.5, omega=0.0, N=100)


def dense_q(q):
    """The dense symmetric Q of the form ``q``: each of ``q.diagonals`` written into both triangles."""
    Q = np.zeros((q.dim, q.dim))
    for d, values in q.diagonals.items():
        i = np.arange(q.dim - d)
        Q[i, i + d] = Q[i + d, i] = values
    return Q


def hausdorff(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@pytest.fixture
def set_distance():
    return hausdorff
