import dataclasses
import math

import numpy as np
import pytest

from bkchain.model import BKCParams, BoundaryCondition, ExcitationMatrix, ModBKCParams, SiteFields
from bkchain.transform import a_combined, effective_ssh_matrix, hatano_nelson_coupling


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


def a1_prime(p):
    """Intracell gauge A1' (ratios r1 only): the combined gauge with every J2 = 0, where r2 = 1 (Delta2 != 0)."""
    f = SiteFields.of(p)
    return a_combined(dataclasses.replace(f, J2=np.zeros(f.N)))


def a2_prime(p):
    """Intercell gauge A2' (ratios r2 only): the combined gauge with every J1 = 0, where r1 = 1 (Delta1 != 0)."""
    f = SiteFields.of(p)
    return a_combined(dataclasses.replace(f, J1=np.zeros(f.N)))


def conjugate(A, M):
    """A^{-1} M A for the diagonal gauge ``A``, computed entrywise only on the nonzero pattern of M."""
    rows, cols = np.nonzero(M)
    out = np.zeros_like(M, dtype=complex)
    ratio = np.exp(A.log_scale[cols] - A.log_scale[rows]) * A.phase[cols] / A.phase[rows]
    out[rows, cols] = M[rows, cols] * ratio
    return out


def hatano_nelson_target(p):
    """The open omega=0 chain under `hatano_nelson_A`: c sigma_z (x) (S + S^T), c = `hatano_nelson_coupling`."""
    c = hatano_nelson_coupling(p)
    n = p.N
    T = np.zeros((2 * n, 2 * n), dtype=complex)
    a = np.arange(n - 1)
    b = a + 1
    T[2 * a, 2 * b] = T[2 * b, 2 * a] = c                   # x channel
    T[2 * a + 1, 2 * b + 1] = T[2 * b + 1, 2 * a + 1] = -c   # p channel
    return T


def ssh_lift_target(p):
    """4N target matrix i sigma_x (x) effective_ssh_matrix in the flat basis."""
    H = effective_ssh_matrix(p)
    T = np.zeros((2 * H.shape[0], 2 * H.shape[0]), dtype=complex)
    # SSH site a = 2j+S sits at flat index 2a (x) and 2a+1 (p); sigma_x
    # flips the quadrature bit
    T[0::2, 1::2] = T[1::2, 0::2] = 1j * H
    return T


def transform_residual(M, A, target):
    """max-norm residual of A^{-1} M A against a target, relative to max|M|."""
    Mm = M.M if isinstance(M, ExcitationMatrix) else np.asarray(M)
    if Mm.shape[0] != A.dim or Mm.shape != target.shape:
        raise ValueError("dimension mismatch between matrix, similarity and target")
    scale = np.abs(Mm).max()
    if scale == 0:
        return float(np.abs(target).max())
    # conjugate() only touches the nonzero pattern of M; entries where the
    # target is nonzero but M is zero must still be counted.
    diff = conjugate(A, Mm) - target
    return float(np.abs(diff).max() / scale)


def delta_omega(t, lam):
    """Instantaneous cavity-frequency modulation at t modulation periods."""
    return lam * math.pi ** 2 * math.sin(2 * math.pi * t) / 2


def spectrum_distance(a, b):
    """Symmetric Hausdorff distance between the eigenvalue sets of two spectra."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("spectrum_distance requires non-empty spectra")
    return hausdorff(a.eigenvalues, b.eigenvalues)


def hausdorff(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@pytest.fixture
def set_distance():
    return hausdorff
