"""Seeded random states, observables and directions.

Everything draws from an explicit numpy Generator so that sweeps are
reproducible; no routine touches global random state.
"""

from __future__ import annotations

import numpy as np

from . import linalg as la
from .contexts import Observable
from .correlations import Direction
from .states import DensityOperator, PureState


def _require_dim(dim: int) -> None:
    """The draws below skip validation, so their dimension is checked here."""
    if not 1 <= dim <= la.MAX_DIM:
        raise la.DimensionError(f"dimension {dim} outside supported range 1..{la.MAX_DIM}")


def random_pure_state(dim: int, rng: np.random.Generator) -> PureState:
    _require_dim(dim)
    a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState._derived(a / la._frobenius_norm(a))


def random_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Full-rank state from a complex Wishart draw."""
    _require_dim(dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator._derived(m / float(np.trace(m).real))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: the Gram-Schmidt columns of a complex Gaussian draw.

    Each column is orthogonalised against the ones before it twice
    (classical Gram-Schmidt with one reorthogonalisation), then
    normalised, so the columns are orthonormal to rounding and nothing
    is solved.
    """
    _require_dim(dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u = np.empty_like(g)
    for j in range(dim):
        v = g[:, j]
        done = u[:, :j]
        for _ in range(2 if j else 0):  # the first column has nothing to project out
            v = v - done @ (done.conj().T @ v)
        u[:, j] = v / la._frobenius_norm(v)
    return u


def random_nondegenerate_observable(
    dim: int, rng: np.random.Generator
) -> tuple[Observable, np.ndarray, np.ndarray]:
    """Observable with unit eigenvalue gaps and known eigenvectors.

    Returns the observable together with the eigenvalues and the unitary
    whose columns are the construction's eigenvectors, so callers can
    cross-check eigensolver output against ground truth.  Nothing is
    solved: the observable's spectrum is built from those eigenpairs.
    """
    u = random_unitary(dim, rng)
    values = np.arange(1.0, dim + 1.0)
    m = (u * values) @ u.conj().T
    m = la._hermitian_part(m)
    spectrum = la.SpectralDecomposition.from_eigenpairs(values, u)
    return Observable(matrix=m, spectrum=spectrum), values, u


def random_direction(rng: np.random.Generator) -> Direction:
    v = rng.standard_normal(3)
    n = la._frobenius_norm(v)
    return Direction(v[0] / n, v[1] / n, v[2] / n)
