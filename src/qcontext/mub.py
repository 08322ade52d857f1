"""State reconstruction from mutually unbiased measurement bases.

A full set of d+1 mutually unbiased bases is informationally complete:
the outcome distributions across the set pin the density operator down
exactly, by

    rho = sum_{b,k} p(k | b) |e_bk><e_bk| - I.

For a single qubit the three eigenbases of sigma_z, sigma_x and sigma_y
form such a set.  Statistics may be exact Born probabilities or seeded
multinomial frequencies; reconstruction repairs small sampling-induced
violations of positivity by clipping and renormalising.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .linalg import DimensionError
from .states import DensityOperator, as_density

# Basis vectors must be orthonormal and unbiased within this.
MUB_TOL = 1e-10


@dataclass(frozen=True)
class MubSet:
    """A collection of pairwise mutually unbiased orthonormal bases.

    Validation checks each basis for orthonormality and every pair of
    bases for the unbiasedness condition |<e|f>|^2 = 1/d.
    """

    dim: int
    bases: tuple[tuple[np.ndarray, ...], ...] = field(repr=False)

    def __post_init__(self):
        d = self.dim
        if not 1 <= d <= la.MAX_DIM:
            raise DimensionError(f"dimension {d} outside supported range 1..{la.MAX_DIM}")
        cleaned = []
        for b, basis in enumerate(self.bases):
            if len(basis) != d:
                raise DimensionError(
                    f"basis {b} has {len(basis)} vectors, expected {d}"
                )
            vecs = tuple(np.asarray(v, dtype=complex).reshape(-1) for v in basis)
            for v in vecs:
                if v.size != d:
                    raise DimensionError(f"basis {b} vector has dimension {v.size}")
            for i in range(d):
                for j in range(d):
                    target = 1.0 if i == j else 0.0
                    if abs(abs(np.vdot(vecs[i], vecs[j])) - target) > MUB_TOL:
                        raise ValueError(f"basis {b} is not orthonormal")
            cleaned.append(vecs)
        for b1 in range(len(cleaned)):
            for b2 in range(b1 + 1, len(cleaned)):
                for u in cleaned[b1]:
                    for v in cleaned[b2]:
                        overlap = abs(np.vdot(u, v)) ** 2
                        if abs(overlap - 1.0 / d) > MUB_TOL:
                            raise ValueError(
                                f"bases {b1} and {b2} are not unbiased: "
                                f"|<e|f>|^2 = {overlap!r}"
                            )
        object.__setattr__(self, "bases", tuple(cleaned))

    @property
    def basis_count(self) -> int:
        return len(self.bases)

    def is_complete(self) -> bool:
        """True when the set has the d+1 bases needed for reconstruction."""
        return self.basis_count == self.dim + 1


def mub_qubit() -> MubSet:
    """The three single-qubit bases: sigma_z, sigma_x and sigma_y eigenvectors."""
    s = 1.0 / np.sqrt(2.0)
    z = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))
    x = (np.array([s, s], dtype=complex), np.array([s, -s], dtype=complex))
    y = (np.array([s, 1j * s], dtype=complex), np.array([s, -1j * s], dtype=complex))
    return MubSet(dim=2, bases=(z, x, y))


@dataclass(frozen=True)
class MeasurementStatistics:
    """Outcome tables, one row per basis, with their sampling provenance."""

    dim: int
    tables: tuple[tuple[float, ...], ...]
    samples: int | None = None
    seed: int | None = None

    def __post_init__(self):
        for b, row in enumerate(self.tables):
            if len(row) != self.dim:
                raise DimensionError(
                    f"table {b} has {len(row)} entries, expected {self.dim}"
                )
            if not np.isfinite(row).all():
                raise ValueError(f"table {b} has non-finite entries")
            if any(p < 0.0 or p > 1.0 for p in row):
                raise ValueError(f"table {b} has probabilities outside [0, 1]")
            if abs(sum(row) - 1.0) > 1e-9:
                raise ValueError(f"table {b} sums to {sum(row)!r}, not 1")


def measure_statistics(
    w,
    m: MubSet,
    samples: int | None = None,
    seed: int | None = None,
) -> MeasurementStatistics:
    """Outcome tables of a state across every basis of the set.

    With ``samples`` unset the exact Born probabilities are returned.
    Otherwise each basis is sampled ``samples`` times with a seeded
    multinomial draw and the tables hold relative frequencies.
    """
    rho = as_density(w)
    if rho.dim != m.dim:
        raise DimensionError(
            f"state dimension {rho.dim} does not match basis dimension {m.dim}"
        )
    exact: list[list[float]] = []
    for basis in m.bases:
        row = [float(np.vdot(v, rho.matrix @ v).real) for v in basis]
        row = [min(max(p, 0.0), 1.0) for p in row]
        exact.append(row)
    if samples is None:
        tables = tuple(tuple(row) for row in exact)
        return MeasurementStatistics(dim=m.dim, tables=tables, samples=None, seed=None)
    # numpy's multinomial draw takes counts that fit an int64.
    if not 1 <= samples <= np.iinfo(np.int64).max:
        raise ValueError(
            f"samples must be between 1 and {np.iinfo(np.int64).max}, got {samples}"
        )
    rng = np.random.default_rng(seed)
    tables_s: list[tuple[float, ...]] = []
    for row in exact:
        weights = np.array(row, dtype=float)
        weights = weights / weights.sum()
        counts = rng.multinomial(samples, weights)
        tables_s.append(tuple(float(c) / samples for c in counts))
    return MeasurementStatistics(
        dim=m.dim, tables=tuple(tables_s), samples=samples, seed=seed
    )


def reconstruct(stats: MeasurementStatistics, m: MubSet) -> DensityOperator:
    """Rebuild the density operator from full-set unbiased statistics.

    Applies rho = sum p(k|b) |e_bk><e_bk| - I and then projects onto the
    physical set (eigenvalue clipping plus trace renormalisation), which
    leaves exact statistics untouched and repairs sampled ones.
    """
    if stats.dim != m.dim:
        raise DimensionError(
            f"statistics dimension {stats.dim} does not match bases {m.dim}"
        )
    if not m.is_complete():
        raise ValueError(
            f"reconstruction needs {m.dim + 1} mutually unbiased bases, "
            f"set has {m.basis_count}"
        )
    if len(stats.tables) != m.basis_count:
        raise DimensionError(
            f"{len(stats.tables)} tables for {m.basis_count} bases"
        )
    d = m.dim
    raw = -np.eye(d, dtype=complex)
    for row, basis in zip(stats.tables, m.bases):
        for p, v in zip(row, basis):
            raw += p * np.outer(v, v.conj())
    # Exactly Hermitian, and finite from validated tables and bases: the
    # kernel needs no check.
    raw = la._hermitian_part(raw)
    eigenvalues, vectors = la._eigh(raw, True)
    clipped = np.clip(eigenvalues, 0.0, None)
    # Validated tables of a complete set give the raw estimate trace
    # (d + 1) - d = 1 within about 3e-9, so the clipped sum is positive.
    clipped = clipped / float(clipped.sum())
    physical = (vectors * clipped) @ la.dagger(vectors)
    return DensityOperator._derived(physical)
