"""Qubit state reconstruction from mutually unbiased measurement bases.

A full set of d+1 mutually unbiased bases is informationally complete:
the outcome distributions across the set pin the density operator down
exactly, by

    rho = sum_{b,k} p(k | b) |e_bk><e_bk| - I.

For a single qubit the three eigenbases of sigma_z, sigma_x and sigma_y
form such a set, the constant ``QUBIT_BASES``.  Statistics may be exact
Born probabilities or seeded multinomial frequencies; reconstruction
repairs small sampling-induced violations of positivity by clipping and
renormalising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .linalg import DimensionError, _integer, _list_of, _number
from .states import DensityOperator, as_density


def _qubit_bases() -> tuple[tuple[np.ndarray, ...], ...]:
    s = 1.0 / np.sqrt(2.0)
    z = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))
    x = (np.array([s, s], dtype=complex), np.array([s, -s], dtype=complex))
    y = (np.array([s, 1j * s], dtype=complex), np.array([s, -1j * s], dtype=complex))
    for basis in (z, x, y):
        for v in basis:
            v.flags.writeable = False
    return z, x, y


# The sigma_z, sigma_x and sigma_y eigenbases, each vector read-only:
# orthonormal, pairwise unbiased and complete for a qubit.
QUBIT_BASES = _qubit_bases()


def _basis_projectors() -> tuple[np.ndarray, ...]:
    projectors = tuple(np.outer(v, v.conj()) for basis in QUBIT_BASES for v in basis)
    for p in projectors:
        p.flags.writeable = False
    return projectors


# |e_bk><e_bk| of each ``QUBIT_BASES`` vector, in basis-major order, read-only.
_PROJECTORS = _basis_projectors()


# numpy's multinomial draw takes counts that fit an int64, and would
# truncate a fractional one.
_SAMPLES_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class MeasurementStatistics:
    """Outcome tables, one row of floats summing to 1 per ``QUBIT_BASES``
    basis, with their sampling provenance: ``samples`` None or a count
    numpy can draw, ``seed`` None or a non-negative integer."""

    dim: int
    tables: tuple[tuple[float, ...], ...]
    samples: int | None = None
    seed: int | None = None

    @classmethod
    def _derived(
        cls,
        tables: tuple[tuple[float, ...], ...],
        samples: int | None = None,
        seed: int | None = None,
    ) -> "MeasurementStatistics":
        """Wrap tables the library computed, unvalidated.

        Only for rows of floats in [0, 1] summing to 1, one per basis,
        with a ``samples`` and ``seed`` already checked; input from outside
        goes through ``MeasurementStatistics(...)``.
        """
        stats = object.__new__(cls)
        for name, value in (("dim", 2), ("tables", tables), ("samples", samples), ("seed", seed)):
            object.__setattr__(stats, name, value)
        return stats

    def __post_init__(self):
        if not _integer(self.dim) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if self.dim != 2:
            raise DimensionError(f"tomography needs qubit statistics, got dimension {self.dim}")
        if not isinstance(self.tables, (tuple, list)):
            raise ValueError(f"tables must be a sequence of rows, got {self.tables!r}")
        tables = []
        for b, row in enumerate(self.tables):
            if not _list_of(row, _number):
                raise ValueError(f"table {b} is not a sequence of real numbers: {row!r}")
            if len(row) != self.dim:
                raise DimensionError(
                    f"table {b} has {len(row)} entries, expected {self.dim}"
                )
            try:
                row = tuple(float(p) for p in row)
            except OverflowError:
                raise ValueError(f"table {b} has an entry beyond the float range") from None
            if not np.isfinite(row).all():
                raise ValueError(f"table {b} has non-finite entries")
            if any(p < 0.0 or p > 1.0 for p in row):
                raise ValueError(f"table {b} has probabilities outside [0, 1]")
            if abs(sum(row) - 1.0) > 1e-9:
                raise ValueError(f"table {b} sums to {sum(row)!r}, not 1")
            tables.append(row)
        if len(tables) != len(QUBIT_BASES):
            raise DimensionError(f"{len(tables)} tables for {len(QUBIT_BASES)} bases")
        object.__setattr__(self, "tables", tuple(tables))
        if self.samples is not None and not (
            _integer(self.samples) and 1 <= self.samples <= _SAMPLES_MAX
        ):
            raise ValueError(
                f"samples must be an integer between 1 and {_SAMPLES_MAX}, got {self.samples!r}"
            )
        if self.seed is not None and not (_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer or None, got {self.seed!r}")


def measure_statistics(
    w,
    *,
    samples: int | None = None,
    seed: int | None = None,
) -> MeasurementStatistics:
    """Outcome tables of a qubit state across the three ``QUBIT_BASES``.

    With ``samples`` unset the exact Born probabilities are returned.
    Otherwise each basis is sampled ``samples`` times with a seeded
    multinomial draw and the tables hold relative frequencies; ``seed``
    is then None (fresh entropy) or a non-negative integer.
    """
    rho = as_density(w)
    if rho.dim != 2:
        raise DimensionError(f"tomography needs a qubit state, got dimension {rho.dim}")
    exact = []
    for basis in QUBIT_BASES:
        row = [float(np.vdot(v, rho.matrix @ v).real) for v in basis]
        exact.append(tuple(min(max(p, 0.0), 1.0) for p in row))
    if samples is None:
        return MeasurementStatistics._derived(tuple(exact))
    # The record refuses a bad ``samples`` or ``seed`` before any draw.
    checked = MeasurementStatistics(dim=2, tables=tuple(exact), samples=samples, seed=seed)
    rng = np.random.default_rng(seed)
    tables: list[tuple[float, ...]] = []
    for row in checked.tables:
        weights = np.array(row, dtype=float)
        weights = weights / weights.sum()
        counts = rng.multinomial(samples, weights)
        tables.append(tuple(float(c) / samples for c in counts))
    return MeasurementStatistics._derived(tuple(tables), samples, seed)


def reconstruct(stats: MeasurementStatistics) -> DensityOperator:
    """Rebuild a qubit density operator from its ``QUBIT_BASES`` statistics.

    Applies rho = sum p(k|b) |e_bk><e_bk| - I and then projects onto the
    physical set (eigenvalue clipping plus trace renormalisation), which
    leaves exact statistics untouched and repairs sampled ones.
    """
    raw = -np.eye(2, dtype=complex)
    for p, projector in zip((p for row in stats.tables for p in row), _PROJECTORS):
        raw += p * projector
    # Exactly Hermitian, and finite from validated tables: the kernel
    # needs no check.
    raw = la._hermitian_part(raw)
    eigenvalues, vectors = la._eigh(raw)
    clipped = np.clip(eigenvalues, 0.0, None)
    # Validated tables of the complete set give the raw estimate trace
    # 3 - 2 = 1 within about 3e-9, so the clipped sum is positive.
    clipped = clipped / float(clipped.sum())
    physical = (vectors * clipped) @ vectors.conj().T
    return DensityOperator._derived(physical)
