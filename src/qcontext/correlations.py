"""Correlation experiments on a pair of spin-1/2 systems.

Spin components along a unit direction d are represented by d . sigma
with outcomes +1 and -1; physical spin values are the outcomes times
hbar/2, kept as a display convention only.  Joint statistics come from
projective measurements on both wings, p(i, j) = Tr[(P_i x Q_j) W].
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .contexts import Observable, observable
from .linalg import DimensionError
from .states import DensityOperator, PureState, as_density

# Direction vectors must be unit length within this.
DIRECTION_TOL = 1e-12

# Conditioning on an outcome needs at least this much probability.
CONDITION_TOL = 1e-12

OUTCOMES = (1, -1)


@dataclass(frozen=True)
class Direction:
    """Unit vector in ordinary 3-space.

    Its spin projectors ``(I +- n . sigma)/2``, with ``n = d/|d|``, are
    written down in closed form on first use and kept on the instance
    (``outcome_projectors``); no eigensolve is made.
    The cache is not a field: ``==``, ``hash`` and ``repr`` see the
    components only.
    Its norm is ``math.hypot``, not the library's ``_norm_of_scalars``:
    hypot scales, so ``Direction.normalized(1e300, 0, 0)`` works.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        values = (self.x, self.y, self.z)
        # A string or a bool is refused before ``float`` could take it.
        if not all(map(la._finite, values)):
            raise ValueError(f"direction components must be finite numbers, got {values!r}")
        for name, value in zip("xyz", values):
            object.__setattr__(self, name, float(value))
        # hypot scales its arguments, so components near 1e308 do not overflow.
        norm = math.hypot(self.x, self.y, self.z)
        if abs(norm - 1.0) > DIRECTION_TOL:
            raise ValueError(f"direction is not a unit vector: |d| = {norm!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "Direction":
        if not all(map(la._finite, (x, y, z))):
            raise ValueError(f"direction components must be finite numbers, got {(x, y, z)!r}")
        norm = math.hypot(x, y, z)
        if norm == 0.0:
            raise ValueError("cannot normalise the zero vector")
        if norm < sys.float_info.min:
            # A subnormal norm keeps only a few digits: scale by 2^600
            # (exactly) first, as ``linalg._unit`` does.
            x, y, z = (c * 2.0**600 for c in (x, y, z))
            norm = math.hypot(x, y, z)
        return cls(x / norm, y / norm, z / norm)

    @classmethod
    def polar(cls, theta: float) -> "Direction":
        """Direction in the x-z plane at polar angle theta from +z, towards +x."""
        if not la._finite(theta):
            raise ValueError(f"polar angle must be a finite real number, got {theta!r}")
        return cls(float(np.sin(theta)), 0.0, float(np.cos(theta)))

    def dot(self, other: "Direction") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def spin_matrix(self) -> np.ndarray:
        """d . sigma, built without solving it."""
        return self.x * la.SIGMA_X + self.y * la.SIGMA_Y + self.z * la.SIGMA_Z

    @functools.cached_property
    def outcome_projectors(self) -> np.ndarray:
        """Read-only ``(2, 2, 2)`` stack of the spin projectors, in ``OUTCOMES`` order."""
        norm = math.hypot(self.x, self.y, self.z)
        x, y, z = self.x / norm, self.y / norm, self.z / norm
        stack = 0.5 * np.array(
            [
                [[1.0 + z, complex(x, -y)], [complex(x, y), 1.0 - z]],
                [[1.0 - z, complex(-x, y)], [complex(-x, -y), 1.0 + z]],
            ]
        )
        stack.flags.writeable = False
        return stack


def spin_observable(d: Direction) -> Observable:
    """Spin component along d, as the outcome observable d . sigma."""
    return observable(d.spin_matrix(), label=f"spin({d.x:.6g},{d.y:.6g},{d.z:.6g})")


@dataclass(frozen=True)
class CorrelationRecord:
    """Joint outcome table of one pair of spin measurements.

    The table is the whole record: the marginals and the expectation are
    read off ``joint``, and the expectation is kept after its first use.
    A result record of ``joint_probabilities``, built unchecked: that the
    table is a distribution is asserted in ``tests/test_result_records.py``.
    """

    joint: dict[tuple[int, int], float] = field(repr=False)

    @property
    def marginal_1(self) -> dict[int, float]:
        """Outcome distribution of the first spin, summed over the second."""
        joint = self.joint
        return {i: joint[(i, 1)] + joint[(i, -1)] for i in OUTCOMES}

    @property
    def marginal_2(self) -> dict[int, float]:
        """Outcome distribution of the second spin, summed over the first."""
        joint = self.joint
        return {j: joint[(1, j)] + joint[(-1, j)] for j in OUTCOMES}

    @functools.cached_property
    def expectation(self) -> float:
        """E = sum_ij i j p(i, j)."""
        joint = self.joint
        return float(sum(i * j * joint[(i, j)] for i in OUTCOMES for j in OUTCOMES))


def _pair_state(w) -> DensityOperator:
    rho = as_density(w)
    if rho.dim != 4:
        raise DimensionError(f"pair correlations need dimension 4, got {rho.dim}")
    return rho


def _joint_record(rho: DensityOperator, a: Direction, b: Direction) -> CorrelationRecord:
    """Joint table of a pair state from both wings' outcome projectors.

    ``p(i, j) = Tr[(P_i x Q_j) W] = sum W[ab, cd] P_i[c, a] Q_j[d, b]``:
    all four in one ``einsum`` over ``W`` as a ``(2, 2, 2, 2)`` array,
    with no product operator formed.
    """
    table = np.einsum(
        "abcd,ica,jdb->ij",
        rho.matrix.reshape(2, 2, 2, 2),
        a.outcome_projectors,
        b.outcome_projectors,
    ).real.tolist()
    joint = {
        (i, j): table[k][m] for k, i in enumerate(OUTCOMES) for m, j in enumerate(OUTCOMES)
    }
    return CorrelationRecord(joint=joint)


def joint_probabilities(w, a: Direction, b: Direction) -> CorrelationRecord:
    """Joint +-1 outcome distribution for spins measured along a and b."""
    return _joint_record(_pair_state(w), a, b)


def correlation(w, a: Direction, b: Direction) -> float:
    """E(a, b) = sum_ij i j p(i, j); equals -a.b in the singlet."""
    return joint_probabilities(w, a, b).expectation


def conditional_remote_state(
    psi, a: Direction, outcome: int
) -> tuple[float, PureState]:
    """State of the distant spin after a selective measurement nearby.

    Projects the first spin onto the given outcome of a . sigma and
    returns the outcome probability together with the distant spin's
    conditioned pure state.
    """
    state = psi if isinstance(psi, PureState) else PureState(psi)
    if state.dim != 4:
        raise DimensionError(f"remote conditioning needs dimension 4, got {state.dim}")
    if outcome not in OUTCOMES:
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
    proj = a.outcome_projectors[OUTCOMES.index(outcome)]
    e = la._rank_one_vector(proj)
    # (<e| x I) psi leaves the distant spin's (unnormalised) amplitudes.
    m = state.amplitudes.reshape(2, 2)
    remote = e.conj() @ m
    probability = float(np.vdot(remote, remote).real)
    if probability <= CONDITION_TOL:
        raise ValueError(
            f"outcome {outcome:+d} has probability {probability:.3e}; "
            "nothing to condition on"
        )
    return probability, PureState._derived(remote / np.sqrt(probability))


def chsh(w, a: Direction, a2: Direction, b: Direction, b2: Direction) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b')."""
    rho = _pair_state(w)
    return (
        _joint_record(rho, a, b).expectation
        + _joint_record(rho, a, b2).expectation
        + _joint_record(rho, a2, b).expectation
        - _joint_record(rho, a2, b2).expectation
    )


def chsh_optimal_settings() -> tuple[Direction, Direction, Direction, Direction]:
    """Coplanar settings at 0, 90, 45 and 135 degrees that reach |S| = 2 sqrt 2.

    All four directions lie in the x-z plane; the assignment of angles to
    the two wings follows this module's sign convention for S.
    """
    quarter = np.pi / 4.0
    return (
        Direction.polar(2 * quarter),   # 90 degrees
        Direction.polar(0.0),           # 0 degrees
        Direction.polar(quarter),       # 45 degrees
        Direction.polar(3 * quarter),   # 135 degrees
    )


def _distant_after(w4: np.ndarray, pa: np.ndarray, qb: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Distant spin's reduced state after the nearby spin is measured
    non-selectively with the stack ``pa``, and its outcome distribution
    under the stack ``qb``.

    ``Tr_1 sum_p (P_p x I) W (P_p x I)`` is ``sum W[c, b, d, e] M[d, c]``
    with ``M = sum_p P_p P_p`` and ``W`` the pair state as a
    ``(2, 2, 2, 2)`` array: no product operator is formed.
    """
    m = np.einsum("pdk,pkc->dc", pa, pa)
    r2 = np.einsum("dc,cbde->be", m, w4)
    return r2, np.einsum("bc,jcb->j", r2, qb).real.tolist()


def no_signalling_check(w, settings: list[Direction], b: Direction) -> float:
    """Largest influence of the nearby setting choice on the distant spin.

    For each setting the nearby spin is measured non-selectively and the
    distant spin's reduced state and b-outcome distribution are formed;
    the returned value is the largest trace distance (states) or total
    variation (distributions) across any two settings.  It vanishes for
    every state: the setting choice alone sends no signal.
    """
    w4 = _pair_state(w).matrix.reshape(2, 2, 2, 2)
    seen = [_distant_after(w4, a.outcome_projectors, b.outcome_projectors) for a in settings]
    worst = 0.0
    for i, (reduced_i, margins_i) in enumerate(seen):
        for reduced_j, margins_j in seen[i + 1 :]:
            worst = max(worst, la._trace_distance(reduced_i, reduced_j))
            tv = 0.5 * sum(abs(p - q) for p, q in zip(margins_i, margins_j))
            worst = max(worst, tv)
    return worst


def outcome_dependence(w, a: Direction, b: Direction) -> float:
    """|p(b=+1 | a=+1) - p(b=+1)|: how much one outcome shifts the other.

    Settings alone never signal, but in entangled states the realised
    nearby outcome does move the distant distribution.
    """
    record = joint_probabilities(w, a, b)
    p_a = record.marginal_1[1]
    if p_a <= CONDITION_TOL:
        raise ValueError(
            f"outcome +1 along the first setting has probability {p_a:.3e}; "
            "conditional is undefined"
        )
    conditional = record.joint[(1, 1)] / p_a
    return abs(conditional - record.marginal_2[1])
