"""Correlation experiments on a pair of spin-1/2 systems.

Spin components along a unit direction d are represented by d . sigma
with outcomes +1 and -1; physical spin values are the outcomes times
hbar/2, kept as a display convention only.  Joint statistics come from
projective measurements on both wings, p(i, j) = Tr[(P_i x Q_j) W].
"""

from __future__ import annotations

import math
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
    """Unit vector in ordinary 3-space."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))
        if not all(map(math.isfinite, (self.x, self.y, self.z))):
            raise ValueError(
                f"direction components must be finite, got "
                f"({self.x!r}, {self.y!r}, {self.z!r})"
            )
        # hypot scales its arguments, so components near 1e308 do not overflow.
        norm = math.hypot(self.x, self.y, self.z)
        if abs(norm - 1.0) > DIRECTION_TOL:
            raise ValueError(f"direction is not a unit vector: |d| = {norm!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "Direction":
        norm = float(np.sqrt(x * x + y * y + z * z))
        if norm == 0.0:
            raise ValueError("cannot normalise the zero vector")
        return cls(x / norm, y / norm, z / norm)

    @classmethod
    def polar(cls, theta: float, phi: float = 0.0) -> "Direction":
        """Direction at polar angle theta from +z, azimuth phi from +x."""
        return cls(
            float(np.sin(theta) * np.cos(phi)),
            float(np.sin(theta) * np.sin(phi)),
            float(np.cos(theta)),
        )

    def dot(self, other: "Direction") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def spin_observable(d: Direction) -> Observable:
    """Spin component along d, as the outcome observable d . sigma."""
    m = d.x * la.SIGMA_X + d.y * la.SIGMA_Y + d.z * la.SIGMA_Z
    return observable(m, label=f"spin({d.x:.6g},{d.y:.6g},{d.z:.6g})")


def _spin_projectors(d: Direction) -> dict[int, np.ndarray]:
    """Projectors of the spin along d, keyed by outcome +1 / -1."""
    obs = spin_observable(d)
    out: dict[int, np.ndarray] = {}
    for a, p in zip(obs.spectrum.eigenvalues, obs.spectrum.projectors):
        key = int(round(a))
        if key not in (-1, 1) or abs(a - key) > 1e-9:
            raise ValueError(f"observable {obs.label!r} is not two-valued with outcomes +-1")
        out[key] = p
    if set(out) != {-1, 1}:
        raise ValueError(f"observable {obs.label!r} does not resolve both outcomes")
    return out


@dataclass(frozen=True)
class CorrelationRecord:
    """Joint outcome table of one pair of spin measurements."""

    setting_1: Direction
    setting_2: Direction
    joint: dict[tuple[int, int], float] = field(repr=False)
    marginal_1: dict[int, float] = field(repr=False)
    marginal_2: dict[int, float] = field(repr=False)
    expectation: float

    def __post_init__(self):
        eps = 1e-9
        values = list(self.joint.values())
        if any(p < -eps or p > 1.0 + eps for p in values):
            raise ValueError("joint probabilities outside [0, 1]")
        if abs(sum(values) - 1.0) > 1e-10:
            raise ValueError(f"joint probabilities sum to {sum(values)!r}")
        for i in OUTCOMES:
            row = sum(self.joint[(i, j)] for j in OUTCOMES)
            if abs(row - self.marginal_1[i]) > 1e-12:
                raise ValueError("first marginal inconsistent with joint table")
        for j in OUTCOMES:
            col = sum(self.joint[(i, j)] for i in OUTCOMES)
            if abs(col - self.marginal_2[j]) > 1e-12:
                raise ValueError("second marginal inconsistent with joint table")
        if abs(self.expectation) > 1.0 + eps:
            raise ValueError(f"expectation {self.expectation!r} outside [-1, 1]")


def _pair_state(w) -> DensityOperator:
    rho = as_density(w)
    if rho.dim != 4:
        raise DimensionError(f"pair correlations need dimension 4, got {rho.dim}")
    return rho


def _joint_record(
    rho: DensityOperator,
    a: Direction,
    pa: dict[int, np.ndarray],
    b: Direction,
    pb: dict[int, np.ndarray],
) -> CorrelationRecord:
    """Joint table of a pair state from both wings' outcome projectors."""
    joint: dict[tuple[int, int], float] = {}
    for i in OUTCOMES:
        for j in OUTCOMES:
            op = la.tensor(pa[i], pb[j])
            joint[(i, j)] = float((rho.matrix @ op).trace().real)
    marginal_1 = {i: joint[(i, 1)] + joint[(i, -1)] for i in OUTCOMES}
    marginal_2 = {j: joint[(1, j)] + joint[(-1, j)] for j in OUTCOMES}
    expectation = sum(i * j * joint[(i, j)] for i in OUTCOMES for j in OUTCOMES)
    return CorrelationRecord(
        setting_1=a,
        setting_2=b,
        joint=joint,
        marginal_1=marginal_1,
        marginal_2=marginal_2,
        expectation=float(expectation),
    )


def joint_probabilities(w, a: Direction, b: Direction) -> CorrelationRecord:
    """Joint +-1 outcome distribution for spins measured along a and b."""
    rho = _pair_state(w)
    pa = _spin_projectors(a)
    pb = pa if b == a else _spin_projectors(b)
    return _joint_record(rho, a, pa, b, pb)


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
    proj = _spin_projectors(a)[outcome]
    e = la.rank_one_vector(proj)
    # (<e| x I) psi leaves the distant spin's (unnormalised) amplitudes.
    m = state.amplitudes.reshape(2, 2)
    remote = e.conj() @ m
    probability = float(np.vdot(remote, remote).real)
    if probability <= CONDITION_TOL:
        raise ValueError(
            f"outcome {outcome:+d} has probability {probability:.3e}; "
            "nothing to condition on"
        )
    return probability, PureState(remote / np.sqrt(probability))


def chsh(w, a: Direction, a2: Direction, b: Direction, b2: Direction) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b')."""
    rho = _pair_state(w)
    pa, pa2, pb, pb2 = (_spin_projectors(d) for d in (a, a2, b, b2))
    return (
        _joint_record(rho, a, pa, b, pb).expectation
        + _joint_record(rho, a, pa, b2, pb2).expectation
        + _joint_record(rho, a2, pa2, b, pb).expectation
        - _joint_record(rho, a2, pa2, b2, pb2).expectation
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


def no_signalling_check(w, settings: list[Direction], b: Direction) -> float:
    """Largest influence of the nearby setting choice on the distant spin.

    For each setting the nearby spin is measured non-selectively and the
    distant spin's reduced state and b-outcome distribution are formed;
    the returned value is the largest trace distance (states) or total
    variation (distributions) across any two settings.  It vanishes for
    every state: the setting choice alone sends no signal.
    """
    rho = as_density(w)
    if rho.dim != 4:
        raise DimensionError(f"no-signalling check needs dimension 4, got {rho.dim}")
    qb = _spin_projectors(b)
    reduced: list[np.ndarray] = []
    margins: list[dict[int, float]] = []
    eye = np.eye(2, dtype=complex)
    for a in settings:
        pa = _spin_projectors(a)
        conditioned = np.zeros((4, 4), dtype=complex)
        for p in pa.values():
            big = la.tensor(p, eye)
            conditioned += big @ rho.matrix @ big
        r2 = la.partial_trace(conditioned, (2, 2), keep=2)
        reduced.append(r2)
        margins.append(
            {j: float(np.trace(r2 @ qb[j]).real) for j in OUTCOMES}
        )
    worst = 0.0
    for i in range(len(settings)):
        for j in range(i + 1, len(settings)):
            worst = max(worst, la.trace_distance(reduced[i], reduced[j]))
            tv = 0.5 * sum(
                abs(margins[i][o] - margins[j][o]) for o in OUTCOMES
            )
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
