"""The toolkit's acceptance battery.

Each criterion function runs a deterministic sweep (fixed seeds) and
returns named checks with the measured value and the tolerance it was
held to.  The pytest acceptance module and the command line ``suite``
both execute these; nothing here depends on the reporting layer.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .checks import Check
from .contexts import (
    Observable,
    context,
    contexts_distance,
    luders_nonselective,
    observable,
    statistical_equivalence,
)
from .contextuality import ghz_contradiction, mermin_peres_square, search_noncontextual_assignment
from .correlations import (
    OUTCOMES,
    Direction,
    chsh,
    chsh_optimal_settings,
    conditional_remote_state,
    correlation,
    joint_probabilities,
    no_signalling_check,
    outcome_dependence,
)
from .mub import measure_statistics, reconstruct
from .sampling import (
    random_density,
    random_direction,
    random_nondegenerate_observable,
    random_pure_state,
)
from .states import (
    _FREE_SECOND_TOL,
    DensityOperator,
    PureState,
    entangling_evolution_demo,
    make_singlet,
    product_basis_state,
    reduced_state,
    total_spin_squared,
)

# Rounding-level ceilings on |S| - 2 (product states, local strategies) and
# the A^2 probe's delta.
_CHSH_EXCESS_TOL = 1e-8
_PROBE_SQUARE_TOL = 1e-8


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        worst = max(self.checks, key=lambda c: (not c.passed, c.measured))
        return (
            f"[{verdict}] criterion {self.number}: {self.title} "
            f"(worst: {worst.name} = {worst.measured:.3e} vs {worst.tolerance:.1e})"
        )


def criterion_singlet_anticorrelation() -> CriterionResult:
    """Equal-axis measurements on the singlet never agree."""
    rng = np.random.default_rng(101)
    singlet = make_singlet()
    worst_same = 0.0
    worst_flip = 0.0
    for _ in range(20):
        a = random_direction(rng)
        record = joint_probabilities(singlet, a, a)
        worst_same = max(worst_same, record.joint[(1, 1)] + record.joint[(-1, -1)])
        for outcome in (1, -1):
            _, remote = conditional_remote_state(singlet, a, outcome)
            proj = a.outcome_projectors[OUTCOMES.index(-outcome)]
            opposite = float(np.vdot(remote.amplitudes, proj @ remote.amplitudes).real)
            worst_flip = max(worst_flip, abs(opposite - 1.0))
    return CriterionResult(
        number=1,
        title="singlet perfect anticorrelation",
        checks=(
            Check.below("p_same_axis_agreement", worst_same, 1e-9, "max over 20 directions"),
            Check.below(
                "remote_outcome_opposite_deficit",
                worst_flip,
                1e-9,
                "both outcomes, 20 directions",
            ),
        ),
    )


def criterion_correlation_law() -> CriterionResult:
    """E(a, b) = -a.b, cross-checked against direct trace evaluation."""
    rng = np.random.default_rng(102)
    singlet = make_singlet()
    rho = singlet.projector()
    worst_law = 0.0
    worst_oracle = 0.0
    for _ in range(100):
        a = random_direction(rng)
        b = random_direction(rng)
        e = correlation(singlet, a, b)
        worst_law = max(worst_law, abs(e + a.dot(b)))
        direct = float(np.trace(rho @ np.kron(a.spin_matrix(), b.spin_matrix())).real)
        worst_oracle = max(worst_oracle, abs(e - direct))
    return CriterionResult(
        number=2,
        title="singlet correlation law",
        checks=(
            Check.below("law_deviation", worst_law, 1e-9, "max over 100 direction pairs"),
            Check.below("trace_oracle_deviation", worst_oracle, 1e-9, "projector route vs direct trace"),
        ),
    )


def criterion_chsh() -> CriterionResult:
    """Tsirelson value on the singlet; classical bound on local models."""
    rng = np.random.default_rng(103)
    singlet = make_singlet()
    a, a2, b, b2 = chsh_optimal_settings()
    s = chsh(singlet, a, a2, b, b2)
    optimum_gap = abs(abs(s) - 2.0 * np.sqrt(2.0))

    worst_product = 0.0
    for _ in range(100):
        u = random_pure_state(2, rng)
        v = random_pure_state(2, rng)
        product = PureState(np.kron(u.amplitudes, v.amplitudes))
        worst_product = max(worst_product, abs(chsh(product, a, a2, b, b2)))

    worst_strategy = 0.0
    for fa, fa2, gb, gb2 in itertools.product((1, -1), repeat=4):
        s_local = fa * gb + fa * gb2 + fa2 * gb - fa2 * gb2
        worst_strategy = max(worst_strategy, abs(s_local))

    return CriterionResult(
        number=3,
        title="CHSH bound and optimum",
        checks=(
            Check.below("optimum_gap", optimum_gap, 1e-6, "|S| vs 2 sqrt 2 at 0/90/45/135 degrees"),
            Check.below(
                "product_state_excess",
                max(worst_product - 2.0, 0.0),
                _CHSH_EXCESS_TOL,
                "max |S| over 100 product states",
            ),
            Check.below(
                "local_strategy_excess",
                max(worst_strategy - 2.0, 0.0),
                _CHSH_EXCESS_TOL,
                "all 16 deterministic strategies",
            ),
        ),
    )


def criterion_no_signalling() -> CriterionResult:
    """Setting choices never move the distant marginals; outcomes do."""
    rng = np.random.default_rng(104)
    worst = 0.0
    probe = Direction(0.0, 0.0, 1.0)
    for _ in range(50):
        rho = random_density(4, rng)
        settings = [random_direction(rng) for _ in range(5)]
        worst = max(worst, no_signalling_check(rho, settings, probe))
    singlet = make_singlet()
    dependence_errors = []
    for a in (Direction(0.0, 0.0, 1.0), random_direction(rng), random_direction(rng)):
        dependence_errors.append(abs(outcome_dependence(singlet, a, a) - 0.5))
    return CriterionResult(
        number=4,
        title="no-signalling with outcome dependence",
        checks=(
            Check.below("max_marginal_shift", worst, 1e-9, "50 states x 5 settings"),
            Check.below(
                "outcome_dependence_vs_half",
                max(dependence_errors),
                1e-9,
                "singlet at b = a",
            ),
        ),
    )


def criterion_luders_forms() -> CriterionResult:
    """Projector-sandwich and amplitude forms of conditioning agree."""
    rng = np.random.default_rng(105)
    worst_gap = 0.0
    worst_idem = 0.0
    for trial in range(100):
        dim = 2 + trial % 3
        psi = random_pure_state(dim, rng)
        obs, _, _ = random_nondegenerate_observable(dim, rng)
        ctx = context(psi, obs)
        conditioned = luders_nonselective(ctx).state

        expanded = np.zeros((dim, dim), dtype=complex)
        for _, vec in obs.eigenbasis():
            amplitude = np.vdot(vec, psi.amplitudes)
            expanded += (abs(amplitude) ** 2) * np.outer(vec, vec.conj())
        worst_gap = max(worst_gap, la._trace_distance(conditioned.matrix, expanded))

        twice = luders_nonselective(context(conditioned, obs)).state
        worst_idem = max(worst_idem, la._trace_distance(twice.matrix, conditioned.matrix))
    return CriterionResult(
        number=5,
        title="conditioning forms agree and idempotence",
        checks=(
            Check.below("form_gap", worst_gap, 1e-12, "100 pairs, dims 2-4"),
            Check.below("idempotence_gap", worst_idem, 1e-10, "same sweep"),
        ),
    )


def criterion_statistical_equivalence() -> CriterionResult:
    """Conditioning preserves every compatible expectation; witnesses differ."""
    rng = np.random.default_rng(106)
    worst_self = 0.0
    worst_compat = 0.0
    for trial in range(100):
        dim = 2 + trial % 3
        rho = random_density(dim, rng)
        obs, values, u = random_nondegenerate_observable(dim, rng)
        ctx = context(rho, obs)
        worst_self = max(worst_self, statistical_equivalence(ctx).delta)
        # A^2 has A's eigenvectors and the squared eigenvalues (1, 4, ...,
        # still ascending): its spectrum is written down, not solved.
        compat = Observable(
            matrix=obs.matrix @ obs.matrix,
            spectrum=la.SpectralDecomposition.from_eigenpairs(values**2, u),
            label="A^2",
        )
        worst_compat = max(worst_compat, statistical_equivalence(ctx, probe=compat).delta)
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
    witness = statistical_equivalence(
        context(plus, observable(la.SIGMA_Z, "sigma_z")),
        probe=observable(la.SIGMA_X, "sigma_x"),
    )
    return CriterionResult(
        number=6,
        title="statistical equivalence inside a context",
        checks=(
            Check.below("self_probe_delta", worst_self, 1e-9, "100 random (W, A)"),
            Check.below("compatible_probe_delta", worst_compat, _PROBE_SQUARE_TOL, "probe A^2"),
            Check.below(
                "witness_deviation_error",
                abs(witness.delta - 1.0),
                1e-9,
                "incompatible probe sigma_x on |+>, sigma_z",
            ),
        ),
    )


def criterion_context_distance() -> CriterionResult:
    """Incompatible contexts separate a state; compatible ones do not."""
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
    sz = observable(la.SIGMA_Z, "sigma_z")
    sx = observable(la.SIGMA_X, "sigma_x")
    d = contexts_distance(plus, sz, sx)
    fz = observable(np.diag([3.0, -7.0]).astype(complex), "f(sigma_z)")
    d0 = contexts_distance(plus, sz, fz)
    return CriterionResult(
        number=7,
        title="context distinctness",
        checks=(
            Check.below("distance_error_incompatible", abs(d - 0.5), 1e-9, "|+> under sigma_z vs sigma_x"),
            Check.below("distance_shared_eigenbasis", d0, 1e-12, "sigma_z vs function of sigma_z"),
        ),
    )


def criterion_observable_square() -> CriterionResult:
    """Product identities hold; no global assignment survives all six."""
    square = mermin_peres_square()
    full = search_noncontextual_assignment(square)
    relaxed = search_noncontextual_assignment(square.without_context(5))
    return CriterionResult(
        number=8,
        title="observable square non-colorability",
        checks=(
            Check.below("identity_defect", square.identity_defect, 1e-12, "all 6 contexts"),
            Check(
                name="satisfying_assignments",
                passed=full.satisfying_count == 0 and full.cases_checked == 512,
                measured=float(full.satisfying_count),
                tolerance=0.0,
                detail="512 cases searched",
            ),
            Check.above(
                "relaxed_assignments",
                float(relaxed.satisfying_count),
                0.0,
                "minus-one constraint removed",
            ),
        ),
    )


def criterion_three_spin_parity() -> CriterionResult:
    """Joint eigenvalues verified; sign arithmetic yields the contradiction."""
    report = ghz_contradiction()
    return CriterionResult(
        number=9,
        title="three-spin parity contradiction",
        checks=(
            Check.below("eigenvalue_residual", max(report.residuals), 1e-12, "XXX, XYY, YXY, YYX"),
            Check(
                name="sign_contradiction",
                passed=report.contradiction
                and report.eigenvalues == (1, -1, -1, -1),
                measured=float(report.constraint_product),
                tolerance=float(report.forced_product),
                detail="observed sign product vs forced +1",
            ),
        ),
    )


def criterion_holism_witness() -> CriterionResult:
    """Total spin separates the singlet from a mixture with equal reductions."""
    singlet = make_singlet()
    s2_singlet = total_spin_squared(singlet)
    mixture = DensityOperator(
        0.5 * product_basis_state(0, 1).projector()
        + 0.5 * product_basis_state(1, 0).projector()
    )
    s2_mixture = total_spin_squared(mixture)
    worst_reduced = 0.0
    for keep in (1, 2):
        r_singlet = reduced_state(singlet, (2, 2), keep).matrix
        r_mixture = reduced_state(mixture, (2, 2), keep).matrix
        worst_reduced = max(worst_reduced, la._trace_distance(r_singlet, r_mixture))
    return CriterionResult(
        number=10,
        title="holism witness",
        checks=(
            Check.below("singlet_total_spin", abs(s2_singlet), 1e-12, "expected 0"),
            Check.below("mixture_total_spin_error", abs(s2_mixture - 1.0), 1e-10, "expected 1"),
            Check.below("reduced_state_gap", worst_reduced, 1e-12, "both subsystems"),
        ),
    )


def criterion_dynamics() -> CriterionResult:
    """Interaction-free evolution preserves product form; coupling breaks it."""
    free = entangling_evolution_demo(0.0, 1.0, steps=10)
    worst_second = max(point.coefficients[1] for point in free)
    coupled = entangling_evolution_demo(1.0, 0.5, steps=10)
    second_at_end = coupled[-1].coefficients[1]
    return CriterionResult(
        number=11,
        title="interaction and entanglement dynamics",
        checks=(
            Check.below(
                "free_second_coefficient",
                worst_second,
                _FREE_SECOND_TOL,
                "10 time steps, coupling 0",
            ),
            Check.above(
                "coupled_second_coefficient",
                second_at_end,
                0.01,
                "coupling 1 at t = 0.5",
            ),
        ),
    )


def criterion_tomography() -> CriterionResult:
    """Unbiased-basis statistics reconstruct states exactly, or nearly from samples."""
    rng = np.random.default_rng(112)
    worst_exact = 0.0
    for _ in range(100):
        rho = random_density(2, rng)
        rebuilt = reconstruct(measure_statistics(rho))
        worst_exact = max(worst_exact, la._trace_distance(rho.matrix, rebuilt.matrix))
    worst_sampled = 0.0
    for k in range(20):
        rho = random_density(2, rng)
        stats = measure_statistics(rho, samples=100_000, seed=9000 + k)
        rebuilt = reconstruct(stats)
        worst_sampled = max(worst_sampled, la._trace_distance(rho.matrix, rebuilt.matrix))
    return CriterionResult(
        number=12,
        title="unbiased-bases tomography",
        checks=(
            Check.below("exact_round_trip", worst_exact, 1e-9, "100 random states"),
            Check.below("sampled_round_trip", worst_sampled, 0.05, "20 states, N = 1e5"),
        ),
    )


ALL_CRITERIA = (
    criterion_singlet_anticorrelation,
    criterion_correlation_law,
    criterion_chsh,
    criterion_no_signalling,
    criterion_luders_forms,
    criterion_statistical_equivalence,
    criterion_context_distance,
    criterion_observable_square,
    criterion_three_spin_parity,
    criterion_holism_witness,
    criterion_dynamics,
    criterion_tomography,
)


def run_suite(progress=None) -> list[CriterionResult]:
    """Execute every acceptance criterion in order.

    ``progress(result, seconds)``, when given, is called after each
    criterion with its result and wall time.
    """
    results = []
    for criterion in ALL_CRITERIA:
        started = time.perf_counter()
        result = criterion()
        if progress is not None:
            progress(result, time.perf_counter() - started)
        results.append(result)
    return results
