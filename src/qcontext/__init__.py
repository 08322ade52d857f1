"""Exact desk-scale calculations on compound quantum states.

The package covers five connected strands: Schmidt structure and
entanglement of bipartite states, conditionalization of a state on a
measurement context, spin-pair correlations with their locality
diagnostics, algebraic obstructions to context-free value assignments,
and qubit reconstruction from mutually unbiased bases.  Everything is
small and dense enough to verify against hand calculations.
"""

import importlib

from . import linalg

# Every public name, by its module.  ``linalg`` is imported above, and
# every name is read from its module on use (PEP 562), so ``import
# qcontext`` loads numpy and ``linalg`` alone and a CLI process loads only
# the modules its subcommand calls.
_LAZY = {
    "linalg": (
        "ConvergenceError",
        "DimensionError",
        "SpectralDecomposition",
        "commutator",
        "commutes",
        "evolution_operator",
        "jacobi_eigh",
        "partial_trace",
        "spectral_decompose",
        "tensor",
        "trace_distance",
    ),
    "contexts": (
        "BooleanLatticeReport",
        "ContextualState",
        "EquivalenceResult",
        "MeasurementContext",
        "Observable",
        "RepresentativenessReport",
        "boolean_lattice_check",
        "check_representative",
        "context",
        "contexts_distance",
        "luders_nonselective",
        "observable",
        "sequential_luders",
        "statistical_equivalence",
    ),
    "contextuality": (
        "AssignmentSearchResult",
        "ParityContradictionReport",
        "ValueAssignmentProblem",
        "ValueDependenceReport",
        "ghz_contradiction",
        "mermin_peres_square",
        "search_noncontextual_assignment",
        "value_dependence_demo",
    ),
    "correlations": (
        "CorrelationRecord",
        "Direction",
        "chsh",
        "chsh_optimal_settings",
        "conditional_remote_state",
        "correlation",
        "joint_probabilities",
        "no_signalling_check",
        "outcome_dependence",
        "spin_observable",
    ),
    "mub": (
        "MeasurementStatistics",
        "measure_statistics",
        "reconstruct",
    ),
    "states": (
        "DensityOperator",
        "PureState",
        "SchmidtDecomposition",
        "as_density",
        "coupled_spins_hamiltonian",
        "entangling_evolution_demo",
        "is_product",
        "make_ghz",
        "make_singlet",
        "product_basis_state",
        "reduced_state",
        "schmidt",
        "total_spin_squared",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    # Not cached here, so the name reads its module's current attribute,
    # a wrapper rebound over it included.
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__version__ = "0.1.0"

__all__ = sorted(_HOME)
