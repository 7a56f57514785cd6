"""Ergodic optimization on Markov shifts at truncation scale.

The pipeline: describe a shift and a finite-memory potential, truncate
to a finite alphabet, build the weighted memory graph, optimize for the
maximum cycle mean, then compute barriers, calibrated subactions and
truncation-convergence diagnostics on top.

``import peierls`` loads no layer: each public name imports the module
that defines it on first access (PEP 562) and is then bound here.
"""

from importlib import import_module

__version__ = "0.1.0"

DEFAULT_TOL = 1e-9  # here, not in optimizer, so the command line reads it without a layer

# layer module -> the public names it defines
_LAYERS = {
    "barrier": """BarrierResult CutoffReport UpperBoundReport barrier_length_profile
        compute_barrier letter_cutoff""",
    "optimizer": """GraphError PeriodicMeasure PositiveCycleError
        WeightedMemoryGraph birkhoff_sum build_memory_graph graph_from_weights
        max_mean_cycle optimize periodic_measure""",
    "potential": """PotentialError PotentialSpec TAIL_LINEAR ambient_total_variation
        coercive_letter_bound evaluate parse_potential tail_value validate_table
        var_j""",
    "shift_space": """ConditionVerdict FiniteShift KIND_RENEWAL ShiftSpec ShiftSpecError
        TransitivityError TruncationError admissible check_bi check_bp
        connecting_word covering_core is_admissible_word is_transitive
        parse_shift_spec transitive_core truncate""",
    "subaction": """ComparisonReport MinimalityReport PreorbitReport
        SeedConsistencyError SubactionReport UniquenessReport VariationReport
        calibrated_preorbit compare_up_to_constant consistent_seed
        fixpoint_subaction minimality_check one_step_image uniqueness_comparison
        variation_of_subaction verify_subaction""",
    "truncation": """BOUNDED DIVERGENT INCONCLUSIVE BoundednessProbe FamilyError
        LetterStabilization Stage StabilizationReport TruncationFamily
        bp_boundedness_probe build_family build_stage stabilization_experiment""",
}
_OWNER = {name: module for module, names in _LAYERS.items() for name in names.split()}

__all__ = sorted([*_OWNER, "DEFAULT_TOL"])


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
