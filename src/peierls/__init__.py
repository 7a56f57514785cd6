"""Ergodic optimization on Markov shifts at truncation scale.

The pipeline: describe a shift and a finite-memory potential, truncate
to a finite alphabet, build the weighted memory graph, optimize for the
maximum cycle mean, then compute barriers, calibrated subactions and
truncation-convergence diagnostics on top.

``import peierls`` loads no layer: each public name imports the module
that defines it on first access (PEP 562) and is then bound here.
"""

__version__ = "0.1.0"

DEFAULT_TOL = 1e-9  # here, not in optimizer, so the command line reads it without a layer

# layer module -> the public names it defines
_LAYERS = {
    "barrier": """CutoffReport UpperBoundReport ambient_total_variation barrier_length_profile
        coercive_letter_bound letter_cutoff""",
    "calibration": """MinimalityReport PreorbitReport SeedConsistencyError VariationReport
        calibrated_preorbit consistent_seed fixpoint_subaction minimality_check
        one_step_image variation_of_subaction""",
    "countable": "ConditionVerdict check_bi check_bp connecting_word covering_core",
    "optimizer": """BarrierResult GraphError PeriodicMeasure PositiveCycleError
        WeightedMemoryGraph birkhoff_sum build_memory_graph compute_barrier
        graph_from_weights max_mean_cycle optimize periodic_measure""",
    "potential": """PotentialError PotentialSpec TAIL_LINEAR evaluate parse_potential
        tail_value validate_table var_j""",
    "shift_space": """FiniteShift KIND_RENEWAL ShiftSpec ShiftSpecError TransitivityError
        TruncationError admissible is_admissible_word is_transitive parse_shift_spec
        transitive_core truncate""",
    "subaction": """ComparisonReport SubactionReport UniquenessReport
        compare_up_to_constant uniqueness_comparison verify_subaction""",
    "truncation": """BOUNDED DIVERGENT INCONCLUSIVE BoundednessProbe FamilyError
        LetterStabilization Stage StabilizationReport TruncationFamily
        bp_boundedness_probe build_family build_stage stabilization_experiment""",
}
_OWNER = {name: module for module, names in _LAYERS.items() for name in names.split()}

__all__ = sorted([*_OWNER, "DEFAULT_TOL"])


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # as `from .layer import name` does, so -X importtime lists the layer; import_module hides it
    layer = __import__(f"{__name__}.{_OWNER[name]}", fromlist=[name])
    value = globals()[name] = getattr(layer, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
