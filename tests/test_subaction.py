import math
import random

import pytest

from peierls import (
    GraphError,
    PotentialSpec,
    SeedConsistencyError,
    barrier_length_profile,
    build_memory_graph,
    calibrated_preorbit,
    compare_up_to_constant,
    compute_barrier,
    consistent_seed,
    fixpoint_subaction,
    graph_from_weights,
    minimality_check,
    one_step_image,
    optimize,
    uniqueness_comparison,
    variation_of_subaction,
    verify_subaction,
)
from peierls.optimizer import _rounding_tol

from oracles import random_graph


@pytest.fixture
def two_cycle_graph():
    return optimize(graph_from_weights({(0, 1): 1.0, (1, 0): -1.0}))


def test_verify_barrier_golden_mean(gm_graph):
    values = compute_barrier(gm_graph).values
    report = verify_subaction(gm_graph, values)
    assert report.is_subaction
    assert report.worst_violation == 0.0
    assert report.is_calibrated
    assert report.uncalibrated_vertices == ()
    assert set(report.contact_edges) == {(((0,)), ((0,))), (((0,)), ((1,)))}
    assert report.supp_in_contact


def test_verify_flags_violations(gm_graph):
    report = verify_subaction(gm_graph, {(0,): 0.0, (1,): 5.0})
    assert not report.is_subaction
    assert report.worst_violation == pytest.approx(4.0)


def test_verify_flags_uncalibrated_vertex(gm_graph):
    report = verify_subaction(gm_graph, {(0,): 0.0, (1,): 0.5})
    assert report.is_subaction
    assert not report.is_calibrated
    assert report.uncalibrated_vertices == ((1,),)
    assert report.supp_in_contact


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_verify_rejects_values_that_are_not_finite(gm_graph, bad):
    # unchecked, a nan slack skipped the worst-violation update and the table passed
    with pytest.raises(GraphError, match=r"values not finite at vertices: \[\(1,\)\]"):
        verify_subaction(gm_graph, {(0,): 0.0, (1,): bad})


@pytest.mark.parametrize(
    "table, message",
    [
        ({0: 0.0, 1: math.nan}, r"values not finite at vertices: \[1\]"),
        ({0: 0.0}, r"values missing for vertices: \[1\]"),
    ],
    ids=["nan", "missing"],
)
@pytest.mark.parametrize(
    "check",
    [
        lambda g, table: minimality_check(g, table, {0: 0.0, 1: 0.0}),
        lambda g, table: minimality_check(g, {0: 0.0, 1: 0.0}, table),
        one_step_image,
        lambda g, table: calibrated_preorbit(g, table, 0, 1),
    ],
    ids=["minimality-candidate", "minimality-barrier", "one_step_image", "calibrated_preorbit"],
)
def test_every_value_table_is_checked_like_verify_subaction(two_cycle_graph, check, table, message):
    # a nan margin never fell below the worst one, so minimality_check passed it with
    # ok=True, and one_step_image's max kept or dropped a nan by argument order
    with pytest.raises(GraphError, match=message):
        check(two_cycle_graph, table)


@pytest.mark.parametrize(
    "check",
    [
        compute_barrier,
        lambda g: barrier_length_profile(g, 0, 4),
        lambda g: verify_subaction(g, {0: 0.0}),
        lambda g: calibrated_preorbit(g, {0: 0.0}, 0, 1),
        consistent_seed,
        lambda g: fixpoint_subaction(g, {0: 0.0}),
        lambda g: one_step_image(g, {0: 0.0}),
        lambda g: minimality_check(g, {0: 0.0}, {0: 0.0}),
        lambda g: uniqueness_comparison(g, {0: 0.0}, {0: 0.0}),
    ],
    ids=[
        "compute_barrier", "barrier_length_profile", "verify_subaction", "calibrated_preorbit",
        "consistent_seed", "fixpoint_subaction", "one_step_image", "minimality_check",
        "uniqueness_comparison",
    ],
)
def test_every_pass_over_an_optimized_graph_rejects_an_unoptimized_one(check):
    with pytest.raises(GraphError, match="pass it through optimize first"):
        check(graph_from_weights({(0, 0): 0.0}))


def test_preorbit_enters_critical_class(renewal_graph):
    values = compute_barrier(renewal_graph).values
    report = calibrated_preorbit(renewal_graph, values, (5,), 6)
    assert report.sequence[:3] == ((5,), (6,), (0,))
    assert report.sequence[-1] == (0,)
    assert report.entered_at == 2
    assert report.tail_in_critical_class


def test_preorbit_needs_contact_predecessors(gm_graph):
    with pytest.raises(GraphError):
        calibrated_preorbit(gm_graph, {(0,): 0.0, (1,): 0.5}, (1,), 3)


def test_preorbit_needs_a_known_start_and_nonnegative_steps(gm_graph):
    values = compute_barrier(gm_graph).values
    with pytest.raises(GraphError, match=r"^unknown vertex \(7,\)$"):
        calibrated_preorbit(gm_graph, values, (7,), 3)
    with pytest.raises(GraphError, match="^steps must be nonnegative$"):
        calibrated_preorbit(gm_graph, values, (1,), -1)


def test_consistent_seed_propagates_along_tight_edges(two_cycle_graph):
    assert consistent_seed(two_cycle_graph) == {0: 0.0, 1: 1.0}
    shifted = consistent_seed(two_cycle_graph, anchors={1: 0.0})
    assert shifted == {1: 0.0, 0: -1.0}


def test_consistent_seed_rejects_conflicts_and_strays(two_cycle_graph, gm_graph):
    with pytest.raises(SeedConsistencyError):
        consistent_seed(two_cycle_graph, anchors={0: 0.0, 1: 7.0})
    with pytest.raises(SeedConsistencyError):
        consistent_seed(gm_graph, anchors={(1,): 0.0})


def test_consistent_seed_keeps_a_second_anchor_that_agrees(two_cycle_graph):
    # 1e-12 is within the graph's tolerance, so the anchor stands in for the propagated 1.0
    assert consistent_seed(two_cycle_graph, anchors={0: 0.0, 1: 1.0 + 1e-12}) == {
        0: 0.0,
        1: 1.0 + 1e-12,
    }


def test_fixpoint_reproduces_barrier(renewal_graph):
    barrier = compute_barrier(renewal_graph).values
    fixed = fixpoint_subaction(renewal_graph, consistent_seed(renewal_graph))
    assert fixed == barrier


def test_fixpoint_offsets_shift_uniformly(renewal_graph):
    barrier = compute_barrier(renewal_graph).values
    lifted = fixpoint_subaction(renewal_graph, {(0,): 2.5})
    for v, value in lifted.items():
        assert value == pytest.approx(barrier[v] + 2.5, abs=1e-12)
    comparison = compare_up_to_constant(barrier, lifted)
    assert comparison.is_constant_diff
    assert comparison.constant == pytest.approx(-2.5)
    assert comparison.max_deviation <= 1e-12


def test_fixpoint_rejects_wrong_seed_support(renewal_graph):
    with pytest.raises(SeedConsistencyError):
        fixpoint_subaction(renewal_graph, {(0,): 0.0, (1,): 0.0})
    with pytest.raises(SeedConsistencyError):
        fixpoint_subaction(renewal_graph, {})


def test_fixpoint_rejects_a_seed_that_breaks_a_tight_edge(two_cycle_graph):
    with pytest.raises(SeedConsistencyError, match="^seed breaks the tight edge 0 -> 1 by 1.0$"):
        fixpoint_subaction(two_cycle_graph, {0: 0.0, 1: 0.0})


def test_one_step_image_fixes_calibrated_values(renewal_graph):
    values = compute_barrier(renewal_graph).values
    image = one_step_image(renewal_graph, values)
    assert image == values


def test_minimality_of_barrier(renewal_graph):
    barrier = compute_barrier(renewal_graph).values
    lifted = fixpoint_subaction(renewal_graph, {(0,): 3.0})
    report = minimality_check(renewal_graph, lifted, barrier)
    assert report.ok
    assert report.worst_margin == pytest.approx(0.0)
    bent = dict(lifted)
    bent[(3,)] -= 1.0
    report = minimality_check(renewal_graph, bent, barrier)
    assert not report.ok
    assert report.worst_vertex == (3,)
    assert report.worst_margin == pytest.approx(-1.0)


def test_subaction_checks_use_the_rounding_tolerance_of_large_weights():
    # near 1e12 one ulp is 1.2e-4, so the barrier's own rounding passes the 1e-9 default
    rng = random.Random(0)
    tables = [{(0, 0): 1e12 - 3 / 7, (0, 1): 1e12 - 3 / 7, (1, 0): 1e12 - 1 / 7, (1, 1): 1e12 - 3 / 7}]
    for _ in range(200):
        tables.append({e: k / 7 + 1e12 for e, k in random_graph(rng, rng.randint(1, 8)).items()})
    for weights in tables:
        graph = optimize(graph_from_weights(weights))
        barrier = compute_barrier(graph).values
        report = verify_subaction(graph, barrier)
        assert report.is_subaction and report.is_calibrated and report.supp_in_contact
        steps = len(graph.vertices)
        for v in graph.vertices:
            assert calibrated_preorbit(graph, barrier, v, steps).tail_in_critical_class
        lifted = fixpoint_subaction(graph, consistent_seed(graph))
        assert minimality_check(graph, lifted, barrier).ok
        if len(graph.critical_components) == 1:
            assert uniqueness_comparison(graph, barrier, lifted).consistent
    # the graph carries the one tolerance every check above read
    graph = optimize(graph_from_weights(tables[0]))
    assert graph.tol == _rounding_tol(graph_from_weights(tables[0]), 1e-9) > 1e-9


def test_checks_after_optimize_run_at_the_tolerance_it_was_given():
    # at 1e-3 the loop at 0 (mean -1e-4) ties the loop at 1 (mean 0); a barrier walk
    # at the 1e-9 default then found the reduced loop at 1 positive, through edge 1 -> 0
    weights = {(0, 0): -1e-4, (0, 1): -1e-4, (1, 0): 0.0, (1, 1): 0.0}
    graph = optimize(graph_from_weights(weights), 1e-3)
    values = compute_barrier(graph).values
    assert values == {0: 0.0, 1: 0.0}
    report = verify_subaction(graph, values)
    assert report.is_subaction and report.is_calibrated and report.supp_in_contact
    assert graph.tol == 1e-3


def test_compare_requires_matching_supports():
    with pytest.raises(ValueError):
        compare_up_to_constant({0: 1.0}, {1: 1.0})
    report = compare_up_to_constant({0: 0.0, 1: 1.0}, {0: 0.0, 1: 0.0})
    assert not report.is_constant_diff
    assert report.max_deviation == pytest.approx(0.5)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_rejected(gm_graph, gm_finite, tol):
    # unchecked, nan left every vertex uncalibrated and inf every one calibrated
    values = compute_barrier(gm_graph).values
    checks = (
        lambda: compare_up_to_constant(values, values, tol),
        lambda: variation_of_subaction(values, gm_finite, gm_graph.pot, tol),
    )
    for check in checks:
        with pytest.raises(GraphError, match="tolerance must be finite and nonnegative"):
            check()


def test_uniqueness_comparison_two_class_graph(two_class_graph):
    barrier = compute_barrier(two_class_graph).values
    other = {0: 0.0, 1: 0.0}
    assert verify_subaction(two_class_graph, other).is_calibrated
    report = uniqueness_comparison(two_class_graph, barrier, other)
    assert not report.comparison.is_constant_diff
    assert report.comparison.max_deviation == pytest.approx(0.5)
    assert report.critical_class_unique is False
    assert report.consistent
    assert "uniqueness hypothesis" in report.note


def test_uniqueness_comparison_unique_class(renewal_graph):
    barrier = compute_barrier(renewal_graph).values
    lifted = fixpoint_subaction(renewal_graph, {(0,): 1.0})
    report = uniqueness_comparison(renewal_graph, barrier, lifted)
    assert report.comparison.is_constant_diff
    assert report.critical_class_unique is True
    assert report.consistent


def test_uniqueness_comparison_decides_on_one_component_not_one_out_edge():
    # the loop at 0 and the cycle 0 -> 1 -> 0 both attain m = 0 in one component: the
    # class is not unique, yet calibrated subactions agree up to a constant, so a table
    # that disagrees with the barrier is no calibrated subaction
    graph = optimize(graph_from_weights({(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0}))
    assert len(graph.critical_components) == 1 and graph.critical_class_unique is False
    other = {0: 0.0, 1: 1.0}
    assert not verify_subaction(graph, other).is_subaction
    report = uniqueness_comparison(graph, compute_barrier(graph).values, other)
    assert not report.comparison.is_constant_diff
    assert report.critical_class_unique is False
    assert not report.consistent
    assert report.note == (
        "single critical component, yet the candidates differ by a non-constant; "
        "at least one of them is not a calibrated subaction."
    )


@pytest.mark.parametrize("which", [0, 1])
def test_uniqueness_comparison_checks_both_tables(two_cycle_graph, which):
    tables = [{0: 0.0, 1: 0.0}, {0: 0.0, 1: 0.0}]
    tables[which] = {5: 0.0, 6: 0.0}
    with pytest.raises(GraphError, match=r"^values missing for vertices: \[0, 1\]$"):
        uniqueness_comparison(two_cycle_graph, *tables)
    tables[which] = {0: 0.0, 1: math.inf}
    with pytest.raises(GraphError, match=r"^values not finite at vertices: \[1\]$"):
        uniqueness_comparison(two_cycle_graph, *tables)


def test_variation_within_depth_bounds(gm_finite):
    pot = PotentialSpec(
        depth=3,
        tail_kind="linear",
        tail_scale=1.0,
        table={
            (0, 0, 0): 0.0,
            (0, 0, 1): 1.0,
            (0, 1, 0): -1.0,
            (1, 0, 0): 0.0,
            (1, 0, 1): 1.0,
        },
    )
    graph = optimize(build_memory_graph(gm_finite, pot))
    values = compute_barrier(graph).values
    assert values == {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 0.0}
    report = variation_of_subaction(values, gm_finite, pot)
    assert report.entries == ((1, 1.0, 3.0), (2, 0.0, 1.0))
    assert report.within_bounds


def test_variation_rejects_mixed_word_lengths(gm_finite, gm_pot):
    with pytest.raises(ValueError):
        variation_of_subaction({(0,): 0.0, (0, 1): 0.0}, gm_finite, gm_pot)


def test_variation_rejects_an_empty_table(gm_finite, gm_pot):
    with pytest.raises(ValueError, match="^values must be nonempty$"):
        variation_of_subaction({}, gm_finite, gm_pot)


def test_variation_flags_a_prefix_spread_past_its_bound(gm_finite, gm_pot):
    # a depth-1 potential bounds every prefix spread by 0.0; the words after 0 spread by 1.0
    values = {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 0.0}
    report = variation_of_subaction(values, gm_finite, gm_pot)
    assert report.entries == ((1, 1.0, 0.0), (2, 0.0, 0.0))
    assert not report.within_bounds
