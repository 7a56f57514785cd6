import json
import math
import os
import statistics
import sys
import zlib

import pytest
from hypothesis import given, strategies as st

from peierls import (
    BOUNDED,
    DEFAULT_TOL,
    DIVERGENT,
    FamilyError,
    GraphError,
    INCONCLUSIVE,
    PotentialSpec,
    ShiftSpec,
    bp_boundedness_probe,
    build_family,
    build_stage,
    stabilization_experiment,
)
from peierls import barrier, parse_potential, parse_shift_spec
from peierls.cli import run
from peierls.truncation import _slope


def _cache_files():
    root = os.environ["PEIERLS_CACHE_DIR"]
    if not os.path.isdir(root):
        return []
    return sorted(os.listdir(root))


def _cache_entry_path():
    (name,) = _cache_files()
    return os.path.join(os.environ["PEIERLS_CACHE_DIR"], name)


def _read_entry(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _write_entry(path, payload):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh)


def test_stage_widens_to_a_transitive_core(renewal_spec, renewal_pot):
    stage = build_stage(renewal_spec, renewal_pot, 7)
    assert stage.requested == 7
    assert stage.used == 8
    assert stage.graph.shift.letters == tuple(range(9))
    assert not stage.from_cache
    with pytest.raises(FamilyError):
        build_stage(renewal_spec, renewal_pot, -1)


def test_stage_round_trips_through_the_cache(renewal_spec, renewal_pot):
    first = build_stage(renewal_spec, renewal_pot, 6)
    assert not first.from_cache
    assert len(_cache_files()) == 1
    second = build_stage(renewal_spec, renewal_pot, 6)
    assert second.from_cache
    assert second.used == first.used
    assert second.barrier.values == first.barrier.values
    assert second.barrier.bounds == first.barrier.bounds
    assert second.barrier.base_vertex == first.barrier.base_vertex
    assert second.graph.max_mean == first.graph.max_mean
    assert second.graph.critical_cycle == first.graph.critical_cycle
    assert second.graph.critical_components == first.graph.critical_components
    assert second.graph.critical_edges == first.graph.critical_edges
    assert second.graph.critical_class == first.graph.critical_class
    assert second.graph.critical_class_unique == first.graph.critical_class_unique
    assert second.graph.is_optimized()


def test_a_stage_differing_in_any_input_misses_the_cache(renewal_spec, renewal_pot):
    variants = [
        (renewal_spec, renewal_pot, 6, DEFAULT_TOL),
        (renewal_spec, renewal_pot, 7, DEFAULT_TOL),
        (renewal_spec._replace(renewal_rule=(2, 1)), renewal_pot, 6, DEFAULT_TOL),
        (renewal_spec, renewal_pot._replace(tail_scale=2.0), 6, DEFAULT_TOL),
        (renewal_spec, renewal_pot._replace(table={(0,): -0.5}), 6, DEFAULT_TOL),
        (renewal_spec, renewal_pot._replace(table={(0,): 0.0, (1,): -0.5}), 6, DEFAULT_TOL),
        (renewal_spec, renewal_pot, 6, 1e-6),
    ]
    for count, (spec, pot, requested, tol) in enumerate(variants, start=1):
        assert not build_stage(spec, pot, requested, tol).from_cache
        assert len(_cache_files()) == count
    for spec, pot, requested, tol in variants:
        stage = build_stage(spec, pot, requested, tol)
        assert stage.from_cache and stage.graph.tol == tol


def test_cache_entry_holds_only_the_critical_structure(renewal_spec, renewal_pot):
    fresh = build_stage(renewal_spec, renewal_pot, 6)
    entry = _read_entry(_cache_entry_path())
    assert sorted(entry) == ["h", "key", "mean", "schema"]
    assert entry["schema"] == 5
    # optimize's certificate: Howard's mean and subaction h in the order of the vertices
    assert (entry["mean"], tuple(entry["h"])) == fresh.graph.certificate
    assert len(entry["h"]) == len(fresh.graph.vertices)
    # the file is named by the key's CRC and length, and the entry holds the key itself
    key = repr((renewal_spec, renewal_pot, 6, DEFAULT_TOL))
    assert entry["key"] == key
    assert _cache_files() == [f"stage-{zlib.crc32(key.encode()):08x}-{len(key)}.json"]


def _barrier_facts(barrier):
    # a barrier's graph holds a truncation, which equals only itself
    return barrier.base_vertex, barrier.values, barrier.bounds


def _stage_facts(stage):
    graph = stage.graph
    return (
        stage.requested,
        stage.used,
        graph.shift.letters,
        graph.max_mean,
        graph.critical_cycle,
        graph.critical_components,
        graph.critical_edges,
        graph.critical_class,
        graph.critical_class_unique,
        _barrier_facts(stage.barrier),
    )


@pytest.mark.parametrize(
    "written",
    [
        [], None, 3, {"mean": -1.0}, {"mean": 1.0}, {"h": []}, {"h": [0.0] * 6}, {"h": [0.0] * 8},
        {"h": [math.nan] * 7}, {"h": [0.0] * 6 + [math.inf]}, {"h": ["0"] * 7},
        {"h": [0.0, 1.0, 3.0, 6.0, 10.0, 15.0, 22.0]}, {"mean": "0"}, {"h": None},
        {"h": [10**400] * 7}, {"mean": 10**400}, {"key": "(another stage)"},
    ],
    # the stage is the renewal core 0..6 with m = 0 at the loop on 0, and its entry holds
    # mean 0 and h = j(j + 1)/2 at letter j; under a mean of -1 the loop beats it, under a
    # mean of 1 no edge is tight, and h = 22 at letter 6 lets 6 -> 5 beat it; an integer
    # past the float range overflows; an entry whose key is not the stage's own stands in
    # for a CRC collision of file names
    ids=[
        "list",
        "null",
        "number",
        "mean-below-m",
        "mean-above-m",
        "h-empty",
        "h-too-short",
        "h-too-long",
        "h-nan",
        "h-inf",
        "h-strings",
        "h-beaten",
        "mean-string",
        "h-null",
        "h-past-float",
        "mean-past-float",
        "other-key",
    ],
)
def test_unusable_cache_entry_is_a_miss_and_is_rewritten(renewal_spec, renewal_pot, written):
    fresh = build_stage(renewal_spec, renewal_pot, 6, use_cache=False)
    build_stage(renewal_spec, renewal_pot, 6)
    path = _cache_entry_path()
    if isinstance(written, dict):  # fields over a valid current-schema entry
        written = {**_read_entry(path), **written}
    _write_entry(path, written)
    stage = build_stage(renewal_spec, renewal_pot, 6)
    assert not stage.from_cache
    assert _stage_facts(stage) == _stage_facts(fresh)
    again = build_stage(renewal_spec, renewal_pot, 6)
    assert again.from_cache
    assert _barrier_facts(again.barrier) == _barrier_facts(fresh.barrier)


def test_a_certificate_shifted_by_a_constant_still_hits(tmp_path, capsys):
    # h + c certifies what h does, so the hit decides the stage, and prints the bytes, of a
    # fresh run
    shift, pot = tmp_path / "shift.json", tmp_path / "pot.json"
    shift.write_text('{"kind": "renewal", "renewal": {"a": 2, "b": 0}}', encoding="utf-8")
    pot.write_text(
        '{"depth": 1, "tail": {"kind": "linear", "c": 1}, "table": [{"word": [0], "value": 0}]}',
        encoding="utf-8",
    )
    spec, potential = parse_shift_spec(shift.read_text()), parse_potential(pot.read_text())
    argv = ["converge", "--shift", str(shift), "--potential", str(pot), "--stages", "6,9"]
    assert run([*argv, "--scan-to", "9", "--no-cache"]) == 0
    assert run([*argv, "--format", "csv", "--no-cache"]) == 0
    printed = capsys.readouterr().out
    fresh = build_stage(spec, potential, 6)
    path = _cache_entry_path()
    entry = _read_entry(path)
    assert entry["h"] == [0.0, 1.0, 3.0, 6.0, 10.0, 15.0, 21.0]
    shifted = {**entry, "h": [x - 1024.5 for x in entry["h"]]}
    _write_entry(path, shifted)
    stage = build_stage(spec, potential, 6)
    assert stage.from_cache
    assert _stage_facts(stage) == _stage_facts(fresh)
    assert run([*argv, "--scan-to", "9"]) == 0
    assert run([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == printed
    assert _read_entry(path) == shifted  # the hit rewrote nothing


TWO_LOOPS = ShiftSpec(
    kind="explicit-finite", alphabet_size=2, edges=frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
)
RENEWAL = ShiftSpec(kind="renewal", renewal_rule=(2, 0))


@pytest.mark.parametrize(
    "spec, table, requested, edited",
    [
        (TWO_LOOPS, {(0,): 0.0, (1,): 0.0}, 1, {"cycle": [[1]]}),
        (RENEWAL, {(0,): 0.0}, 2, {"components": [[[0]], [[1]], [[2]]]}),
    ],
    ids=["cycle", "components"],
)
def test_a_stored_cycle_or_component_list_cannot_change_a_hit(spec, table, requested, edited):
    # the loops at 0 and 1 tie at mean 0, and the loop at 0 is the canonical one;
    # a hit derives cycle and components from the stored critical edges alone
    pot = PotentialSpec(depth=1, tail_kind="linear", tail_scale=1.0, table=table)
    fresh = build_stage(spec, pot, requested, use_cache=False)
    build_stage(spec, pot, requested)
    path = _cache_entry_path()
    _write_entry(path, {**_read_entry(path), **edited})
    stage = build_stage(spec, pot, requested)
    assert stage.from_cache
    assert _stage_facts(stage) == _stage_facts(fresh)


def test_stage_ignores_corrupt_cache_entries(renewal_spec, renewal_pot):
    build_stage(renewal_spec, renewal_pot, 6)
    root = os.environ["PEIERLS_CACHE_DIR"]
    (name,) = _cache_files()
    path = os.path.join(root, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{ not json")
    stage = build_stage(renewal_spec, renewal_pot, 6)
    assert not stage.from_cache
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": 99}, fh)
    stage = build_stage(renewal_spec, renewal_pot, 6)
    assert not stage.from_cache


def test_a_cache_write_that_fails_leaves_no_temporary_file(renewal_spec, renewal_pot, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    stage = build_stage(renewal_spec, renewal_pot, 6)
    assert _cache_files() == []
    fresh = build_stage(renewal_spec, renewal_pot, 6, use_cache=False)
    assert not stage.from_cache and _stage_facts(stage) == _stage_facts(fresh)


def test_a_cache_write_whose_cleanup_fails_leaves_the_stage_alone(
    renewal_spec, renewal_pot, monkeypatch
):
    def refuse(*args):
        raise OSError("refused")

    monkeypatch.setattr(os, "replace", refuse)
    monkeypatch.setattr(os, "unlink", refuse)
    stage = build_stage(renewal_spec, renewal_pot, 6)
    assert [name[-4:] for name in _cache_files()] == [".tmp"]  # left behind, never read
    fresh = build_stage(renewal_spec, renewal_pot, 6, use_cache=False)
    assert not stage.from_cache and _stage_facts(stage) == _stage_facts(fresh)


def test_stage_cache_can_be_disabled(renewal_spec, renewal_pot):
    stage = build_stage(renewal_spec, renewal_pot, 6, use_cache=False)
    assert not stage.from_cache
    assert _cache_files() == []


def test_family_checks_monotone_requests(renewal_spec, renewal_pot):
    family = build_family(renewal_spec, renewal_pot, [6, 12])
    assert [s.used for s in family.stages] == [6, 12]
    assert family.base_stable
    assert family.cycle_stable
    with pytest.raises(FamilyError):
        build_family(renewal_spec, renewal_pot, [12, 6])
    with pytest.raises(FamilyError):
        build_family(renewal_spec, renewal_pot, [])


def test_family_on_a_capped_alphabet(gm_spec, gm_pot):
    family = build_family(gm_spec, gm_pot, [1, 5])
    assert [s.used for s in family.stages] == [1, 1]
    assert family.base_stable


def test_stabilization_observed_and_predicted(renewal_spec, renewal_pot):
    family = build_family(renewal_spec, renewal_pot, [6, 12, 24])
    report = stabilization_experiment(family, [1, 3, 5])
    assert report.ok
    for entry in report.entries:
        assert entry.observed_index == 0
        assert entry.observed_used == 6
        assert entry.predicted is not None
        assert entry.observed_used <= entry.predicted.confinement_bound
        assert entry.ok is True


def test_stabilization_flags_letters_missing_from_the_final_stage(
    renewal_spec, renewal_pot
):
    family = build_family(renewal_spec, renewal_pot, [6, 12])
    report = stabilization_experiment(family, [1, 40])
    entries = {e.letter: e for e in report.entries}
    assert entries[1].ok is True
    assert entries[40].observed_index is None
    assert entries[40].ok is None
    assert entries[40].note
    assert report.ok


def test_stabilization_starts_at_the_first_stage_that_holds_the_letter(
    renewal_spec, renewal_pot
):
    family = build_family(renewal_spec, renewal_pot, [6, 12])
    assert 9 not in family.stages[0].graph.shift.letters
    (entry,) = stabilization_experiment(family, [9]).entries
    assert (entry.observed_index, entry.observed_requested, entry.observed_used) == (1, 12, 12)
    assert entry.ok is True


def test_stabilization_needs_two_stages(renewal_spec, renewal_pot):
    family = build_family(renewal_spec, renewal_pot, [6])
    with pytest.raises(FamilyError):
        stabilization_experiment(family, [1])


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_rejected(
    renewal_spec, renewal_pot, tol
):
    # unchecked, nan turned the probe's DIVERGENT into INCONCLUSIVE; the stages'
    # tolerance is the one the probe and the stabilization experiment read
    with pytest.raises(GraphError, match="tolerance must be finite and nonnegative"):
        build_family(renewal_spec, renewal_pot, [6, 12, 24], tol=tol)
    assert not _cache_files()


def test_probe_divergent_on_two_step_entries(renewal_spec, renewal_pot):
    family = build_family(renewal_spec, renewal_pot, [6, 12, 24])
    probe = bp_boundedness_probe(family, renewal_spec, 23)
    assert probe.bp.status == "REFUTED"
    assert probe.verdict == DIVERGENT
    assert probe.slope == pytest.approx(-1.0, abs=1e-6)
    assert probe.fit_letters == tuple(range(1, 24, 2))
    assert probe.floors[5] == -6.0
    assert probe.floors[6] == 0.0
    assert probe.consistent


def test_probe_bounded_on_one_step_entries():
    spec = ShiftSpec(kind="renewal", renewal_rule=(1, 1))
    pot = PotentialSpec(
        depth=1, tail_kind="linear", tail_scale=1.0, table={(0,): 0.0}
    )
    family = build_family(spec, pot, [8, 16])
    probe = bp_boundedness_probe(family, spec, 12)
    assert probe.bp.status == "SATISFIED"
    assert probe.bp.bound == 2
    assert probe.verdict == BOUNDED
    assert probe.floor == -2.0
    assert probe.fit_letters == (1,)
    assert probe.consistent


def test_probe_inconclusive_when_bp_holds_but_the_floors_fall():
    # letters 1..5 enter only from one step up, and their values above m make each
    # step down raise the barrier, so the floors fall along them although BP holds
    spec = ShiftSpec(kind="renewal", renewal_rule=(1, 5))
    table = {(0,): 0.0, **{(j,): 10.0 for j in range(1, 6)}}
    pot = PotentialSpec(depth=1, tail_kind="linear", tail_scale=1.0, table=table)
    probe = bp_boundedness_probe(build_family(spec, pot, [8, 16]), spec, 12)
    assert probe.bp.status == "SATISFIED"
    assert probe.fit_letters == (1, 2, 3, 4, 5)
    assert probe.slope < 0
    assert probe.verdict == INCONCLUSIVE
    assert "floors trend downward" in probe.note
    assert probe.floor is None and probe.consistent


def test_probe_inconclusive_when_bp_is_undecided():
    # an oracle shift only ever refutes BP, so a satisfied one stays undecided
    spec = ShiftSpec(kind="oracle", membership=lambda i, j: i == 0 or i == j + 1)
    pot = PotentialSpec(depth=1, tail_kind="linear", tail_scale=1.0, table={(0,): 0.0})
    probe = bp_boundedness_probe(build_family(spec, pot, [4, 8]), spec, 6)
    assert probe.bp.status == "UNDECIDED"
    assert probe.verdict == INCONCLUSIVE
    assert probe.note == "the entry-set check was undecided within its horizon"
    assert probe.consistent


def test_probe_bounded_on_the_full_shift():
    spec = ShiftSpec(kind="full", alphabet_size=13)
    pot = PotentialSpec(
        depth=1, tail_kind="linear", tail_scale=1.0, table={(0,): 0.0}
    )
    family = build_family(spec, pot, [6, 12])
    probe = bp_boundedness_probe(family, spec, 10)
    assert probe.bp.status == "SATISFIED"
    assert probe.verdict == BOUNDED
    assert probe.floor == 0.0
    assert set(probe.floors.values()) == {0.0}
    assert probe.consistent


def test_probe_scan_must_fit_the_final_stage(renewal_spec, renewal_pot):
    family = build_family(renewal_spec, renewal_pot, [6, 12])
    with pytest.raises(FamilyError):
        bp_boundedness_probe(family, renewal_spec, 20)
    with pytest.raises(ValueError):
        bp_boundedness_probe(family, renewal_spec, -1)


def test_no_stage_builds_the_bound_report(renewal_spec, renewal_pot, monkeypatch):
    # a family reads the barrier's values only; the bounds are built when read
    def refuse(*args):
        raise AssertionError("the bound report was built")

    monkeypatch.setattr(barrier, "_bound_report", refuse)
    for _ in "cold", "warm":
        family = build_family(renewal_spec, renewal_pot, [6, 12, 24])
        bp_boundedness_probe(family, renewal_spec, 23)
        stabilization_experiment(family, [1, 3])
    assert all(stage.from_cache for stage in family.stages)


@st.composite
def _fits(draw):
    """Letters and floors shaped like the probe's fit: distinct sorted letters,
    floors of magnitude 1e-3 to 1e6 or zero."""
    x = sorted(draw(st.lists(st.integers(0, 400), min_size=2, max_size=40, unique=True)))
    value = st.one_of(st.just(0.0), st.floats(1e-3, 1e6), st.floats(-1e6, -1e-3))
    return x, draw(st.lists(value, min_size=len(x), max_size=len(x)))


@given(_fits())
def test_probe_slope_is_the_least_squares_slope(fit):
    x, y = fit
    expected = statistics.linear_regression(x, y).slope
    if sys.version_info[:2] == (3, 11):
        assert _slope(x, y) == expected
    else:
        # later stdlibs sum the products with sumprod and differ in the last bits; a
        # near-zero slope magnifies that, so the tolerance is on the fit's own scale
        xbar, ybar = math.fsum(x) / len(x), math.fsum(y) / len(y)
        syy = math.fsum((v - ybar) ** 2 for v in y)
        scale = math.sqrt(syy / math.fsum((v - xbar) ** 2 for v in x))
        assert math.isclose(_slope(x, y), expected, rel_tol=1e-12, abs_tol=1e-12 * scale)
