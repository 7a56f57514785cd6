import json
import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from peierls import (
    ShiftSpec,
    ShiftSpecError,
    TransitivityError,
    TruncationError,
    admissible,
    check_bi,
    check_bp,
    connecting_word,
    countable,
    covering_core,
    is_admissible_word,
    is_transitive,
    parse_shift_spec,
    transitive_core,
    shift_space,
    truncate,
)

from oracles import oracle_covering_core, oracle_scan_covering_core, oracle_trimmed_letters

GM_JSON = json.dumps(
    {"kind": "explicit-finite", "alphabet_size": 2, "edges": [[0, 0], [0, 1], [1, 0]]}
)


def test_parse_explicit_roundtrip():
    spec = parse_shift_spec(GM_JSON)
    assert spec.kind == "explicit-finite"
    assert spec.alphabet_size == 2
    assert spec.edges == frozenset({(0, 0), (0, 1), (1, 0)})


def test_parse_renewal_and_lambda():
    # lambda is validated, not stored: no result depends on it
    spec = parse_shift_spec('{"kind": "renewal", "renewal": {"a": 2, "b": 0}, "lambda": 0.25}')
    assert spec.renewal_rule == (2, 0)
    assert spec == parse_shift_spec('{"kind": "renewal", "renewal": {"a": 2, "b": 0}}')


@pytest.mark.parametrize(
    "document",
    [
        '{"kind": "banana"}',
        '{"kind": "oracle"}',
        '{"kind": "explicit-finite", "alphabet_size": 2}',
        '{"kind": "explicit-finite", "alphabet_size": 2, "edges": [[0, 5]]}',
        '{"kind": "explicit-finite", "alphabet_size": 3, "edges": [[0, 0], [0, 1], [1, 0]]}',
        '{"kind": "renewal", "renewal": {"a": 0, "b": 0}}',
        '{"kind": "full", "alphabet_size": 2, "lambda": 1.0}',
        '{"kind": "full", "alphabet_size": true}',
        "[]",
        "not json",
    ],
)
def test_parse_rejects(document):
    with pytest.raises(ShiftSpecError):
        parse_shift_spec(document)


def test_renewal_adjacency_rules():
    spec = ShiftSpec(kind="renewal", renewal_rule=(2, 0))
    assert admissible(spec, 0, 0)
    assert admissible(spec, 5, 4)
    assert not admissible(spec, 4, 5)
    # entries are the letters 2n
    assert admissible(spec, 0, 2)
    assert admissible(spec, 0, 6)
    assert not admissible(spec, 0, 3)
    assert not admissible(spec, 0, 1)
    assert not admissible(spec, -1, 0)
    assert is_admissible_word(spec, (0, 4, 3, 2, 1, 0))
    assert not is_admissible_word(spec, (0, 3))


@pytest.mark.parametrize(
    "spec, admitted, refused",
    [
        (ShiftSpec("full", alphabet_size=3), [(0,), (2,), (0, 2, 1)], [(3,), (0, 3), (3, 0)]),
        (parse_shift_spec(GM_JSON), [(0,), (1,), (0, 1, 0)], [(2,), (1, 1), (1, 2), (2, 0)]),
        (ShiftSpec("renewal", renewal_rule=(2, 0)), [(0,), (7,), (1, 0, 2)], [(0, 3), (0, -2)]),
        # a predicate that grants every pair leaves only the alphabet's own range to refuse
        (ShiftSpec("oracle", membership=lambda i, j: True), [(0,), (9,), (9, 0, 5)], [(0, -1)]),
    ],
    ids=["full", "explicit-finite", "renewal", "oracle"],
)
def test_admissible_words_of_each_kind(spec, admitted, refused):
    for word in admitted:
        assert is_admissible_word(spec, word), word
    for word in [(), (-1,), (-1, 0), *refused]:
        assert not is_admissible_word(spec, word), word


def test_full_shift_admits_everything():
    spec = ShiftSpec(kind="full", alphabet_size=3)
    assert all(admissible(spec, i, j) for i in range(3) for j in range(3))
    assert not admissible(spec, 0, 3)


def test_truncate_prunes_stranded_top():
    spec = ShiftSpec(kind="renewal", renewal_rule=(2, 0))
    fin = truncate(spec, 7)
    assert fin.letters == (0, 1, 2, 3, 4, 5, 6)
    assert 6 in fin.succ[0]
    assert 5 not in fin.succ[0]
    assert 7 not in fin.pred


def test_truncate_empty_graph_errors():
    spec = ShiftSpec(kind="renewal", renewal_rule=(3, 1))
    # below the first entry letter 4 nothing but 0 survives, which is fine;
    # an explicit spec with no edges cannot exist, so force emptiness via
    # a renewal whose low letters all strand
    fin = truncate(spec, 2)
    assert fin.letters == (0,)
    with pytest.raises(TruncationError):
        truncate(spec, -1)


@st.composite
def explicit_shifts(draw):
    """A valid explicit-finite spec: every letter gets a drawn out-edge and in-edge."""
    n = draw(st.integers(min_value=1, max_value=8))
    letter = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(letter, letter), max_size=2 * n))
    edges |= {(i, draw(letter)) for i in range(n)} | {(draw(letter), j) for j in range(n)}
    return ShiftSpec(kind="explicit-finite", alphabet_size=n, edges=frozenset(edges))


@settings(max_examples=200, deadline=None)
@given(spec=explicit_shifts(), max_letter=st.integers(min_value=0, max_value=8))
def test_truncate_keeps_what_one_letter_at_a_time_removal_keeps(spec, max_letter):
    kept = oracle_trimmed_letters(spec.edges, range(min(max_letter, spec.alphabet_size - 1) + 1))
    if not kept:
        with pytest.raises(TruncationError):
            truncate(spec, max_letter)
        return
    fin = truncate(spec, max_letter)
    assert fin.letters == tuple(sorted(kept))
    for i in fin.letters:
        assert fin.succ[i] == tuple(j for j in fin.letters if (i, j) in spec.edges)
        assert fin.pred[i] == tuple(j for j in fin.letters if (j, i) in spec.edges)


@settings(max_examples=200, deadline=None)
@given(
    edges=st.sets(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=40),
    path=st.integers(min_value=0, max_value=24),
    max_letter=st.integers(min_value=0, max_value=24),
)
def test_truncate_keeps_what_one_letter_at_a_time_removal_keeps_on_oracle_shifts(
    edges, path, max_letter
):
    # a path 0 -> 1 -> ... -> path strands from both ends, one letter per removal
    edges = frozenset(edges | {(i, i + 1) for i in range(path)})
    spec = ShiftSpec(kind="oracle", membership=lambda i, j: (i, j) in edges)
    kept = oracle_trimmed_letters(edges, range(max_letter + 1))
    if not kept:
        with pytest.raises(TruncationError):
            truncate(spec, max_letter)
        return
    fin = truncate(spec, max_letter)
    assert fin.letters == tuple(sorted(kept))
    assert all(fin.succ[i] == tuple(j for j in fin.letters if (i, j) in edges) for i in kept)


def ring(n):
    edges = frozenset((i, (i + 1) % n) for i in range(n))
    return ShiftSpec(kind="explicit-finite", alphabet_size=n, edges=edges)


def test_explicit_truncations_read_their_edge_list_not_the_pair_rule():
    # the cut strands 44, then 43, ..., down to the loop at 0; asking the pair rule would
    # take 45 * 45 calls
    spec = ring(50)._replace(edges=ring(50).edges | {(0, 0)})
    with mock.patch.object(shift_space, "admissible", side_effect=AssertionError("asked")):
        fin = truncate(spec, 44)
        whole = truncate(spec, 49)
    assert (fin.letters, fin.succ, fin.pred) == ((0,), {0: (0,)}, {0: (0,)})
    assert whole.letters == tuple(range(50))
    assert (whole.succ[0], whole.pred[0]) == ((0, 1), (0, 49))


def test_covering_core_on_a_ring_doubles_then_bisects():
    # a ring's cut holds no cycle below its top letter, so a scan tried all 800 bounds
    with mock.patch.object(countable, "truncate", wraps=truncate) as spy:
        core = covering_core(ring(800), [0])
    assert core.letters == tuple(range(800))
    assert spy.call_count <= 2 * math.ceil(math.log2(800)) + 2


def test_covering_probes_skip_explicit_cuts_that_strand_a_requested_letter():
    # 0's least predecessor is 19,999, so every cut below it strands 0 and goes unbuilt;
    # truncating each probed bound took 26 cuts
    with mock.patch.object(countable, "truncate", wraps=truncate) as spy:
        core = covering_core(ring(20_000), [0])
    assert core.letters == tuple(range(20_000))
    assert spy.call_count == 1


@st.composite
def searched_shifts(draw):
    """An explicit-finite or oracle shift on letters 0..n-1, some of whose cycles close
    only at high letters, with letters to cover and a size limit.  An oracle shift always
    gets a limit of at most 1,000, its cut's pairs: the one-letter scan up to the default
    limit would ask the predicate about some 4*10^7 pairs."""
    n = draw(st.integers(min_value=2, max_value=30))
    letter = st.integers(0, n - 1)
    edges = set(draw(st.sets(st.tuples(letter, letter), max_size=n)))
    for _ in range(draw(st.integers(0, 3))):  # climb through some letters, then drop back
        cycle = sorted(draw(st.sets(letter, min_size=1, max_size=6)))
        edges |= set(zip(cycle, cycle[1:] + cycle[:1]))
    if draw(st.booleans()):
        spec = ShiftSpec(kind="oracle", membership=lambda i, j: (i, j) in edges)
        limit = draw(st.integers(min_value=1, max_value=1000))
    else:  # every letter needs an in- and an out-edge: a loop where one is missing
        edges |= {(i, i) for i in range(n) if not any(i in e for e in edges)}
        edges |= {(i, i) for i in range(n) if not any(e[0] == i for e in edges)}
        edges |= {(i, i) for i in range(n) if not any(e[1] == i for e in edges)}
        spec = ShiftSpec(kind="explicit-finite", alphabet_size=n, edges=frozenset(edges))
        limit = draw(st.none() | st.integers(min_value=1, max_value=40))
    wanted = draw(st.sets(st.integers(0, n + 2), min_size=1, max_size=4))
    return spec, wanted, limit


@settings(max_examples=300, deadline=None)
@given(case=searched_shifts())
def test_covering_core_ends_where_the_one_letter_scan_ends(case):
    spec, wanted, limit = case
    assume(limit is None or len(wanted) <= limit)

    def outcome(search):
        try:
            core = search(spec, wanted)
        except TruncationError as exc:
            return str(exc)
        return core.letters, core.succ, core.pred

    limit = limit or shift_space._SIZE_LIMIT
    with mock.patch.object(shift_space, "_SIZE_LIMIT", limit), mock.patch.object(
        countable, "_SIZE_LIMIT", limit
    ):
        assert outcome(covering_core) == outcome(oracle_scan_covering_core)


def test_transitive_core_splits_components():
    spec = ShiftSpec(
        kind="explicit-finite",
        alphabet_size=2,
        edges=frozenset({(0, 0), (0, 1), (1, 1)}),
    )
    fin = truncate(spec, 1)
    assert not is_transitive(fin)
    with pytest.raises(TransitivityError, match=r"split across 2 components: \[0\], \[1\]$"):
        transitive_core(fin, [0, 1])
    assert transitive_core(fin, [0]).letters == (0,)
    assert transitive_core(fin, [1]).letters == (1,)


def test_a_one_component_truncation_is_its_own_core(renewal_spec):
    for fin in (truncate(ring(6), 5), truncate(renewal_spec, 8)):
        assert transitive_core(fin, fin.letters) is fin
        assert transitive_core(fin, [0]) is fin


def test_covering_core_advances_past_stranded_bound(renewal_spec):
    core = covering_core(renewal_spec, range(8))
    assert core.letters == tuple(range(9))
    assert is_transitive(core)


def test_covering_core_starts_renewal_search_at_an_entry_letter():
    # the next entry letter lies past the one-letter-at-a-time budget
    for rule, wanted, top in (((100, 0), range(11), 100), ((70, 0), range(2), 70)):
        core = covering_core(ShiftSpec(kind="renewal", renewal_rule=rule), wanted)
        assert core.letters == tuple(range(top + 1))


def test_renewal_covering_cores_match_the_search_oracle():
    def facts(core):
        return core.letters, core.succ, core.pred

    for a in range(1, 7):
        for b in range(6):
            spec = ShiftSpec(kind="renewal", renewal_rule=(a, b))
            for top in range(61):
                core = covering_core(spec, range(top + 1))
                assert facts(core) == facts(oracle_covering_core(spec, range(top + 1)))


def test_covering_core_budget_exhausted():
    # letter 1 is entered only down the chain 1000 -> 999 -> ... -> 1, and a cut of an
    # oracle shift asks about every pair, so the search ends at the size limit, as a
    # 1,000-letter full shift's does; with the chain from 300 it covers
    def chain_from(top):
        return ShiftSpec(
            kind="oracle",
            membership=lambda i, j: (i == j == 0) or j == i - 1 or (i == 0 and j == top),
        )

    with pytest.raises(TruncationError) as info:
        covering_core(chain_from(1000), range(2))
    assert str(info.value) == "251001 edges among letters 0..500 exceed the size limit of 250000"
    assert covering_core(chain_from(300), range(2)).letters == tuple(range(301))


def test_covering_core_searches_a_finite_alphabet_to_its_top():
    # letters 0..3 lie on the cycle 0 -> 1 -> ... -> 5 -> 99 -> 0, which closes only
    # at bound 99
    edges = {(i, i + 1) for i in range(5)} | {(5, 99), (99, 0)} | {(i, i) for i in range(6, 99)}
    spec = ShiftSpec(kind="explicit-finite", alphabet_size=100, edges=frozenset(edges))
    core = covering_core(spec, range(4))
    assert core.letters == (0, 1, 2, 3, 4, 5, 99)


def test_covering_core_stops_at_the_size_limit():
    # every bound from 600 up passes the limit, so the search must not try the next one
    spec = ShiftSpec(kind="full", alphabet_size=1000)
    with pytest.raises(TruncationError) as info:
        covering_core(spec, range(601))
    assert str(info.value) == "361201 edges among letters 0..600 exceed the size limit of 250000"


def test_an_explicit_alphabet_past_the_size_limit_is_a_spec_error():
    with pytest.raises(ShiftSpecError) as info:
        ShiftSpec(kind="explicit-finite", alphabet_size=250_001, edges=frozenset({(0, 0)}))
    assert str(info.value) == "250001 letters of the alphabet exceed the size limit of 250000"


def test_covering_core_refuses_too_many_no_or_negative_letters(gm_spec):
    # 250,001 letters are counted one past the limit, never built in full
    with pytest.raises(TruncationError, match="^letters to cover number more than the size limit"):
        covering_core(gm_spec, range(250_001))
    for letters in ([], [-1]):
        with pytest.raises(ValueError, match="^letters to cover must be a nonempty set of"):
            covering_core(gm_spec, letters)


def test_connecting_word_gm(gm_finite):
    assert connecting_word(gm_finite, 1, 0) == ()
    assert connecting_word(gm_finite, 0, 1) == ()
    assert connecting_word(gm_finite, 1, 1) == (0,)


def test_connecting_word_prefers_lex_least_shortest():
    spec = ShiftSpec(
        kind="explicit-finite",
        alphabet_size=4,
        edges=frozenset({(0, 1), (1, 3), (0, 2), (2, 3), (3, 0)}),
    )
    fin = truncate(spec, 3)
    assert connecting_word(fin, 0, 3) == (1,)
    assert connecting_word(fin, 3, 3) == (0, 1)


def test_connecting_word_unreachable():
    spec = ShiftSpec(
        kind="explicit-finite",
        alphabet_size=2,
        edges=frozenset({(0, 0), (0, 1), (1, 1)}),
    )
    fin = truncate(spec, 1)
    with pytest.raises(ValueError):
        connecting_word(fin, 1, 0)


def test_connecting_word_needs_both_letters_and_an_out_edge(gm_finite):
    with pytest.raises(ValueError, match="^letters 0, 2 must both lie in the truncation$"):
        connecting_word(gm_finite, 0, 2)
    dead_end = shift_space.FiniteShift((0, 1), {0: (1,), 1: ()}, {0: (), 1: (0,)})
    with pytest.raises(ValueError, match="^letter 1 has no outgoing edge$"):
        connecting_word(dead_end, 1, 0)


def test_check_bp_renewal_even_entries():
    verdict = check_bp(ShiftSpec(kind="renewal", renewal_rule=(2, 0)))
    assert verdict.status == "REFUTED"
    assert verdict.witnesses[:5] == (1, 3, 5, 7, 9)


def test_check_bp_renewal_cofinite_entries():
    verdict = check_bp(ShiftSpec(kind="renewal", renewal_rule=(1, 1)))
    assert verdict.status == "SATISFIED"
    assert verdict.bound == 2
    assert check_bp(ShiftSpec(kind="renewal", renewal_rule=(1, 0))).bound == 0


def test_check_bi_renewal_descending_chain():
    verdict = check_bi(ShiftSpec(kind="renewal", renewal_rule=(1, 1)))
    assert verdict.status == "REFUTED"
    assert 2 in verdict.witnesses


def test_checks_on_finite_kinds(gm_spec):
    assert check_bp(gm_spec).status == "SATISFIED"
    assert check_bi(gm_spec).status == "SATISFIED"
    full = ShiftSpec(kind="full", alphabet_size=4)
    assert check_bp(full).bound == 0
    assert check_bi(full).bound == 0


@pytest.mark.parametrize("check", [check_bp, check_bi])
def test_checks_refuse_a_negative_horizon(gm_spec, check):
    with pytest.raises(ValueError, match="^horizon must be nonnegative$"):
        check(gm_spec, horizon=-1)


def test_oracle_kind_horizon_scan():
    spec = ShiftSpec(kind="oracle", membership=lambda i, j: j != 3)
    verdict = check_bp(spec, horizon=10)
    assert verdict.status == "REFUTED"
    assert verdict.witnesses == (3,)
    assert verdict.detail == "letters with no incoming edge from any source <= 10"
    # letters 1, 5, 9 only step above the horizon
    upward = ShiftSpec(kind="oracle", membership=lambda i, j: j > 10 or i % 4 != 1)
    verdict = check_bi(upward, horizon=10)
    assert verdict.status == "REFUTED"
    assert verdict.witnesses == (1, 5, 9)
    assert verdict.detail == "letters with no outgoing edge to any target <= 10"
    everything = ShiftSpec(kind="oracle", membership=lambda i, j: True)
    verdict = check_bp(everything, horizon=10)
    assert verdict.status == "UNDECIDED"
    assert verdict.detail == (
        "every letter <= 10 has a bounded source, but the alphabet continues"
    )
    verdict = check_bi(everything, horizon=10)
    assert verdict.status == "UNDECIDED"
    assert verdict.detail == (
        "every letter <= 10 has a bounded target, but the alphabet continues"
    )
    nothing = ShiftSpec(kind="oracle", membership=lambda i, j: False)
    assert check_bi(nothing, horizon=40).witnesses == tuple(range(24))


def test_oracle_kind_truncates_like_its_predicate(renewal_spec):
    twin = ShiftSpec(kind="oracle", membership=lambda i, j: admissible(renewal_spec, i, j))
    ours = truncate(twin, 6)
    reference = truncate(renewal_spec, 6)
    assert ours.letters == reference.letters
    assert all(ours.succ[l] == reference.succ[l] for l in ours.letters)


@settings(max_examples=50, deadline=None)
@given(a=st.integers(min_value=1, max_value=5), b=st.integers(min_value=0, max_value=5))
def test_renewal_entry_rule_matches_definition(a, b):
    spec = ShiftSpec(kind="renewal", renewal_rule=(a, b))
    for j in range(40):
        expected = any(a * n + b == j for n in range(1, 41))
        assert admissible(spec, 0, j) == (expected or j == 0)


@settings(max_examples=50, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=4),
    b=st.integers(min_value=0, max_value=4),
    bound=st.integers(min_value=1, max_value=20),
)
def test_truncation_edges_are_admissible(a, b, bound):
    spec = ShiftSpec(kind="renewal", renewal_rule=(a, b))
    try:
        fin = truncate(spec, bound)
    except TruncationError:
        return
    for u in fin.letters:
        for v in fin.succ[u]:
            assert admissible(spec, u, v)
        assert fin.succ[u], "truncation must not keep letters without successors"


@settings(max_examples=30, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=4),
    bound=st.integers(min_value=2, max_value=24),
)
def test_covering_core_is_transitive_superset(a, bound):
    spec = ShiftSpec(kind="renewal", renewal_rule=(a, 0))
    core = covering_core(spec, range(bound + 1))
    assert is_transitive(core)
    assert set(range(bound + 1)) <= set(core.letters)


RENEWAL = ShiftSpec(kind="renewal", renewal_rule=(2, 0))


@pytest.mark.parametrize(
    "record",
    [RENEWAL, truncate(parse_shift_spec(GM_JSON), 1), check_bp(RENEWAL, 10)],
    ids=["ShiftSpec", "FiniteShift", "ConditionVerdict"],
)
def test_records_reject_attribute_assignment(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"kind": "bogus"}, "unknown shift kind 'bogus'"),
        ({"renewal_rule": None}, "renewal shifts need an entry rule (a, b)"),
        ({"kind": "full", "alphabet_size": 0}, "finite kinds need a positive alphabet_size"),
        (
            {"kind": "explicit-finite", "alphabet_size": 2, "edges": frozenset({(0, 2)})},
            "edge (0, 2) uses a letter outside 0..1",
        ),
        (
            {"kind": "explicit-finite", "alphabet_size": 2, "edges": frozenset({(0, 0), (0, 1)})},
            "stranded letters with no loop through them: [1]",
        ),
        (
            {"renewal_rule": (0, 1)},
            "entry rule must have a >= 1 and b >= 0 so entries strictly increase",
        ),
        ({"kind": "oracle"}, "oracle shifts need a membership predicate"),
        (
            {"kind": "explicit-finite", "alphabet_size": 2, "edges": frozenset()},
            "explicit-finite shifts need a nonempty edge list",
        ),
    ],
)
def test_invalid_shift_specs_raise_when_built_and_when_replaced(fields, message):
    with pytest.raises(ShiftSpecError) as built:
        ShiftSpec(**{"kind": "renewal", "renewal_rule": (2, 0), **fields})
    with pytest.raises(ShiftSpecError) as replaced:
        RENEWAL._replace(**fields)
    assert str(built.value) == str(replaced.value) == message


def test_finite_shifts_compare_and_hash_by_identity():
    spec = parse_shift_spec(GM_JSON)
    first, second = truncate(spec, 1), truncate(spec, 1)
    assert tuple(first) == tuple(second)
    assert first == first and not first != first
    assert first != second and not first == second
    assert hash(first) == object.__hash__(first)
    assert len({first, second}) == 2
