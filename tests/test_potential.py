import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from peierls import (
    PotentialError,
    PotentialSpec,
    ShiftSpec,
    ambient_total_variation,
    coercive_letter_bound,
    evaluate,
    parse_potential,
    tail_value,
    truncate,
    validate_table,
    var_j,
)
from peierls.barrier import ambient_var_j, inf_bound_on_letter, sup_bound_on_letter
from peierls.potential import admissible_words


@pytest.fixture
def depth2_pot():
    return PotentialSpec(
        depth=2,
        tail_kind="linear",
        tail_scale=1.0,
        table={(0, 0): 0.0, (0, 1): 3.0, (1, 0): -1.0},
    )


def test_parse_roundtrip():
    pot = parse_potential(
        '{"depth": 2, "tail": {"kind": "log", "c": 2}, '
        '"table": [{"word": [0, 1], "value": -0.5}]}'
    )
    assert pot.depth == 2
    assert pot.tail_kind == "log"
    assert pot.tail_scale == 2.0
    assert pot.table == {(0, 1): -0.5}


@pytest.mark.parametrize(
    "document",
    [
        '{"tail": {"kind": "linear", "c": 1}}',
        '{"depth": 0, "tail": {"kind": "linear", "c": 1}}',
        '{"depth": 1, "tail": {"kind": "cubic", "c": 1}}',
        '{"depth": 1, "tail": {"kind": "linear", "c": 0}}',
        '{"depth": 1, "tail": {"kind": "linear", "c": -2}}',
        '{"depth": 1, "tail": {"kind": "linear", "c": 1}, "table": [{"word": [0, 1], "value": 0}]}',
        '{"depth": 1, "tail": {"kind": "linear", "c": 1}, "table": [{"word": [-1], "value": 0}]}',
        '{"depth": 1, "tail": {"kind": "linear", "c": 1}, '
        '"table": [{"word": [0], "value": 0}, {"word": [0], "value": 1}]}',
        '{"depth": 1, "tail": {"kind": "linear", "c": true}}',
        "{",
    ],
)
def test_parse_rejects(document):
    with pytest.raises(PotentialError):
        parse_potential(document)


def test_validate_table_against_shift():
    spec = ShiftSpec(kind="renewal", renewal_rule=(2, 0))
    good = PotentialSpec(depth=2, tail_kind="linear", tail_scale=1.0, table={(0, 2): 1.0})
    validate_table(good, spec)
    bad = PotentialSpec(depth=2, tail_kind="linear", tail_scale=1.0, table={(0, 3): 1.0})
    with pytest.raises(PotentialError):
        validate_table(bad, spec)


def test_tail_values():
    lin = PotentialSpec(depth=1, tail_kind="linear", tail_scale=2.0)
    assert tail_value(lin, 3) == -6.0
    assert math.copysign(1.0, tail_value(lin, 0)) == 1.0
    log = PotentialSpec(depth=1, tail_kind="log", tail_scale=2.0)
    assert tail_value(log, 0) == 0.0
    assert tail_value(log, 4) == pytest.approx(-2.0 * math.log(5.0))
    with pytest.raises(PotentialError):
        tail_value(lin, -1)


def test_evaluate_table_hit_and_tail_fallback(depth2_pot):
    assert evaluate(depth2_pot, (0, 1)) == 3.0
    assert evaluate(depth2_pot, (0, 1, 0)) == 3.0
    assert evaluate(depth2_pot, (1, 1)) == -1.0  # off table, tail of first letter
    with pytest.raises(PotentialError):
        evaluate(depth2_pot, (0,))


def test_admissible_word_enumeration(gm_finite):
    assert list(admissible_words(gm_finite, 2)) == [(0, 0), (0, 1), (1, 0)]
    assert list(admissible_words(gm_finite, 1)) == [(0,), (1,)]
    for length in range(3, 7):  # every walk, in lexicographic order
        walks = [
            word
            for word in itertools.product(gm_finite.letters, repeat=length)
            if all(b in gm_finite.succ[a] for a, b in zip(word, word[1:]))
        ]
        assert list(admissible_words(gm_finite, length)) == walks


def test_admissible_words_need_a_positive_length(gm_finite):
    with pytest.raises(ValueError, match="^word length must be positive$"):
        admissible_words(gm_finite, 0)


def test_var_and_total_variation(gm_finite, depth2_pot):
    assert var_j(depth2_pot, gm_finite, 1) == 3.0
    assert var_j(depth2_pot, gm_finite, 2) == 0.0
    with pytest.raises(PotentialError):
        var_j(depth2_pot, gm_finite, 0)


def test_letter_extrema_ambient(depth2_pot):
    # ambient bounds fold in the tail value of each letter
    assert sup_bound_on_letter(depth2_pot, 0) == 3.0
    assert inf_bound_on_letter(depth2_pot, 0) == 0.0
    assert inf_bound_on_letter(depth2_pot, 1) == -1.0
    assert sup_bound_on_letter(depth2_pot, 7) == -7.0


def test_ambient_variation_joins_tail(depth2_pot):
    # prefix (0,): table values {0, 3} and tail 0 give spread 3;
    # prefix (1,): table value -1 against tail -1 gives spread 0
    assert ambient_var_j(depth2_pot, 1) == 3.0
    assert ambient_total_variation(depth2_pot) == 3.0
    lifted = PotentialSpec(
        depth=2, tail_kind="linear", tail_scale=1.0, table={(1, 0): 4.0}
    )
    assert ambient_var_j(lifted, 1) == 5.0  # tail(1) = -1 joins the group


def test_coercive_bound_linear():
    pot = PotentialSpec(depth=1, tail_kind="linear", tail_scale=1.0)
    assert coercive_letter_bound(pot, -5.0) == 5
    assert coercive_letter_bound(pot, -5.5) == 5
    assert coercive_letter_bound(pot, 0.0) == 0
    assert coercive_letter_bound(pot, 3.0) == 0  # nothing qualifies, clamped
    # past 2**52 the float tail cannot tell neighbours apart: floor(-t/c), no stepping
    assert coercive_letter_bound(pot, -2e19) == 20000000000000000000
    halved = PotentialSpec(depth=1, tail_kind="linear", tail_scale=0.5)
    assert coercive_letter_bound(halved, -5.0) == 10


@pytest.mark.parametrize("threshold, bound", [(-0.011538461538461537, 8), (-9 / 780, 9)])
def test_coercive_bound_steps_down_when_the_inversion_overshoots(threshold, bound):
    # -t/c reads exactly 9.0, but tail(9) = -0.011538461538461539 falls below the first
    # threshold, so the bound steps down to 8; at the threshold tail(9) itself it stays 9
    pot = PotentialSpec(depth=1, tail_kind="linear", tail_scale=1 / 780)
    assert -threshold / pot.tail_scale == 9.0
    assert coercive_letter_bound(pot, threshold) == bound
    assert sup_bound_on_letter(pot, bound) >= threshold > sup_bound_on_letter(pot, bound + 1)


def test_coercive_bound_table_override():
    pot = PotentialSpec(
        depth=1, tail_kind="linear", tail_scale=1.0, table={(7,): 1.0, (9,): -20.0}
    )
    assert coercive_letter_bound(pot, 0.5) == 7
    assert coercive_letter_bound(pot, -3.0) == 7
    assert coercive_letter_bound(pot, -25.0) == 25


def test_coercive_bound_log():
    pot = PotentialSpec(depth=1, tail_kind="log", tail_scale=2.0)
    assert coercive_letter_bound(pot, -10.0) == 147
    assert tail_value(pot, 147) >= -10.0
    assert tail_value(pot, 148) < -10.0


def test_coercive_bound_log_survives_extreme_thresholds():
    pot = PotentialSpec(depth=1, tail_kind="log", tail_scale=1.0)
    bound = coercive_letter_bound(pot, -700.0)
    assert isinstance(bound, int)
    assert bound > 10**300
    with pytest.raises(PotentialError):
        coercive_letter_bound(pot, float("-inf"))


@settings(max_examples=60, deadline=None)
@given(
    scale=st.sampled_from([0.5, 1.0, 2.0]),
    threshold=st.floats(min_value=-100.0, max_value=10.0),
    table_letter=st.integers(min_value=0, max_value=30),
    table_value=st.floats(min_value=-30.0, max_value=10.0),
)
def test_coercive_bound_contract_linear(scale, threshold, table_letter, table_value):
    pot = PotentialSpec(
        depth=1,
        tail_kind="linear",
        tail_scale=scale,
        table={(table_letter,): table_value},
    )
    bound = coercive_letter_bound(pot, threshold)
    assert bound >= 0
    for j in range(bound + 1, bound + 40):
        assert sup_bound_on_letter(pot, j) < threshold
    if bound > 0:
        assert sup_bound_on_letter(pot, bound) >= threshold


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    depth=st.sampled_from([2, 3]),
    tail_kind=st.sampled_from(["linear", "log"]),
    data=st.data(),
)
def test_var_j_is_bounded_by_its_ambient_form(n, depth, tail_kind, data):
    # the ambient form ignores adjacency, so it bounds the variation of every truncation
    words = st.tuples(*[st.integers(min_value=0, max_value=n - 1)] * depth)
    table = data.draw(st.dictionaries(words, st.floats(min_value=-10.0, max_value=10.0)))
    pot = PotentialSpec(depth=depth, tail_kind=tail_kind, tail_scale=1.5, table=table)
    finite = truncate(ShiftSpec(kind="full", alphabet_size=n), n - 1)
    for j in range(1, depth):
        assert var_j(pot, finite, j) <= ambient_var_j(pot, j)


def test_potential_spec_rejects_attribute_assignment(depth2_pot):
    for name in depth2_pot._fields:
        with pytest.raises(AttributeError):
            setattr(depth2_pot, name, getattr(depth2_pot, name))
    with pytest.raises(AttributeError):
        depth2_pot.extra = None


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"depth": 0}, "depth must be at least 1"),
        ({"tail_kind": "cubic"}, "unknown tail kind 'cubic'"),
        ({"tail_scale": 0.0}, "tail scale c must be a positive finite number"),
        ({"tail_scale": math.inf}, "tail scale c must be a positive finite number"),
        ({"table": {(0, 1): 0.0}}, "table word (0, 1) has length 2, expected depth 1"),
        ({"table": {(-1,): 0.0}}, "table word (-1,) must use nonnegative letters"),
        ({"table": {(0,): math.nan}}, "table value for (0,) must be finite"),
    ],
)
def test_invalid_potential_specs_raise_when_built_and_when_replaced(fields, message):
    valid = PotentialSpec(depth=1, tail_kind="linear", tail_scale=1.0)
    with pytest.raises(PotentialError) as built:
        PotentialSpec(**{**valid._asdict(), **fields})
    with pytest.raises(PotentialError) as replaced:
        valid._replace(**fields)
    assert str(built.value) == str(replaced.value) == message


def test_default_table_is_empty_and_immutable():
    pot = PotentialSpec(depth=1, tail_kind="log", tail_scale=1.0)
    assert pot.table == {}
    with pytest.raises(TypeError):
        pot.table[(0,)] = 1.0
    assert PotentialSpec(depth=1, tail_kind="log", tail_scale=1.0).table == {}
