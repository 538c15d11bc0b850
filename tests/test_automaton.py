"""Core automaton type: validation, exact arithmetic, JSON format, composition."""

from __future__ import annotations

import dataclasses
import json
import pickle
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaktight import (
    Automaton,
    ValidationError,
    automaton_from_json,
    automaton_to_json,
    decide_leaktight,
    decide_value1,
    parallel_composition,
    parse_automaton,
    synchronized_product,
)
from leaktight.automaton import scaled_identity, scaled_power, scaled_product
from leaktight.zoo import det1, fig1, fig3, hier2, rnd3, sink

from .helpers import automata, seeded_automaton, words_over

FIXTURES = {
    "fig3": fig3(),
    "fig1": fig1(F(1, 2)),
    "det1": det1(),
    "hier2": hier2(),
    "sink": sink(),
    "rnd3": rnd3(),
}


# ---------------------------------------------------------------------------
# Validation


def test_rejects_bad_row_sum() -> None:
    with pytest.raises(ValidationError, match="row sum"):
        Automaton(
            states=("q",),
            alphabet=("a",),
            initial="q",
            final=frozenset(),
            matrices=(((F(1, 2),),),),
        )


def test_rejects_negative_entry() -> None:
    with pytest.raises(ValidationError):
        Automaton(
            states=("q", "r"),
            alphabet=("a",),
            initial="q",
            final=frozenset(),
            matrices=(((F(3, 2), F(-1, 2)), (F(0), F(1))),),
        )


def test_rejects_unknown_initial_and_final() -> None:
    with pytest.raises(ValidationError):
        Automaton(
            states=("q",),
            alphabet=("a",),
            initial="nope",
            final=frozenset(),
            matrices=(((F(1),),),),
        )
    with pytest.raises(ValidationError):
        Automaton(
            states=("q",),
            alphabet=("a",),
            initial="q",
            final=frozenset({"nope"}),
            matrices=(((F(1),),),),
        )


def test_rejects_duplicate_names_and_arity_mismatch() -> None:
    with pytest.raises(ValidationError):
        Automaton(
            states=("q", "q"),
            alphabet=("a",),
            initial="q",
            final=frozenset(),
            matrices=(((F(1), F(0)), (F(0), F(1))),),
        )
    with pytest.raises(ValidationError):
        Automaton(
            states=("q",),
            alphabet=("a", "b"),
            initial="q",
            final=frozenset(),
            matrices=(((F(1),),),),
        )


def test_fields_given_as_lists_or_sets_are_stored_frozen() -> None:
    a = fig3()
    listed = Automaton(
        states=list(a.states),
        alphabet=list(a.alphabet),
        initial=a.initial,
        final=set(a.final),
        matrices=[[list(row) for row in matrix] for matrix in a.matrices],
    )
    assert listed == a and hash(listed) == hash(a) and listed in {a}
    assert repr(listed) == repr(a)
    assert type(listed.final) is frozenset
    assert listed.matrices == a.matrices
    assert all(type(row) is tuple for m in listed.matrices for row in m)
    assert automaton_to_json(listed) == automaton_to_json(a)


def test_unknown_letter_raises() -> None:
    with pytest.raises(ValidationError, match="unknown letter"):
        fig3().matrix("z")


def test_stored_scaled_letters_change_nothing_visible() -> None:
    a = fig3()
    b = automaton_from_json(automaton_to_json(a))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert repr(a) == (
        "Automaton(states=('0', '1'), alphabet=('a', 'b'), initial='0', "
        "final=frozenset({'1'}), matrices=((("
        "Fraction(1, 2), Fraction(1, 2)), (Fraction(0, 1), Fraction(1, 1))), "
        "((Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1)))))"
    )
    assert a != dataclasses.replace(a, final=frozenset())
    for copy in (pickle.loads(pickle.dumps(a)), dataclasses.replace(a)):
        assert copy == a and hash(copy) == hash(a) and repr(copy) == repr(a)
        for letter in a.alphabet:
            assert copy.scaled_matrix(letter) == a.scaled_matrix(letter)
    swapped = dataclasses.replace(a, matrices=a.matrices[::-1])
    assert swapped.scaled_matrix("a") == a.scaled_matrix("b")
    assert swapped.scaled_matrix("b") == a.scaled_matrix("a")
    half = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    with pytest.raises(ValidationError, match=r"letter 'b', state '0': row sum 3/2"):
        dataclasses.replace(a, matrices=(half, ((F(1), F(1, 2)), (F(1), F(0)))))
    with pytest.raises(ValueError):
        dataclasses.replace(a, _scaled_letters=())


# ---------------------------------------------------------------------------
# Exact evaluation (hand-checked goldens)


def test_word_matrix_goldens() -> None:
    a = fig3()
    assert a.word_matrix(()) == ((F(1), F(0)), (F(0), F(1)))
    ab = a.word_matrix(("a", "b"))
    assert ab[0] == (F(1), F(0))
    assert ab[1] == (F(1), F(0))
    aa = a.word_matrix(("a", "a"))
    assert aa[0] == (F(1, 4), F(3, 4))


def test_acceptance_goldens() -> None:
    a = fig3()
    assert a.acceptance_probability(("a",)) == F(1, 2)
    assert a.acceptance_probability(("a", "a")) == F(3, 4)
    d = det1()
    for word in ((), ("a",), ("a",) * 5):
        assert d.acceptance_probability(word) == 1


def test_min_transition_probability() -> None:
    assert fig3().min_transition_probability == F(1, 2)
    assert det1().min_transition_probability == 1
    assert fig1(F(1, 3)).min_transition_probability == F(1, 3)


@settings(max_examples=60)
@given(automata(), st.data())
def test_word_matrix_rows_are_stochastic(a: Automaton, data: st.DataObject) -> None:
    word = data.draw(words_over(a))
    for row in a.word_matrix(word):
        assert sum(row) == 1
        assert all(entry >= 0 for entry in row)


@settings(max_examples=60)
@given(automata(), st.data())
def test_acceptance_matches_word_matrix(a: Automaton, data: st.DataObject) -> None:
    word = data.draw(words_over(a))
    row = a.word_matrix(word)[a.state_index[a.initial]]
    recomputed = sum((row[f] for f in a.final_indices), start=F(0))
    assert a.acceptance_probability(word) == recomputed


def test_matrix_power_matches_iterated_product() -> None:
    m = fig3().scaled_matrix("a")
    acc = scaled_identity(2)
    for k in range(6):
        assert scaled_power(m, k) == acc
        acc = scaled_product(acc, m)


# ---------------------------------------------------------------------------
# JSON interchange


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_json_round_trip(name: str) -> None:
    a = FIXTURES[name]
    assert automaton_from_json(automaton_to_json(a)) == a


def test_json_omits_zero_entries() -> None:
    payload = automaton_to_json(fig3())
    for triples in payload["transitions"].values():
        for _, _, probability in triples:
            assert F(probability) != 0


def test_parse_reports_syntax_position() -> None:
    with pytest.raises(ValidationError, match=r"syntax error at line \d+ column \d+"):
        parse_automaton("{not json")


def test_json_rejects_bad_probability_types() -> None:
    payload = automaton_to_json(fig3())
    bad = json.loads(json.dumps(payload))
    bad["transitions"]["a"][0][2] = 0.5
    with pytest.raises(ValidationError):
        automaton_from_json(bad)
    bad["transitions"]["a"][0][2] = True
    with pytest.raises(ValidationError):
        automaton_from_json(bad)


def _document(probability: object) -> dict:
    return {
        "states": ["p", "q"],
        "alphabet": ["a"],
        "initial": "p",
        "final": ["q"],
        "transitions": {"a": [["p", "p", probability], ["q", "q", "1"]]},
    }


# Texts that `Fraction` reads but whose value could not be printed.  An
# exponent above 4,300 in magnitude is refused before `Fraction` builds the
# power (`1e-10000000` took it seconds), a longer value after.
HUGE_EXPONENTS = {
    "1e5000": "exponent of magnitude above 4300",
    "1e-3000000": "exponent of magnitude above 4300",
    "1e-10000000": "exponent of magnitude above 4300",
    "1E+4301": "exponent of magnitude above 4300",
    "1e-4_301": "exponent of magnitude above 4300",
    "1e-4300": "more than 4300 digits",
    "0." + "0" * 4299 + "1": "more than 4300 digits",
}


@pytest.mark.parametrize("text", sorted(HUGE_EXPONENTS), ids=lambda t: t[:12])
def test_json_rejects_probabilities_too_long_to_print(text: str) -> None:
    started = time.perf_counter()
    with pytest.raises(ValidationError) as raised:
        automaton_from_json(_document(text))
    assert time.perf_counter() - started < 1
    assert str(raised.value) == f"bad probability {text!r}: {HUGE_EXPONENTS[text]}"


@pytest.mark.parametrize(
    "text, value",
    [
        ("0.5", F(1, 2)),
        ("5e-1", F(1, 2)),
        ("1E-3", F(1, 1000)),
        ("1/2", F(1, 2)),
        ("25e-2", F(1, 4)),
        ("1e-4299", F(1, 10**4299)),
        (" 1e0 ", F(1)),
    ],
)
def test_json_reads_exponent_and_decimal_notation(text: str, value: F) -> None:
    document = _document(text)
    document["transitions"]["a"].append(["p", "q", str(1 - value)])
    assert automaton_from_json(document).matrix("a")[0] == (value, 1 - value)


def test_equal_probability_texts_share_one_fraction() -> None:
    states = [f"s{i}" for i in range(4)]
    triples = [[s, t, "1/4"] for s in states for t in states]
    document = {
        "states": states,
        "alphabet": ["a", "b"],
        "initial": "s0",
        "final": ["s3"],
        "transitions": {"a": triples, "b": triples[::-1]},
    }
    a = automaton_from_json(document)
    assert len({id(entry) for m in a.matrices for row in m for entry in row}) == 1
    fresh = Automaton(
        a.states,
        a.alphabet,
        a.initial,
        a.final,
        tuple(
            tuple(tuple(F(1, 4) for _ in row) for row in matrix)
            for matrix in a.matrices
        ),
    )
    assert a == fresh
    assert a._scaled_letters == fresh._scaled_letters
    assert a._sparse_letters == fresh._sparse_letters


def test_json_rejects_duplicate_transition() -> None:
    payload = automaton_to_json(fig3())
    payload["transitions"]["a"].append(payload["transitions"]["a"][0])
    with pytest.raises(ValidationError, match="duplicate"):
        automaton_from_json(payload)


# Documents that are not in the interchange format: a field that must be an
# array holds something else, or a state is named by a non-string.  Each must
# be refused with a ValidationError, neither crash nor be read some other way.
MALFORMED = {
    "states-number": ({"states": 5}, "states must be an array"),
    "states-string": ({"states": "pq"}, "states must be an array"),
    "alphabet-string": ({"alphabet": "ab"}, "alphabet must be an array"),
    "final-number": ({"final": 3}, "final must be an array"),
    "final-string": ({"final": "p"}, "final must be an array"),
    "final-nested": ({"final": [["p"]]}, "final must be an array of state names"),
    "transitions-number": ({"transitions": {"a": 5}}, "'a': transitions must be an array"),
    "transition-string": (
        {"transitions": {"a": ["pp1"]}},
        "each transition must be",
    ),
    "source-array": (
        {"transitions": {"a": [[["p"], "p", "1"]]}},
        "state name must be a string",
    ),
    "target-number": (
        {"transitions": {"a": [["p", 0, "1"]]}},
        "state name must be a string",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_json_rejects_malformed_documents(name: str) -> None:
    change, message = MALFORMED[name]
    document = {
        "states": ["p"],
        "alphabet": ["a"],
        "initial": "p",
        "final": ["p"],
        "transitions": {"a": [["p", "p", "1"]]},
    }
    automaton_from_json(document)
    with pytest.raises(ValidationError, match=message):
        automaton_from_json({**document, **change})


# ---------------------------------------------------------------------------
# Composition


def test_parallel_composition_shape() -> None:
    c = parallel_composition(fig3(), fig3())
    assert len(c.states) == 5
    d = parallel_composition(det1(), det1())
    assert len(d.states) == 3
    assert decide_value1(d).value1


def test_parallel_composition_initial_rows() -> None:
    c = parallel_composition(fig3(), det1())
    i = c.state_index[c.initial]
    for letter in c.alphabet:
        row = c.matrix(letter)[i]
        assert sorted(entry for entry in row if entry) == [F(1, 3)] * 3


def test_parallel_requires_shared_alphabet() -> None:
    other = Automaton(
        states=("q",),
        alphabet=("z",),
        initial="q",
        final=frozenset(),
        matrices=(((F(1),),),),
    )
    with pytest.raises(ValidationError, match="alphabet"):
        parallel_composition(fig3(), other)
    with pytest.raises(ValidationError, match="alphabet"):
        synchronized_product(fig3(), other)


def test_synchronized_product_shape() -> None:
    p = synchronized_product(det1(), det1())
    assert len(p.states) == 1
    assert decide_value1(p).value1
    q = synchronized_product(fig3(), fig3())
    assert len(q.states) == 4
    for letter in q.alphabet:
        for row in q.matrix(letter):
            assert sum(row) == 1


@settings(max_examples=40)
@given(automata(max_states=3), automata(max_states=3), st.data())
def test_product_acceptance_is_pointwise_product(
    a: Automaton, b: Automaton, data: st.DataObject
) -> None:
    word = data.draw(words_over(a, max_size=5))
    if set(a.alphabet) != set(b.alphabet):
        return
    p = synchronized_product(a, b)
    assert p.acceptance_probability(word) == a.acceptance_probability(
        word
    ) * b.acceptance_probability(word)


def test_compositions_validate_on_corpus_sample() -> None:
    for seed in range(0, 40):
        a = seeded_automaton(seed)
        b = seeded_automaton(seed + 1)
        if set(a.alphabet) != set(b.alphabet):
            continue
        parallel_composition(a, b)
        synchronized_product(a, b)


def test_composition_preserves_leaktightness_on_fixtures() -> None:
    for a, b in ((fig3(), det1()), (fig3(), fig3()), (det1(), det1())):
        assert decide_leaktight(parallel_composition(a, b)).leaktight
        assert decide_leaktight(synchronized_product(a, b)).leaktight


def test_row_sums_on_corpus_words() -> None:
    rng = random.Random(99)
    for seed in range(100):
        a = seeded_automaton(seed)
        word = tuple(rng.choice(a.alphabet) for _ in range(rng.randrange(0, 9)))
        for row in a.word_matrix(word):
            assert sum(row) == 1
