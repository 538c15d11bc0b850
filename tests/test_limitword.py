"""Boolean limit words: algebra laws, idempotents, iteration, recurrence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaktight import LimitWord, ValidationError, letter_abstraction
from leaktight.limitword import RecurrencePartition
from leaktight.zoo import det1, fig3

from .helpers import (
    limit_word_pairs,
    limit_word_triples,
    limit_words,
    seeded_automaton,
    seeded_closure,
)


# ---------------------------------------------------------------------------
# Construction and basic queries


def test_rejects_dead_end_row() -> None:
    with pytest.raises(ValidationError, match="dead-end"):
        LimitWord(2, (0b01, 0b00))


def test_rejects_out_of_range_bits() -> None:
    with pytest.raises(ValidationError):
        LimitWord(2, (0b101, 0b01))


def test_identity_and_membership() -> None:
    e = LimitWord.identity(3)
    assert e.rows == (0b001, 0b010, 0b100)
    assert (0, 0) in e and (0, 1) not in e


def test_rows_given_as_a_list_are_stored_as_a_tuple() -> None:
    u = LimitWord(2, [0b01, 0b10])
    e = LimitWord.identity(2)
    assert u.rows == (0b01, 0b10)
    assert u == e and hash(u) == hash(e) and u in {e}
    assert u.is_idempotent()
    assert u.iterate() == e
    assert u.recurrent_states() == frozenset({0, 1})


def test_render_names_states() -> None:
    u = LimitWord(2, (0b11, 0b01))
    text = u.render(("p", "q"))
    assert "p -> {p,q}" in text
    assert "q -> {p}" in text


def test_sort_key_is_row_major_bit_order() -> None:
    small = LimitWord(2, (0b01, 0b01))
    large = LimitWord(2, (0b11, 0b01))
    assert small.sort_key() < large.sort_key()
    # identity rows (0,), (1,) sort after ({0,1}, {0}) only by bit tuples,
    # not by raw integers: row {1} = int 2 > row {0,1} = int 3 is irrelevant.
    assert LimitWord.identity(2).sort_key() == ((1, 0), (0, 1))


# ---------------------------------------------------------------------------
# Concatenation is a monoid


@settings(max_examples=120)
@given(limit_word_triples())
def test_concat_associative(
    triple: tuple[LimitWord, LimitWord, LimitWord]
) -> None:
    u, v, w = triple
    assert u.concat(v).concat(w) == u.concat(v.concat(w))


@settings(max_examples=80)
@given(limit_words())
def test_concat_identity(u: LimitWord) -> None:
    e = LimitWord.identity(u.dim)
    assert u.concat(e) == u
    assert e.concat(u) == u


@settings(max_examples=80)
@given(limit_word_pairs())
def test_concat_is_boolean_matrix_product(pair: tuple[LimitWord, LimitWord]) -> None:
    u, v = pair
    w = u.concat(v)
    for s in range(u.dim):
        for t in range(u.dim):
            expected = any((s, r) in u and (r, t) in v for r in range(u.dim))
            assert ((s, t) in w) == expected


def test_concat_dimension_mismatch() -> None:
    with pytest.raises(ValidationError):
        LimitWord.identity(2).concat(LimitWord.identity(3))


# ---------------------------------------------------------------------------
# Idempotent power


@settings(max_examples=100)
@given(limit_words())
def test_power_to_idempotent(u: LimitWord) -> None:
    p = u.power_to_idempotent()
    assert p.is_idempotent()
    # p is a power of u
    acc = u
    seen = {acc}
    while acc != p:
        acc = acc.concat(u)
        assert acc not in seen or acc == p, "cycled past the idempotent power"
        seen.add(acc)


@settings(max_examples=60)
@given(limit_words())
def test_idempotent_power_equals_factorial_power(u: LimitWord) -> None:
    import math

    k = math.factorial(u.dim)
    power = LimitWord.identity(u.dim)
    for _ in range(k):
        power = power.concat(u)
    assert power == u.power_to_idempotent()


# ---------------------------------------------------------------------------
# Recurrence and iteration


def test_recurrent_states_requires_idempotent() -> None:
    u = LimitWord(2, (0b10, 0b01))  # swap, not idempotent
    with pytest.raises(ValidationError, match="precondition violation"):
        u.recurrent_states()
    with pytest.raises(ValidationError, match="precondition violation"):
        u.iterate()
    with pytest.raises(ValidationError, match="precondition violation"):
        u.recurrence_classes()


def test_fig3_letter_abstractions() -> None:
    a = fig3()
    ua = letter_abstraction(a, "a")
    ub = letter_abstraction(a, "b")
    assert ua.rows == (0b11, 0b10)
    assert ub.rows == (0b01, 0b01)


def test_fig3_iterate_golden() -> None:
    ua = letter_abstraction(fig3(), "a")
    assert ua.is_idempotent()
    assert ua.recurrent_states() == frozenset({1})
    sharp = ua.iterate()
    assert sharp.rows == (0b10, 0b10)


def test_recurrence_classes_fig3() -> None:
    ua = letter_abstraction(fig3(), "a")
    partition = ua.recurrence_classes()
    assert partition.classes == (frozenset({0}), frozenset({1}))
    assert partition.recurrent == frozenset({1})


def test_recurrence_partition_validates() -> None:
    with pytest.raises(ValidationError):
        RecurrencePartition(
            recurrent=frozenset({0}),
            classes=(frozenset({0}), frozenset({0})),
        )


def test_recurrence_partition_given_as_a_list_or_set_is_stored_frozen() -> None:
    built = letter_abstraction(fig3(), "a").recurrence_classes()
    listed = RecurrencePartition(set(built.recurrent), list(built.classes))
    assert listed == built and hash(listed) == hash(built) and listed in {built}
    assert listed.classes == (frozenset({0}), frozenset({1}))


@settings(max_examples=100)
@given(limit_words())
def test_iterate_laws_on_arbitrary_idempotents(u: LimitWord) -> None:
    e = u.power_to_idempotent()
    sharp = e.iterate()
    assert sharp.is_idempotent()
    assert sharp.concat(e) == sharp
    assert e.concat(sharp) == sharp
    assert sharp.iterate() == sharp
    # edges only shrink, diagonal keeps exactly the recurrent states
    for s in range(e.dim):
        assert sharp.rows[s] & ~e.rows[s] == 0


@settings(max_examples=100)
@given(limit_words())
def test_recurrence_classes_cover_diagonal(u: LimitWord) -> None:
    e = u.power_to_idempotent()
    partition = e.recurrence_classes()
    diagonal = {s for s in range(e.dim) if (s, s) in e}
    assert set().union(*partition.classes) == diagonal if partition.classes else not diagonal
    for block in partition.classes:
        for s in block:
            for t in block:
                assert (s, t) in e and (t, s) in e


def test_recurrence_uniform_within_class_on_corpus() -> None:
    for seed in range(60):
        closure = seeded_closure(seed)
        for u in closure.elements:
            if not u.is_idempotent():
                continue
            partition = u.recurrence_classes()
            for block in partition.classes:
                flags = {s in partition.recurrent for s in block}
                assert len(flags) == 1


def test_det1_abstraction_is_identity() -> None:
    d = det1()
    for letter in d.alphabet:
        assert letter_abstraction(d, letter) == LimitWord.identity(len(d.states))


def test_abstraction_is_support_of_matrix() -> None:
    for seed in range(40):
        a = seeded_automaton(seed)
        for letter in a.alphabet:
            u = letter_abstraction(a, letter)
            m = a.matrix(letter)
            for s in range(len(a.states)):
                for t in range(len(a.states)):
                    assert ((s, t) in u) == (m[s][t] > 0)
