"""Extended closure of (limit, support) pairs and leak detection."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings

from leaktight import (
    ExtendedLimitWord,
    LimitWord,
    ValidationError,
    decide_leaktight,
    extended_markov_monoid,
    find_leak_witness,
    markov_monoid,
    parse_expression,
)
from leaktight.zoo import det1, fig1, fig3, hier2, rnd3, sink

from .helpers import automata, corpus, seeded_closure, seeded_extended


# ---------------------------------------------------------------------------
# Pair type


def test_pair_requires_word_below_support() -> None:
    word = LimitWord(2, (0b11, 0b10))
    support = LimitWord(2, (0b01, 0b10))
    with pytest.raises(ValidationError, match="missing from the support"):
        ExtendedLimitWord(word=word, support=support)


def test_pair_concat_is_componentwise() -> None:
    a = fig3()
    ext = extended_markov_monoid(a)
    pairs = list(ext.elements)
    for x in pairs:
        for y in pairs:
            z = x.concat(y)
            assert z.word == x.word.concat(y.word)
            assert z.support == x.support.concat(y.support)


def test_pair_iterate_touches_only_word() -> None:
    a = fig3()
    ext = extended_markov_monoid(a)
    for pair in ext.elements:
        if pair.is_idempotent():
            sharp = pair.iterate()
            assert sharp.word == pair.word.iterate()
            assert sharp.support == pair.support
        else:
            with pytest.raises(ValidationError, match="precondition violation"):
                pair.iterate()


def test_pair_idempotent_requires_both_components() -> None:
    word = LimitWord(2, (0b10, 0b10))
    support = LimitWord(2, (0b11, 0b11))
    mixed = ExtendedLimitWord(word=word, support=support)
    assert word.is_idempotent() and support.is_idempotent()
    assert mixed.is_idempotent()
    swap = LimitWord(2, (0b10, 0b01))
    assert not ExtendedLimitWord(word=swap, support=swap).is_idempotent()


# ---------------------------------------------------------------------------
# Extended closure goldens


def test_fig3_extended_golden() -> None:
    a = fig3()
    ext = extended_markov_monoid(a)
    assert len(ext.elements) == 6
    sharp = parse_expression("(a)#", a).word
    ua = parse_expression("a", a).word
    ba = parse_expression("b a", a).word
    pairs = {(p.word, p.support) for p in ext.elements}
    assert (sharp, ua) in pairs
    assert (sharp, ba) in pairs


def assert_projection_is_plain_closure(ext, closure) -> None:
    """The word components are the plain closure, each at its least height."""
    assert ext.projection() == frozenset(closure.elements)
    derived = ext.plain_closure()
    assert markov_monoid(ext).elements == derived.elements
    assert frozenset(derived.elements) == frozenset(closure.elements)
    assert derived.heights == closure.heights
    for word, expression in derived.provenance.items():
        assert expression.word == word
        assert expression.height == derived.heights[word]


@settings(max_examples=60, deadline=None)
@given(automata())
@example(fig3())
@example(det1())
@example(hier2())
@example(rnd3())
@example(fig1(F(1, 2)))
def test_projection_property(a) -> None:
    assert_projection_is_plain_closure(extended_markov_monoid(a), markov_monoid(a))


def test_projection_property_on_corpus() -> None:
    for seed in corpus():
        assert_projection_is_plain_closure(seeded_extended(seed), seeded_closure(seed))


def test_word_below_support_on_corpus() -> None:
    for seed in range(60):
        for pair in seeded_extended(seed).elements:
            for word_row, support_row in zip(pair.word.rows, pair.support.rows):
                assert word_row & ~support_row == 0


# ---------------------------------------------------------------------------
# Leak detection


def test_fig3_and_friends_are_leaktight() -> None:
    for a in (fig3(), det1(), hier2(), rnd3(), sink()):
        report = decide_leaktight(a)
        assert report.leaktight
        assert report.witness is None


def test_fig1_leak_golden() -> None:
    a = fig1(F(1, 2))
    report = decide_leaktight(a)
    assert not report.leaktight
    witness = report.witness
    assert witness is not None
    assert a.states[witness.r] == "L"
    assert a.states[witness.q] == "T"
    pair = witness.element
    assert pair.is_idempotent()
    # r is recurrent in the limit part, the support has r -> q, the limit
    # part has no way back from q to r.
    assert witness.r in pair.word.recurrent_states()
    assert (witness.r, witness.q) in pair.support
    assert (witness.q, witness.r) not in pair.word
    # golden shape: limit part of a#b, support of (ab)^2
    sharp_b = parse_expression("(a)# b", a)
    ab = parse_expression("a b", a)
    assert pair.word == sharp_b.word
    assert pair.support == ab.word.concat(ab.word)


def test_leak_witness_is_stable_across_probabilities() -> None:
    found = set()
    for x in (F(1, 3), F(1, 2), F(2, 3)):
        a = fig1(x)
        witness = find_leak_witness(extended_markov_monoid(a))
        assert witness is not None
        found.add((witness.element, witness.r, witness.q))
    assert len(found) == 1


def test_leak_witness_needs_an_extended_closure() -> None:
    # A plain closure has no supports, and one derived from the extended
    # closure shares its saturation's leaks with pairs outside it.
    a = fig1(F(1, 2))
    extended = extended_markov_monoid(a)
    assert find_leak_witness(extended) is not None
    for closure in (markov_monoid(a), extended.plain_closure()):
        with pytest.raises(ValidationError) as raised:
            find_leak_witness(closure)
        assert str(raised.value) == "find_leak_witness needs an extended closure"


def test_leak_conditions_hold_on_any_reported_witness() -> None:
    for seed in range(120):
        ext = seeded_extended(seed)
        witness = find_leak_witness(ext)
        if witness is None:
            continue
        pair = witness.element
        assert pair.is_idempotent()
        assert witness.r in pair.word.recurrent_states()
        assert (witness.r, witness.q) in pair.support
        assert (witness.q, witness.r) not in pair.word
