"""Numeric ground truth: brute force, word families, reified expressions."""

from __future__ import annotations

import math
from fractions import Fraction as F
from random import Random

import pytest

from leaktight import (
    Automaton,
    CapExceeded,
    ValidationError,
    brute_force_value,
    check_consistency,
    check_lower_bound,
    evaluate_family,
    evaluate_family_at,
    expression_matrix,
    family_word,
    markov_monoid,
    extended_markov_monoid,
    parse_expression,
    parse_family,
    reification_exponent,
    reify,
)
from leaktight.generate import random_automaton
from leaktight.oracle import FamilyAtom, FamilyPower, FamilySeq, WordFamily
from leaktight.zoo import det1, fig1, fig3, hier2, rnd3, sink

from .helpers import seeded_automaton, seeded_closure


# ---------------------------------------------------------------------------
# Brute force


def test_brute_force_fixture_values() -> None:
    assert brute_force_value(det1(), max_len=0) == 1
    assert brute_force_value(sink(), max_len=6) == 0
    assert brute_force_value(fig3(), max_len=4) == F(15, 16)
    assert brute_force_value(fig1(F(1, 3)), max_len=10) == F(1, 2)


def test_brute_force_monotone_in_max_len() -> None:
    a = fig3()
    values = [brute_force_value(a, max_len=k) for k in range(7)]
    assert values == sorted(values)
    # fig3 value-1: a^k alone pushes acceptance to 1 - 2^-k
    assert values[6] >= 1 - F(1, 2) ** 6


def test_brute_force_budget() -> None:
    with pytest.raises(CapExceeded, match="budget exceeded"):
        brute_force_value(fig1(F(1, 2)), max_len=30, budget=50)


def test_brute_force_rejects_negative_length() -> None:
    with pytest.raises(ValidationError):
        brute_force_value(fig3(), max_len=-1)


# ---------------------------------------------------------------------------
# Word families


def test_family_parsing_round_trip() -> None:
    family = parse_family("(b a^n)^N")
    assert family.parameters() == frozenset({"N", "n"})
    assert family_word(family, {"n": 2, "N": 2}) == ("b", "a", "a", "b", "a", "a")


def test_family_literal_powers() -> None:
    family = parse_family("a^3 b")
    assert family.parameters() == frozenset()
    assert family_word(family, {}) == ("a", "a", "a", "b")
    # Any Unicode decimal digit string is a natural, as `int` reads it.
    assert parse_family("a^٣ b") == family


def test_family_nested_groups() -> None:
    family = parse_family("((a b)^2 a)^k")
    assert family_word(family, {"k": 2}) == tuple("ababa" * 2)


def test_family_parts_given_as_a_list_are_stored_as_a_tuple() -> None:
    seq = FamilySeq([FamilyAtom("a"), FamilyAtom("b")])
    assert seq.parts == (FamilyAtom("a"), FamilyAtom("b"))
    assert hash(seq) == hash(FamilySeq((FamilyAtom("a"), FamilyAtom("b"))))
    assert family_word(WordFamily(seq)) == ("a", "b")
    assert family_word(WordFamily(FamilyPower(seq, 2))) == tuple("abab")


def test_family_syntax_errors() -> None:
    for bad in ("", "(a", "a^", "a^^2", ")a(", "a^-1", "a^²"):
        with pytest.raises(ValidationError, match="family syntax error at offset"):
            parse_family(bad)


def test_family_unbound_parameter() -> None:
    family = parse_family("a^n")
    with pytest.raises(ValidationError, match="unbound parameter"):
        evaluate_family_at(fig3(), family)


def test_family_evaluation_matches_direct_word() -> None:
    a = fig3()
    family = parse_family("(b a^n)^N")
    for n in (0, 1, 3):
        for big_n in (0, 1, 4):
            bindings = {"n": n, "N": big_n}
            direct = a.acceptance_probability(family_word(family, bindings))
            assert evaluate_family_at(a, family, bindings) == direct


def test_family_grid_evaluation() -> None:
    a = fig3()
    family = parse_family("a^n")
    grid = evaluate_family(a, family, {"n": (0, 1, 2, 3)})
    assert grid[(("n", 2),)] == F(3, 4)
    assert len(grid) == 4
    values = [grid[(("n", k),)] for k in (0, 1, 2, 3)]
    assert values == sorted(values)


def test_family_threshold_golden() -> None:
    a = fig1(F(2, 3))
    family = parse_family("(b a^n)^N")
    value = evaluate_family_at(a, family, {"n": 7, "N": 200})
    p, q = F(1, 2) * F(2, 3) ** 7, F(1, 2) * F(1, 3) ** 7
    assert value == p / (p + q) * (1 - (1 - p - q) ** 199)
    assert value >= F(95, 100)


def test_family_value_monotone_in_repeats() -> None:
    a = fig1(F(2, 3))
    family = parse_family("(b a^n)^N")
    previous = F(-1)
    for big_n in (1, 5, 25, 125):
        value = evaluate_family_at(a, family, {"n": 7, "N": big_n})
        assert value >= previous
        previous = value


# ---------------------------------------------------------------------------
# Reification


def test_reification_exponent_is_length_times_factorial() -> None:
    a = fig3()
    expr = parse_expression("(a)#", a)
    assert reification_exponent(expr, 1) == math.factorial(2)
    assert reification_exponent(expr, 12) == 12 * math.factorial(2)


def test_reify_goldens() -> None:
    a = fig3()
    assert reify(parse_expression("a b", a), 5) == ("a", "b")
    assert reify(parse_expression("(a)#", a), 1) == ("a", "a")
    assert reify(parse_expression("(a)#", a), 3) == ("a",) * 6
    assert reify(parse_expression("ε", a), 3) == ()
    nested = parse_expression("((a)# (a)#)#", a)
    assert len(reify(nested, 1)) == 2 * 2 * 2


def test_reify_budget() -> None:
    a = fig3()
    expr = parse_expression("(a)#", a)
    with pytest.raises(CapExceeded, match="budget exceeded"):
        reify(expr, 10**6, budget=1000)


def test_expression_matrix_equals_word_matrix_of_reified_word() -> None:
    a = fig3()
    for text in ("ε", "a", "b a", "(a)#", "(a b a)#", "((a)# (a)#)#"):
        expr = parse_expression(text, a)
        for n in (1, 2, 3):
            assert expression_matrix(a, expr, n) == a.word_matrix(reify(expr, n))


# ---------------------------------------------------------------------------
# Consistency


def test_consistency_on_fixture_closures() -> None:
    for a in (fig3(), det1(), hier2(), fig1(F(1, 2))):
        closure = markov_monoid(a)
        reports = check_consistency(a, closure, n=12)
        assert len(reports) == len(closure.elements)
        assert all(report.ok for report in reports)
        assert all(report.status == "pass" for report in reports)


def test_consistency_report_covers_all_entries() -> None:
    a = fig3()
    closure = markov_monoid(a)
    report = check_consistency(a, closure, n=4)[0]
    assert len(report.entries) == len(a.states) ** 2


def test_consistency_failure_is_reported_not_raised() -> None:
    # The closure of another automaton over the same letters: claims that
    # fig3's probabilities do not meet are reported, not raised.
    b = random_automaton(Random(0), states=2, letters=2)
    assert b.alphabet == fig3().alphabet
    reports = check_consistency(fig3(), markov_monoid(b), n=2)
    assert len(reports) == 4
    assert [report.ok for report in reports].count(False) == 3
    for report in reports:
        if not report.ok:
            assert report.status == "inconclusive at n=2"
            assert any(not entry.ok for entry in report.entries)


def test_consistency_of_a_closure_over_other_letters_raises() -> None:
    b = random_automaton(Random(0), states=2, letters=2)
    a = fig3()
    renamed = Automaton(b.states, ("x", "y"), b.initial, b.final, b.matrices)
    with pytest.raises(ValidationError, match="^unknown letter 'x'$"):
        check_consistency(a, markov_monoid(renamed), n=2)


@pytest.mark.parametrize(
    "zero_eps, one_delta, message",
    [
        (F(-1, 1000), F(1, 100), "zero_eps must be in"),
        (F(1), F(1, 100), "zero_eps must be in"),
        (F(1, 1000), F(0), "one_delta must be in"),
        (F(1, 1000), F(-1, 2), "one_delta must be in"),
        (F(1, 1000), F(101, 100), "one_delta must be in"),
    ],
)
def test_consistency_rejects_out_of_range_thresholds(
    zero_eps, one_delta, message
) -> None:
    a = fig3()
    with pytest.raises(ValidationError, match=message):
        check_consistency(
            a, markov_monoid(a), n=2, zero_eps=zero_eps, one_delta=one_delta
        )


def test_consistency_accepts_the_threshold_bounds() -> None:
    a = fig3()
    reports = check_consistency(a, markov_monoid(a), n=2, zero_eps=F(0), one_delta=F(1))
    assert len(reports) == len(markov_monoid(a).elements)


# ---------------------------------------------------------------------------
# Lower bounds


def test_lower_bound_on_leaktight_fixtures() -> None:
    for a in (fig3(), det1(), hier2(), rnd3()):
        ext = extended_markov_monoid(a)
        for n in (1, 2, 3):
            reports = check_lower_bound(a, ext, n=n)
            assert len(reports) == len(ext.elements)
            assert all(report.ok for report in reports), (a.states, n)


def test_lower_bound_requires_no_leak() -> None:
    a = fig1(F(1, 2))
    ext = extended_markov_monoid(a)
    with pytest.raises(ValidationError, match="precondition violation"):
        check_lower_bound(a, ext)


def test_lower_bound_entries_cover_claimed_edges() -> None:
    a = fig3()
    ext = extended_markov_monoid(a)
    for report in check_lower_bound(a, ext, n=2):
        assert report.ok
        assert report.support_exact
        assert report.depth >= 0
        claimed = sum(
            1
            for s in range(len(a.states))
            for t in range(len(a.states))
            if (s, t) in report.element.word
        )
        assert len(report.entries) == claimed
        p_min = a.min_transition_probability
        for entry in report.entries:
            assert entry.measured >= p_min ** (2**report.depth)
