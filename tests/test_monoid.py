"""Saturation closure, witnesses, certificates, bounded search, J-preorder."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from leaktight import (
    CapExceeded,
    Certificate,
    LimitWord,
    UpperBound,
    ValidationError,
    bounded_witness_search,
    decide_value1,
    extended_markov_monoid,
    find_value1_witness,
    is_value1_witness,
    markov_monoid,
    parse_expression,
    sharp_height,
)
from leaktight.generate import perturb
from leaktight.zoo import det1, fig1, fig3, hier2, rnd3, sink

from .helpers import j_leq, seeded_automaton, seeded_closure, two_sided_ideal


# ---------------------------------------------------------------------------
# Closure goldens


def test_fig3_closure_golden() -> None:
    a = fig3()
    closure = markov_monoid(a)
    assert len(closure.elements) == 5
    rendered = {closure.provenance[u].render() for u in closure.elements}
    assert rendered == {"ε", "a", "b", "b a", "(a)#"}
    assert closure.max_height == 1
    sharp = parse_expression("(a)#", a).word
    assert closure.heights[sharp] == 1
    assert sharp in closure


def test_det1_closure_is_identity_only() -> None:
    closure = markov_monoid(det1())
    assert len(closure.elements) == 1
    assert closure.elements[0] == LimitWord.identity(len(det1().states))
    assert closure.max_height == 0


def test_closure_is_multiplicatively_closed() -> None:
    for seed in range(40):
        closure = seeded_closure(seed)
        elements = set(closure.elements)
        for u in closure.elements:
            for v in closure.elements:
                assert u.concat(v) in elements
            if u.is_idempotent():
                assert u.iterate() in elements


def test_heights_are_minimal_on_fixture() -> None:
    closure = markov_monoid(fig3())
    for u in closure.elements:
        expr = closure.provenance[u]
        assert expr.height == closure.heights[u]


def test_cap_exceeded() -> None:
    with pytest.raises(CapExceeded, match="closure exceeded cap"):
        markov_monoid(fig1(F(1, 2)), cap=5)


# ---------------------------------------------------------------------------
# Witnesses and certificates


def test_fig3_witness() -> None:
    a = fig3()
    closure = markov_monoid(a)
    witness = find_value1_witness(closure)
    assert witness is not None
    assert closure.provenance[witness].render() == "(a)#"
    assert is_value1_witness(a, witness)


def test_sink_has_no_witness() -> None:
    closure = markov_monoid(sink())
    assert find_value1_witness(closure) is None


def test_det1_witness_is_identity() -> None:
    closure = markov_monoid(det1())
    witness = find_value1_witness(closure)
    assert witness == LimitWord.identity(len(det1().states))


def test_decide_value1_fig3() -> None:
    report = decide_value1(fig3())
    assert report.value1
    assert report.certificate.kind == "value1"
    assert report.certificate.witness is not None
    assert report.leaktight is True


def test_decide_value1_negative_carries_bound_and_note() -> None:
    report = decide_value1(sink())
    assert not report.value1
    cert = report.certificate
    assert cert.kind == "no-witness"
    assert isinstance(cert.bound, UpperBound)
    assert cert.bound.p_min == 1
    assert cert.bound.height == 3 * cert.bound.monoid_size**2
    assert "guaranteed only if leaktight" in cert.note
    assert report.leaktight is True


def test_decide_value1_fig1_flags_unreliable() -> None:
    report = decide_value1(fig1(F(1, 2)))
    assert not report.value1
    assert report.leaktight is False


def test_upper_bound_formula_string() -> None:
    bound = UpperBound(p_min=F(1, 2), monoid_size=2)
    assert bound.height == 12
    assert bound.formula == "1 - (1/2)^(2^12)"


def test_certificate_field_validation() -> None:
    with pytest.raises(ValidationError):
        Certificate(kind="bogus")
    with pytest.raises(ValidationError):
        Certificate(kind="value1")  # needs a witness


# ---------------------------------------------------------------------------
# Sharp height


def test_sharp_heights() -> None:
    assert sharp_height(fig3()) == 1
    assert sharp_height(det1()) == 0
    assert sharp_height(hier2()) == 1
    assert sharp_height(rnd3()) <= 3


# ---------------------------------------------------------------------------
# Bounded witness search


def test_bounded_search_matches_fixture_decisions() -> None:
    for a in (fig3(), det1(), hier2(), rnd3(), sink(), fig1(F(1, 2))):
        found = bounded_witness_search(a)
        assert (found is not None) == decide_value1(a).value1


def test_bounded_search_returns_witness_expression() -> None:
    expr = bounded_witness_search(fig3())
    assert expr is not None
    assert expr.render() == "(a)#"
    assert is_value1_witness(fig3(), expr.word)


def test_bounded_search_respects_height_bound() -> None:
    # fig3 needs one iteration; forbidding iteration must lose the witness.
    assert bounded_witness_search(fig3(), max_height=0) is None
    assert bounded_witness_search(fig3(), max_height=1) is not None


# ---------------------------------------------------------------------------
# J-preorder


def test_j_leq_reflexive_and_golden() -> None:
    a = fig3()
    closure = markov_monoid(a)
    sharp = parse_expression("(a)#", a).word
    ua = parse_expression("a", a).word
    for u in closure.elements:
        assert j_leq(u, u, closure)
    assert j_leq(sharp, ua, closure)


def test_j_leq_membership_errors() -> None:
    closure = markov_monoid(fig3())
    foreign = LimitWord(2, (0b10, 0b01))
    with pytest.raises(ValidationError, match="membership violation"):
        j_leq(foreign, closure.elements[0], closure)
    with pytest.raises(ValidationError, match="membership violation"):
        j_leq(closure.elements[0], foreign, closure)


def test_two_sided_ideal_agrees_with_j_leq() -> None:
    # j_leq(u, v) is one two_sided_ideal(v, closure.elements) call and a
    # membership test; this pins the two to each other on small closures.
    checked = 0
    for seed in range(40):
        closure = seeded_closure(seed)
        if len(closure.elements) > 40:
            continue
        for v in closure.elements[:6]:
            ideal = two_sided_ideal(v, closure.elements)
            for u in closure.elements[:10]:
                assert (u in ideal) == j_leq(u, v, closure)
                checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# Qualitative invariance


def test_closure_depends_only_on_supports() -> None:
    base = markov_monoid(fig1(F(1, 2))).elements
    for x in (F(1, 7), F(9, 10)):
        assert markov_monoid(fig1(x)).elements == base


def test_perturbation_preserves_closure_and_verdicts() -> None:
    for seed in range(100):
        a = seeded_automaton(seed)
        b = perturb(seed, a)
        assert markov_monoid(a).elements == markov_monoid(b).elements
        assert decide_value1(a).value1 == decide_value1(b).value1
        assert sharp_height(a) == sharp_height(b)
