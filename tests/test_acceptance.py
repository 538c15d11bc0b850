"""Acceptance suite: ten end-to-end criteria, one test (one line) each.

Each test is self-contained and uses exact rational comparisons; the three
criteria with wall-clock budgets time their own work.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction as F

from leaktight import (
    bounded_witness_search,
    check_consistency,
    decide_leaktight,
    decide_value1,
    extended_markov_monoid,
    find_leak_witness,
    find_value1_witness,
    hat_morphism,
    is_sharp_acyclic,
    markov_monoid,
    parallel_composition,
    parse_family,
    evaluate_family_at,
    brute_force_value,
    probabilistic_row_count,
    reduce_basic,
    sharp_height,
    synchronized_product,
    third_simulation,
)
from leaktight.generate import (
    random_automaton,
    random_deterministic,
    random_hierarchical,
)
from leaktight.zoo import det1, fig1, fig3, hier2, rnd3, sink

from .helpers import (
    SUITE_SIZE,
    j_leq,
    seeded_automaton,
    seeded_closure,
    seeded_extended,
    two_sided_ideal,
)


def test_criterion_01_fig3_end_to_end() -> None:
    started = time.perf_counter()
    a = fig3()
    value1 = decide_value1(a)
    assert value1.value1
    assert value1.certificate.witness is not None
    assert value1.certificate.witness.render() == "(a)#"
    assert decide_leaktight(a).leaktight
    closure = markov_monoid(a)
    assert len(closure.elements) - 1 == 4  # non-identity elements
    extended = extended_markov_monoid(a)
    assert len(extended.elements) - 1 == 5
    assert time.perf_counter() - started < 1.0


def test_criterion_02_fig1_qualitative_invariance() -> None:
    observed = set()
    for x in (F(1, 3), F(1, 2), F(2, 3)):
        a = fig1(x)
        closure = markov_monoid(a)
        extended = extended_markov_monoid(a)
        leak = find_leak_witness(extended)
        assert leak is not None
        assert a.states[leak.r] == "L" and a.states[leak.q] == "T"
        verdict = decide_value1(a)
        assert not verdict.value1 and verdict.leaktight is False
        observed.add(
            (
                tuple(element.rows for element in closure.elements),
                tuple(closure.provenance[e].render() for e in closure.elements),
                tuple(
                    (pair.word.rows, pair.support.rows)
                    for pair in extended.elements
                ),
                (leak.element, leak.r, leak.q),
            )
        )
    assert len(observed) == 1  # byte-identical closures and witness across x


def test_criterion_03_fig1_numeric_threshold() -> None:
    started = time.perf_counter()
    assert brute_force_value(fig1(F(1, 3)), max_len=10) == F(1, 2)
    family = parse_family("(b a^n)^N")
    value = evaluate_family_at(fig1(F(2, 3)), family, {"n": 7, "N": 200})
    assert value >= F(95, 100)
    assert time.perf_counter() - started < 30.0


def test_criterion_04_reduction_exactness() -> None:
    a = rnd3()
    out = reduce_basic(a)
    b = out.automaton
    assert probabilistic_row_count(b) == 1
    for length in range(5):
        for word in itertools.product(a.alphabet, repeat=length):
            assert a.acceptance_probability(word) == b.acceptance_probability(
                hat_morphism(a, word)
            )
    rng = random.Random(2024)
    for _ in range(50):
        word = tuple(rng.choice(a.alphabet) for _ in range(rng.randrange(0, 7)))
        assert a.acceptance_probability(word) == b.acceptance_probability(
            hat_morphism(a, word)
        )


def test_criterion_05_gadget_closed_form() -> None:
    a = rnd3()
    g = third_simulation(a)
    start = g.state_index[g.initial]
    low, high = "0", "1"  # the two targets of rnd3's a-row at the initial state
    for rounds in (1, 2, 5):
        d = g.word_matrix(("a",) + ("sharp",) * (2 * rounds))[start]
        expected = F(1, 2) * (1 - F(5, 9) ** rounds)
        assert d[g.state_index[low]] == expected
        assert d[g.state_index[high]] == expected


def test_criterion_06_monoid_law_suite() -> None:
    started = time.perf_counter()
    for seed in range(SUITE_SIZE):
        rng = random.Random(seed)
        a = random_automaton(
            rng, states=rng.randrange(1, 5), letters=rng.randrange(1, 3)
        )
        closure = markov_monoid(a)  # terminates under the default cap
        idempotents = [u for u in closure.elements if u.is_idempotent()]
        class_count = {}
        for u in idempotents:
            sharp = u.iterate()
            assert sharp.is_idempotent()
            assert sharp.concat(u) == sharp == u.concat(sharp)
            assert sharp.iterate() == sharp
            classes_u = set(u.recurrence_classes().classes)
            classes_sharp = set(sharp.recurrence_classes().classes)
            assert classes_sharp <= classes_u
            if sharp != u:
                assert classes_sharp < classes_u
            class_count[u] = len(classes_u)
        for v in idempotents:
            ideal = two_sided_ideal(v, closure.elements)
            for u in idempotents:
                if u in ideal:
                    assert class_count[u] <= class_count[v]
        if seed % 50 == 0:
            # the ideal shortcut is definitionally j_leq; spot-check that
            for v in idempotents[:3]:
                ideal = two_sided_ideal(v, closure.elements)
                for u in idempotents[:3]:
                    assert (u in ideal) == j_leq(u, v, closure)
        for u in closure.elements:
            assert closure.heights[u] <= len(a.states)
        extended = extended_markov_monoid(a)
        for pair in extended.elements:
            for s in range(pair.word.dim):
                assert pair.word.rows[s] & ~pair.support.rows[s] == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"law suite took {elapsed:.1f}s"


def test_criterion_07_method_agreement() -> None:
    fixtures = (fig3(), det1(), hier2(), rnd3(), sink(), fig1(F(1, 2)))
    for a in fixtures:
        assert decide_value1(a).value1 == (bounded_witness_search(a) is not None)
    for seed in range(SUITE_SIZE):
        a = seeded_automaton(seed)
        closure = seeded_closure(seed)
        by_closure = find_value1_witness(closure) is not None
        assert decide_value1(a).value1 == by_closure
        assert by_closure == (bounded_witness_search(a) is not None)


def test_criterion_08_class_theorems_on_samples() -> None:
    for seed in range(100):
        a = random_deterministic(seed)
        assert sharp_height(a) == 0
        assert decide_leaktight(a).leaktight
    for seed in range(100):
        a = random_hierarchical(seed)
        assert decide_leaktight(a).leaktight
    acyclic_hits = 0
    for seed in range(150):
        a = seeded_automaton(seed)
        if is_sharp_acyclic(a):
            acyclic_hits += 1
            assert decide_leaktight(a).leaktight
    assert acyclic_hits > 0


def test_criterion_09_consistency_reification() -> None:
    fixtures = (fig3(), det1(), hier2(), fig1(F(1, 2)))
    for a in fixtures:
        closure = markov_monoid(a)
        reports = check_consistency(
            a, closure, n=12, zero_eps=F(1, 1000), one_delta=F(1, 100)
        )
        assert len(reports) == len(closure.elements)
        failing = [r for r in reports if not r.ok]
        assert not failing, failing


def test_criterion_10_composition_stability() -> None:
    assert decide_leaktight(parallel_composition(fig3(), det1())).leaktight
    assert decide_leaktight(synchronized_product(fig3(), det1())).leaktight
    assert decide_leaktight(synchronized_product(fig3(), fig3())).leaktight
