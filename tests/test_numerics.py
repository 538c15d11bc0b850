"""The scaled-integer numerics against the `Fraction` reference.

`tests/reference_numerics.py` keeps the entry-by-entry `Fraction` code that
the library's scaled form (int numerators over one common denominator)
replaced.  Every check here asks for identical exact values, and for the
same `CapExceeded` messages at the same budgets, save where the power
cap's boundary moved when powers began to square left to right, which
`test_power_cap_checks_every_squaring` pins.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import random
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    extended_markov_monoid,
    family_word,
    find_leak_witness,
    is_deterministic,
    letter_abstraction,
    markov_monoid,
    parallel_composition,
    parse_expression,
    parse_family,
    reify,
    synchronized_product,
)
from leaktight import automaton as automaton_module
from leaktight import oracle
from leaktight.automaton import (
    POWER_DENOMINATOR_BITS,
    scaled_power,
    scaled_product,
    unscale_matrix,
)
from leaktight.generate import perturb, random_automaton
from leaktight.reduction import (
    is_simple,
    probabilistic_row_count,
    reduce_basic,
    reduce_full,
    third_simulation,
)
from leaktight.zoo import det1, fig1, fig3, hier2, rnd3, sink

from . import reference_numerics as ref
from .helpers import (
    automata,
    corpus,
    seeded_automaton,
    seeded_closure,
    seeded_extended,
    words_over,
)
from .test_saturation import SCALING, scaling_automaton

ZOO = {
    "fig3": fig3,
    "det1": det1,
    "hier2": hier2,
    "sink": sink,
    "rnd3": rnd3,
    "fig1-third": lambda: fig1(F(1, 3)),
    "fig1-half": lambda: fig1(F(1, 2)),
    "fig1-two-thirds": lambda: fig1(F(2, 3)),
}
REDUCED = ("fig3", "hier2", "rnd3", "fig1-half")


def _reduced(name: str):
    return reduce_full(ZOO[name]()).automaton


def _measured(reports) -> list[list[tuple]]:
    return [
        [(e.s, e.t, e.claimed, e.measured, e.ok) for e in report.entries]
        for report in reports
    ]


# ---------------------------------------------------------------------------
# Reification: every measured entry of every corpus closure


def test_consistency_matches_reference_on_corpus_at_n3() -> None:
    for seed in corpus():
        a, closure = seeded_automaton(seed), seeded_closure(seed)
        assert _measured(check_consistency(a, closure, n=3)) == (
            ref.consistency_entries(a, closure, 3)
        ), seed


@pytest.mark.parametrize(
    "seeds",
    [(265,), (279,), tuple(range(0, 500, 10))],
    ids=["265", "279", "every-10th"],
)
def test_consistency_matches_reference_at_n6(seeds) -> None:
    for seed in seeds:
        a, closure = seeded_automaton(seed), seeded_closure(seed)
        assert _measured(check_consistency(a, closure, n=6)) == (
            ref.consistency_entries(a, closure, 6)
        ), seed


def _verdicts(reports) -> list[tuple]:
    """Each report's verdict with its entries."""
    return [(report.ok, entries) for report, entries in zip(reports, _measured(reports))]


def _reference_verdicts(a, closure, n, zero_eps, one_delta) -> list[tuple]:
    entries = ref.consistency_entries(a, closure, n, F(zero_eps), F(one_delta))
    return [(all(entry[4] for entry in report), report) for report in entries]


def _measured_thresholds(reference) -> list[tuple[F, F]]:
    """Threshold pairs taken from measured entries: the least, a middle and
    the greatest value below 1 measured on an entry claimed 0, each paired
    with the greatest, a middle and the least positive value on one
    claimed 1."""
    zeros = sorted({m for report in reference for _, _, c, m, _ in report if not c and m < 1})
    ones = sorted({m for report in reference for _, _, c, m, _ in report if c and m})

    def spread(values: list[F]) -> list[F]:
        return [values[0], values[len(values) // 2], values[-1]]

    return list(zip(spread(zeros), spread(ones[::-1]))) if zeros and ones else []


def test_consistency_verdicts_match_reference_at_measured_thresholds() -> None:
    # A threshold equal to a measured entry puts `≤` or `≥` on equality.
    met = 0
    for seed in range(0, 500, 10):
        a, closure = seeded_automaton(seed), seeded_closure(seed)
        reference = ref.consistency_entries(a, closure, 3)
        for zero_eps, one_delta in _measured_thresholds(reference):
            reports = check_consistency(a, closure, 3, zero_eps, one_delta)
            assert _verdicts(reports) == _reference_verdicts(
                a, closure, 3, zero_eps, one_delta
            ), (seed, zero_eps, one_delta)
            met += sum(
                entry.measured == (one_delta if entry.claimed else zero_eps)
                for report in reports
                for entry in report.entries
            )
    assert met > 100


@pytest.mark.parametrize(
    "zero_eps, one_delta",
    [
        (F(0), F(1)),
        (0, 1),
        (Decimal("0.001"), Decimal("0.01")),
        (Decimal("0.25"), 1),
    ],
    ids=["fractions-0-1", "ints-0-1", "decimals-default", "decimal-and-int"],
)
def test_consistency_verdicts_match_reference_at_extreme_and_other_types(
    zero_eps, one_delta
) -> None:
    for seed in (*range(0, 500, 25), 265):
        a, closure = seeded_automaton(seed), seeded_closure(seed)
        reports = check_consistency(a, closure, 3, zero_eps, one_delta)
        assert _verdicts(reports) == _reference_verdicts(
            a, closure, 3, zero_eps, one_delta
        ), seed
        for report in reports:
            assert type(report.zero_eps) is F and report.zero_eps == zero_eps
            assert type(report.one_delta) is F and report.one_delta == one_delta


@pytest.mark.parametrize(
    "zero_eps, one_delta, message",
    [
        (1, F(1, 100), "zero_eps must be in [0, 1), got 1"),
        (-1, F(1, 100), "zero_eps must be in [0, 1), got -1"),
        (Decimal("1.000"), F(1, 100), "zero_eps must be in [0, 1), got 1.000"),
        (Decimal("-0.5"), F(1, 100), "zero_eps must be in [0, 1), got -0.5"),
        (F(1, 1000), 0, "one_delta must be in (0, 1], got 0"),
        (F(1, 1000), 2, "one_delta must be in (0, 1], got 2"),
        (F(1, 1000), Decimal("0.0"), "one_delta must be in (0, 1], got 0.0"),
        (F(1, 1000), Decimal("1.01"), "one_delta must be in (0, 1], got 1.01"),
        (F(1, 1000), F(3, 2), "one_delta must be in (0, 1], got 3/2"),
    ],
)
def test_threshold_messages_print_the_callers_value(
    zero_eps, one_delta, message
) -> None:
    a = seeded_automaton(0)
    for check in (
        lambda: oracle.validate_thresholds(zero_eps, one_delta),
        lambda: check_consistency(a, seeded_closure(0), 3, zero_eps, one_delta),
    ):
        with pytest.raises(ValidationError) as raised:
            check()
        assert str(raised.value) == message


def test_consistency_rejects_an_element_of_another_dimension() -> None:
    # The closure of a 3-state automaton over the same letters as the
    # 4-state corpus seed 0.
    a = seeded_automaton(0)
    other = random_automaton(random.Random(0), states=3, letters=2)
    assert other.alphabet == a.alphabet and len(a.states) == 4
    with pytest.raises(ValidationError, match="^report must cover every state pair$"):
        check_consistency(a, markov_monoid(other), 3)


def test_lower_bound_rejects_a_plain_closure() -> None:
    # A plain closure's keys hold no support rows to check against.
    a = fig3()
    extended = extended_markov_monoid(a)
    for closure in (markov_monoid(a), extended.plain_closure()):
        with pytest.raises(ValidationError) as raised:
            check_lower_bound(a, closure)
        assert str(raised.value) == "check_lower_bound needs an extended closure"


@pytest.mark.parametrize("states,other_states", [(2, 3), (3, 2)])
def test_both_checks_reject_a_closure_of_another_dimension(
    states: int, other_states: int
) -> None:
    # Both automata are leaktight, so the lower-bound check gets past its
    # leak precondition to the dimension.
    seeds = {2: 1, 3: 2}
    a = random_automaton(random.Random(seeds[states]), states=states, letters=2)
    b = random_automaton(random.Random(seeds[other_states]), states=other_states, letters=2)
    plain, extended = markov_monoid(b), extended_markov_monoid(b)
    checks = (
        lambda n: check_consistency(a, plain, n),
        lambda n: check_lower_bound(a, extended, n),
    )
    for check in checks:
        with pytest.raises(ValidationError) as raised:
            check(2)
        assert str(raised.value) == "report must cover every state pair"
        # n is checked first.
        with pytest.raises(ValidationError) as raised:
            check(0)
        assert str(raised.value) == "n must be at least 1"
    # The thresholds are checked before n.
    with pytest.raises(ValidationError, match="^zero_eps must be in"):
        check_consistency(a, plain, 0, zero_eps=F(1))


def _lower_bound(reports) -> list[tuple]:
    """Every report field, and each entry's (s, t, measured, ok)."""
    assert all(e.claimed == 1 for report in reports for e in report.entries)
    # The depth counted on the back-pointers is the expression's.
    assert all(report.depth == report.expression.depth for report in reports)
    return [
        (
            report.depth,
            report.support_exact,
            report.ok,
            [(e.s, e.t, e.measured, e.ok) for e in report.entries],
        )
        for report in reports
    ]


def test_lower_bound_matches_reference_on_leaktight_corpus() -> None:
    checked = 0
    for seed in corpus():
        extended = seeded_extended(seed)
        if find_leak_witness(extended) is not None:
            continue
        a = seeded_automaton(seed)
        assert _lower_bound(check_lower_bound(a, extended)) == (
            ref.lower_bound_reports(a, extended, 3)
        ), seed
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("name", ["fig3", "det1", "hier2", "rnd3"])
def test_lower_bound_matches_reference_on_fixtures(name) -> None:
    a = ZOO[name]()
    extended = extended_markov_monoid(a)
    for n in (1, 2, 3):
        assert _lower_bound(check_lower_bound(a, extended, n=n)) == (
            ref.lower_bound_reports(a, extended, n)
        ), n


def test_lower_bound_cap_is_raised_at_the_first_entry_below_p_min(
    monkeypatch,
) -> None:
    a, extended = seeded_automaton(0), seeded_extended(0)
    p_min = a.min_transition_probability
    below = [
        (expression.render(), depth)
        for (depth, _, _, entries), expression in zip(
            ref.lower_bound_reports(a, extended, 1),
            (extended.provenance[element] for element in extended.elements),
        )
        if any(0 < measured < p_min for _, _, measured, _ in entries)
    ]
    assert below[0] == ("b a", 1)
    monkeypatch.setattr(oracle, "EXPONENT_CAP", 1)
    message = "budget exceeded: lower-bound exponent 2 > 1"
    with pytest.raises(CapExceeded) as raised:
        check_lower_bound(a, extended, n=1)
    assert str(raised.value) == message
    with pytest.raises(CapExceeded) as raised:
        ref.lower_bound_reports(a, extended, 1)
    assert str(raised.value) == message


def test_expression_matrix_matches_reference_on_fixtures() -> None:
    for build in ZOO.values():
        a = build()
        closure = markov_monoid(a)
        for n in (1, 2):
            for element in closure.elements:
                expression = closure.provenance[element]
                assert expression_matrix(a, expression, n) == ref.expression_matrix(
                    a, expression, n
                )


def test_shared_memo_is_safe_across_dropped_expressions() -> None:
    # The memo is keyed by node identity.  Each expression here is parsed
    # afresh and dropped before the next call, so a memo that did not hold
    # its nodes could meet a recycled id and return another node's matrix.
    for name in ("fig3", "rnd3"):
        a = ZOO[name]()
        texts = [e.render() for e in markov_monoid(a).provenance.values()]
        memo: dict = {}
        for i, text in enumerate(texts):
            for n in (2, 3) if i % 2 else (3, 2):
                expected = ref.expression_matrix(a, parse_expression(text, a), n)
                expression = parse_expression(text, a)
                assert expression_matrix(a, expression, n, memo) == expected, text
                del expression
                gc.collect()


def test_shared_memo_refuses_another_automaton() -> None:
    # Same supports, different probabilities: a memo keyed by node alone
    # returned rnd3's matrices for its perturbation.
    a = rnd3()
    b = perturb(5, a)
    memo: dict = {}
    for text in ("a", "a b", "b a b"):
        expression = parse_expression(text, a)
        word = reify(expression, 2)
        assert a.word_matrix(word) != b.word_matrix(word), text
        assert expression_matrix(a, expression, 2, memo) == a.word_matrix(word)
        with pytest.raises(ValidationError) as raised:
            expression_matrix(b, expression, 2, memo)
        assert str(raised.value) == "expression_matrix memo is another automaton's"
        assert expression_matrix(b, expression, 2) == b.word_matrix(word), text


def test_consistency_verdict_agrees_with_entries_built_when_read() -> None:
    for seed in corpus():
        a, closure = seeded_automaton(seed), seeded_closure(seed)
        for report in check_consistency(a, closure, n=3):
            assert "entries" not in vars(report), seed
            assert report.ok == all(entry.ok for entry in report.entries), seed
            assert "entries" in vars(report), seed


def _assert_expression_matrices(a, reports, n: int) -> None:
    """Each report's matrix is its expression's, evaluated node by node."""
    memo: dict = {}
    for report in reports:
        expected = expression_matrix(a, report.expression, n, memo)
        assert unscale_matrix(report.matrix) == expected, report.expression.render()


@pytest.mark.parametrize("states,k", SCALING)
def test_checks_match_reference_on_scaling_automata(states, k) -> None:
    # 4-6 states, up to a few hundred elements, iterates among the generators.
    a = scaling_automaton(states, k)
    closure, extended = markov_monoid(a), extended_markov_monoid(a)
    for n in (1, 2):
        reports = check_consistency(a, closure, n=n)
        assert _measured(reports) == ref.consistency_entries(a, closure, n), n
        _assert_expression_matrices(a, reports, n)
    assert find_leak_witness(extended) is None  # all 11 are leaktight
    assert _lower_bound(check_lower_bound(a, extended, n=1)) == (
        ref.lower_bound_reports(a, extended, 1)
    )


def test_consistency_matches_reference_on_derived_closures() -> None:
    # The plain closure derived from the extended one: its back-pointers
    # reach extended elements that are not in it.
    outside = 0
    for seed in range(0, 500, 10):
        a, closure = seeded_automaton(seed), markov_monoid(seeded_extended(seed))
        reports = check_consistency(a, closure, n=3)
        assert _measured(reports) == ref.consistency_entries(a, closure, 3), seed
        _assert_expression_matrices(a, reports, 3)
        outside += len(closure) < len(seeded_extended(seed))
    assert outside > 10


def test_checks_read_no_provenance_map_and_report_its_nodes() -> None:
    checked = 0
    for seed in range(0, 500, 5):
        a = seeded_automaton(seed)
        pairs = [(markov_monoid(a), check_consistency)]
        extended = extended_markov_monoid(a)
        if find_leak_witness(extended) is None:
            pairs.append((extended, check_lower_bound))
        for closure, check in pairs:
            reports = check(a, closure, 2)
            # A report's repr shows its index and findings, not the closure.
            texts = [repr(report) for report in reports]
            assert not any(repr(closure) in text for text in texts), seed
            assert not any("closure=" in text for text in texts), seed
            # Verdicts are decided on the keys: nothing is decoded until read.
            saturation = closure._saturation
            assert saturation._words == [None] * len(saturation), seed
            assert saturation._nodes == [None] * len(saturation), seed
            assert not {"elements", "provenance", "heights"} & vars(closure).keys()
            # Reports compare by identity: a copy field for field differs.
            for report in reports:
                assert report == report and dataclasses.replace(report) != report
            assert [report.element for report in reports] == list(closure.elements)
            for report in reports:
                assert report.expression is closure.provenance[report.element]
            checked += 1
    assert checked > 150


def test_report_reprs_leave_out_the_long_numerators() -> None:
    # At n = 6 the plain closures of corpus seeds 265 and 279, and at n = 3
    # the extended closure of 279, have numerators past the 4,300 digits
    # Python converts to str; repr shows neither them nor the matrices.
    reports = []
    for seed in (265, 279):
        a = seeded_automaton(seed)
        reports += check_consistency(a, markov_monoid(a), 6)
    reports += check_lower_bound(seeded_automaton(279), seeded_extended(279), 3)
    entries = [entry for report in reports for entry in report.entries]
    too_long = 10**4300
    assert any(entry.numerator >= too_long for entry in entries)
    texts = [repr(report) for report in reports] + [repr(entry) for entry in entries]
    assert not any(
        field in text
        for text in texts
        for field in ("matrix=", "numerator=", "denominator=")
    )
    assert all(entry.measured * entry.denominator == entry.numerator for entry in entries)


@pytest.mark.parametrize("n", [0, -1])
def test_n_below_one_is_refused_before_any_element(n) -> None:
    # Closures over letters fig3 lacks: the first letter evaluated would
    # raise "unknown letter".
    a = fig3()
    other = Automaton(a.states, ("x", "y"), a.initial, a.final, a.matrices)
    closure, extended = markov_monoid(other), extended_markov_monoid(other)
    expression = closure.provenance[closure.elements[-1]]
    checks = (
        lambda n: check_consistency(a, closure, n),
        lambda n: check_lower_bound(a, extended, n),
        lambda n: expression_matrix(a, expression, n),
    )
    for check in checks:
        with pytest.raises(ValidationError, match="^unknown letter 'x'$"):
            check(1)
    for check in (*checks, lambda n: reify(expression, n)):
        with pytest.raises(ValidationError) as raised:
            check(n)
        assert str(raised.value) == "n must be at least 1"


# ---------------------------------------------------------------------------
# Word families


FAMILY_CASES = [
    (fig3, "(b a^n)^N", {"n": n, "N": big_n})
    for n in (0, 1, 3)
    for big_n in (0, 1, 4)
] + [
    (fig3, "a^n", {"n": n}) for n in (0, 1, 2, 3)
] + [
    (lambda: fig1(F(2, 3)), "(b a^n)^N", {"n": 7, "N": big_n})
    for big_n in (1, 5, 25, 125, 200)
] + [
    (fig3, "a^3 b", {}),
    (fig3, "((a b)^2 a)^k", {"k": 3}),
]


@pytest.mark.parametrize("build, template, bindings", FAMILY_CASES)
def test_family_values_match_reference(build, template, bindings) -> None:
    a, family = build(), parse_family(template)
    assert evaluate_family_at(a, family, bindings) == ref.evaluate_family_at(
        a, family, bindings
    )


def test_family_values_share_no_memo_across_automata() -> None:
    # Same supports, different probabilities: a memo keyed by node and
    # bindings alone, shared between the two, read 21/64 for both.
    a = rnd3()
    b = perturb(5, a)
    family = parse_family("(a b)^n")
    with pytest.raises(TypeError):
        evaluate_family_at(a, family, {"n": 3}, {})
    assert evaluate_family_at(a, family, {"n": 3}) == F(21, 64)
    assert evaluate_family_at(b, family, {"n": 3}) == F(45855, 140608)
    word = family_word(family, {"n": 3})
    assert b.acceptance_probability(word) == F(45855, 140608)


# ---------------------------------------------------------------------------
# Brute force


@pytest.mark.parametrize("name", sorted(ZOO))
def test_brute_force_matches_reference_on_zoo(name) -> None:
    a = ZOO[name]()
    for max_len in range(9):
        assert brute_force_value(a, max_len) == ref.brute_force_value(a, max_len)


@pytest.mark.parametrize("name", REDUCED)
def test_brute_force_matches_reference_on_reductions(name) -> None:
    a = _reduced(name)
    for max_len in range(9):
        assert brute_force_value(a, max_len) == ref.brute_force_value(a, max_len)


def _outcome(function, automaton, max_len: int, budget: int):
    try:
        return function(automaton, max_len, budget)
    except CapExceeded as exc:
        return ("CapExceeded", str(exc))


def _explored(automaton, max_len: int) -> int:
    """The least budget at which the reference finishes: the number of
    distributions it explores."""
    low, high = 1, 1
    while isinstance(_outcome(ref.brute_force_value, automaton, max_len, high), tuple):
        low, high = high + 1, 2 * high
    while low < high:
        middle = (low + high) // 2
        if isinstance(
            _outcome(ref.brute_force_value, automaton, max_len, middle), tuple
        ):
            low = middle + 1
        else:
            high = middle
    return low


@pytest.mark.parametrize(
    "build, max_len",
    [(fig3, 6), (lambda: fig1(F(1, 2)), 8), (rnd3, 5), (lambda: _reduced("fig3"), 5)],
    ids=["fig3", "fig1-half", "rnd3", "reduced-fig3"],
)
def test_same_cap_exceeded_around_the_explored_count(build, max_len) -> None:
    a = build()
    explored = _explored(a, max_len)
    assert explored > 2
    outcomes = []
    for budget in (explored - 1, explored, explored + 1):
        outcome = _outcome(brute_force_value, a, max_len, budget)
        assert outcome == _outcome(ref.brute_force_value, a, max_len, budget)
        outcomes.append(outcome)
    assert outcomes[0] == (
        "CapExceeded",
        f"budget exceeded: more than {explored - 1} distributions",
    )
    assert not isinstance(outcomes[1], tuple)


def _random_5_to_8_states() -> list[Automaton]:
    """Three seeded automata for each of 5-8 states and 2-3 letters, with
    the last state as the only final one, so that most do not reach value 1
    within 8 letters and stop early; each also perturbed to denominators
    other than powers of two."""
    drawn = []
    for states in range(5, 9):
        for letters in (2, 3):
            for k in range(3):
                a = random_automaton(
                    random.Random(f"brute-force/{states}/{letters}/{k}"),
                    states=states,
                    letters=letters,
                )
                a = dataclasses.replace(a, final=frozenset(a.states[-1:]))
                drawn += [a, perturb(k, a)]
    return drawn


SPARSE_STEPPED = {
    "reductions": lambda: [_reduced(name) for name in REDUCED],
    "corpus-every-10th": lambda: [seeded_automaton(seed) for seed in range(0, 500, 10)],
    "random-5-8-states": _random_5_to_8_states,
}


def _dense_value(automaton, max_len: int, budget: int):
    return ref.dense_search(automaton, max_len, budget)[0]


@pytest.mark.parametrize("name", sorted(SPARSE_STEPPED))
def test_sparse_steps_match_dense_reference(name) -> None:
    rng = random.Random(name)
    for a in SPARSE_STEPPED[name]():
        value, explored = ref.dense_search(a, 8)
        assert brute_force_value(a, 8) == value
        for budget in (explored - 1, explored):
            assert _outcome(brute_force_value, a, 8, budget) == (
                _outcome(_dense_value, a, 8, budget)
            )
        for _ in range(20):
            word = tuple(rng.choice(a.alphabet) for _ in range(rng.randrange(13)))
            assert a.acceptance_probability(word) == (
                ref.dense_acceptance_probability(a, word)
            )


# ---------------------------------------------------------------------------
# Drawn automata and rational matrices


@settings(max_examples=40, deadline=None)
@given(automata(max_states=5), st.data())
def test_drawn_automata_match_reference(a, data) -> None:
    word = data.draw(words_over(a, max_size=10))
    assert a.word_matrix(word) == ref.word_matrix(a, word)
    distribution = a.scaled_start
    expected = ref.initial_distribution(a)
    assert distribution == _sparse_vector(expected)
    for letter in word:
        distribution = a.scaled_step(distribution, letter)
        expected = ref.step(a, expected, letter)
        assert distribution == _sparse_vector(expected)
    assert a.acceptance_probability(word) == ref.acceptance(a, expected)
    matrix = ref.word_matrix(a, word[:3])
    for exponent in range(6):
        assert _power(matrix, exponent) == ref.matrix_power(matrix, exponent)
    assert brute_force_value(a, 4) == ref.brute_force_value(a, 4)


def _product(left, right) -> tuple:
    """The `Fraction` product of two matrices, computed on the scaled form."""
    return unscale_matrix(scaled_product(ref.scale_matrix(left), ref.scale_matrix(right)))


def _power(matrix, exponent: int) -> tuple:
    """The `Fraction` power of a matrix, computed on the scaled form."""
    return unscale_matrix(scaled_power(ref.scale_matrix(matrix), exponent))


@st.composite
def rational_matrix_pairs(draw):
    dim = draw(st.integers(0, 5))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    square = st.tuples(*[st.tuples(*[entry] * dim)] * dim)
    return draw(square), draw(square)


@settings(max_examples=40, deadline=None)
@given(rational_matrix_pairs(), st.integers(0, 6))
def test_rational_matrices_match_reference(pair, exponent) -> None:
    left, right = pair
    assert _product(left, right) == ref.matrix_product(left, right)
    assert _power(left, exponent) == ref.matrix_power(left, exponent)


# ---------------------------------------------------------------------------
# Reduction of scaled products and steps: a power-of-two denominator is
# reduced by the lowest set bit, any other one by `math.gcd`.


def _matrix(*rows) -> tuple:
    return tuple(tuple(F(entry) for entry in row) for row in rows)


HALVES = _matrix(("1/2", "1/2"), ("1/2", "1/2"))
THIRDS = _matrix(("1/3", "2/3"), ("1/3", "2/3"))
FIRST_COLUMN = _matrix((1, 0), (1, 0))
# (left, right) operands of one product, by what their product exercises.
PRODUCTS = {
    # 2/4 reduces to 1/2: the gcd is a power of two below the denominator.
    "dyadic": (HALVES, HALVES),
    "dyadic-by-three": (HALVES, THIRDS),
    # 3/3 reduces to 1/1: the denominator 3 = 2^2 - 1 is not a power of two.
    "thirds-to-integers": (THIRDS, FIRST_COLUMN),
    "sevenths": (
        _matrix(("1/7", "6/7"), ("3/7", "4/7")),
        _matrix(("2/7", "5/7"), ("1/7", "6/7")),
    ),
    "denominator-1": (_matrix((0, 1), (1, 0)), FIRST_COLUMN),
    "even-integers": (_matrix((2, 0), (0, 2)), _matrix((2, 4), (6, 0))),
    "negative-dyadic": (_matrix(("-1/2", "3/4"), (2, "-1/8")), HALVES),
    "negative-odd": (_matrix(("-1/3", 3), ("5/6", "-2/9")), THIRDS),
    "zero-row": (_matrix((0, 0), ("1/2", "1/2")), HALVES),
    "all-zero": (_matrix((0, 0), (0, 0)), THIRDS),
    "zero-operands": (_matrix((0, 0), (0, 0)), _matrix((0, 0), (0, 0))),
    "2x3-by-3x1": (
        _matrix(("1/2", "1/4", "1/4"), ("1/3", 0, "-2/3")),
        _matrix(("1/2",), (2,), ("3/8",)),
    ),
    "1x2-by-2x3": (
        _matrix(("1/4", "3/4")),
        _matrix((0, "1/2", "1/2"), (4, 0, "1/6")),
    ),
    "3x1-by-1x2": (_matrix(("1/2",), (0,), (-3,)), _matrix(("1/2", "4/3"))),
}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_scaled_products_and_powers_match_reference(name) -> None:
    left, right = PRODUCTS[name]
    expected = ref.rectangular_product(left, right)
    assert scaled_product(ref.scale_matrix(left), ref.scale_matrix(right)) == (
        ref.scale_matrix(expected)
    )
    assert _product(left, right) == expected
    if len(left) == len(left[0]):
        for exponent in range(6):
            power = ref.matrix_power(left, exponent)
            assert scaled_power(ref.scale_matrix(left), exponent) == (
                ref.scale_matrix(power)
            )
            assert _power(left, exponent) == power
    # A product by a letter runs over the letter's nonzero entries.
    for build in ZOO.values():
        a = build()
        dim = len(a.states)
        lefts = [left] if len(left[0]) == dim else []
        for letter in a.alphabet:
            for operand in (*lefts, *a.matrices):
                scaled = ref.scale_matrix(operand)
                expected = ref.scale_matrix(
                    ref.rectangular_product(operand, a.matrix(letter))
                )
                assert a.scaled_after(scaled, letter) == expected
                assert scaled_product(scaled, a.scaled_matrix(letter)) == expected


STEPPED = {
    "fig3": fig3,
    "det1": det1,
    "rnd3": rnd3,
    "fig1-third": lambda: fig1(F(1, 3)),
    "fig1-two-thirds": lambda: fig1(F(2, 3)),
}


def _sparse_vector(distribution: tuple) -> tuple:
    """A `Fraction` distribution in the reduced sparse form of `scaled_step`."""
    (numerators,), denominator = ref.scale_matrix((distribution,))
    return tuple((t, x) for t, x in enumerate(numerators) if x), denominator


@pytest.mark.parametrize("name", sorted(STEPPED))
def test_scaled_steps_match_reference(name) -> None:
    a = STEPPED[name]()
    dim = len(a.states)
    starts = [ref.initial_distribution(a)]
    starts += [tuple(F(s == t) for t in range(dim)) for s in range(dim)]
    starts.append(tuple(F(1, dim) for _ in range(dim)))
    for start in starts:
        frontier = [start]
        for _ in range(4):
            successors = []
            for distribution in frontier:
                for letter in a.alphabet:
                    expected = ref.step(a, distribution, letter)
                    assert a.scaled_step(_sparse_vector(distribution), letter) == (
                        _sparse_vector(expected)
                    )
                    successors.append(expected)
            frontier = successors[:8]


# ---------------------------------------------------------------------------
# The bound on exact powers


def test_power_bound_stops_only_growing_denominators() -> None:
    # a^e of fig3's coin letter has denominator 2^e, of e + 1 bits.
    coin, reset = fig3().scaled_matrix("a"), fig3().scaled_matrix("b")
    bound = POWER_DENOMINATOR_BITS
    assert scaled_power(coin, bound // 2)[1] == 2 ** (bound // 2)
    with pytest.raises(CapExceeded) as raised:
        scaled_power(coin, bound)
    assert str(raised.value) == (
        f"matrix power {bound}: denominator exceeded {bound} bits"
    )
    assert scaled_power(reset, 10**20) == reset


def test_power_cap_checks_every_squaring(monkeypatch) -> None:
    # Left to right, the last squaring yields m^(e - e % 2), and the cap
    # checks it; right to left, the largest power checked was m^(2^⌊log₂ e⌋).
    bits = 64
    monkeypatch.setattr("leaktight.automaton.POWER_DENOMINATOR_BITS", bits)

    def refused(exponent: int) -> str:
        return f"matrix power {exponent}: denominator exceeded {bits} bits"

    # m^e has denominator 3^e: 51 bits at e = 32, 64 at e = 40, 65 at
    # e = 41 and 67 at e = 42.
    thirds = ref.scale_matrix(_matrix(("1/3", "2/3"), ("2/3", "1/3")))
    for exponent in range(42):
        assert scaled_power(thirds, exponent) == (
            ref.right_to_left_power(thirds, exponent, bits)
        )
    # The product by m after the last squaring is not checked.
    assert scaled_power(thirds, 41)[1] == 3**41
    # Raised now, returned before: the squarings reach m^42 and more, but
    # right to left the largest power checked was m^32.
    for exponent in range(42, 64):
        with pytest.raises(CapExceeded) as raised:
            scaled_power(thirds, exponent)
        assert str(raised.value) == refused(exponent)
        assert ref.right_to_left_power(thirds, exponent, bits)[1] == 3**exponent
    # Where each factor doubles the denominator, the boundary does not
    # move: fig3's coin letter has denominator 2^e, of e + 1 bits.
    coin = fig3().scaled_matrix("a")
    for exponent in (62, 63):
        assert scaled_power(coin, exponent) == (
            ref.right_to_left_power(coin, exponent, bits)
        )
        assert scaled_power(coin, exponent)[1] == 2**exponent
    for matrix, exponent in ((thirds, 64), (thirds, 100), (coin, 64), (coin, 127)):
        for power in (scaled_power, lambda m, e: ref.right_to_left_power(m, e, bits)):
            with pytest.raises(CapExceeded) as raised:
                power(matrix, exponent)
            assert str(raised.value) == refused(exponent)


# The exponents the power tests take: 0-64, and the iterate powers
# n·|Q|! of reification for n = 1..12 and |Q| = 1..6.
POWERS = sorted(
    set(range(65))
    | {n * math.factorial(states) for n in range(1, 13) for states in range(1, 7)}
)
POWER_INPUTS = {
    # Every square operand of `PRODUCTS`, negative and zero rows included.
    "products": lambda: [
        ref.scale_matrix(matrix)
        for pair in PRODUCTS.values()
        for matrix in pair
        if len(matrix) == len(matrix[0])
    ],
    "zoo-letters": lambda: [
        a.scaled_matrix(letter)
        for a in (build() for build in ZOO.values())
        for letter in a.alphabet
    ],
}


@pytest.mark.parametrize("inputs", sorted(POWER_INPUTS))
def test_left_to_right_powers_match_right_to_left_reference(inputs) -> None:
    for matrix in dict.fromkeys(POWER_INPUTS[inputs]()):
        for exponent in POWERS:
            assert scaled_power(matrix, exponent) == ref.right_to_left_power(
                matrix, exponent, POWER_DENOMINATOR_BITS
            ), exponent


@pytest.mark.parametrize("seed", [265, 279])
def test_left_to_right_powers_match_reference_on_iterate_bodies(
    seed, monkeypatch
) -> None:
    # These two bodies, of about 290 bits, raised to the 144th power, are
    # the largest powers `check_consistency` takes at n = 6 on the corpus.
    taken = []
    power = oracle.scaled_power

    def record(matrix, exponent):
        taken.append((matrix, exponent))
        return power(matrix, exponent)

    monkeypatch.setattr(oracle, "scaled_power", record)
    check_consistency(seeded_automaton(seed), seeded_closure(seed), n=6)
    monkeypatch.undo()
    assert [exponent for _, exponent in taken] == [144, 144]
    assert max(body[1].bit_length() for body, _ in taken) > 280
    # Up to the exponent n = 6 takes: a 290-bit body to the 8,640th power
    # would pass 2^20 bits.
    for body, _ in taken:
        for exponent in (e for e in POWERS if e <= 144):
            assert scaled_power(body, exponent) == ref.right_to_left_power(
                body, exponent, POWER_DENOMINATOR_BITS
            ), exponent


def test_default_reification_of_deep_provenance_stays_under_power_bound() -> None:
    # Corpus seed 279 has height-2 provenance; at the CLI's default n = 12
    # its iterate powers reach denominators of about 2^18.2 bits.
    a = seeded_automaton(279)
    reports = check_consistency(a, seeded_closure(279), n=12)
    assert all(report.ok for report in reports)


# ---------------------------------------------------------------------------
# The two paths of `scaled_power`: Cayley–Hamilton when
# e.bit_length() > n and (e − e % 2)·bits(d) ≤ POWER_DENOMINATOR_BITS,
# the squaring loop otherwise.


def _structured(kind: str, dim: int, rng: random.Random) -> tuple:
    """A scaled `dim`×`dim` matrix of the given kind, entries drawn from `rng`."""
    span = range(dim)
    if kind == "nilpotent":  # strictly upper triangular
        rows = [[rng.randint(1, 3) if t > s else 0 for t in span] for s in span]
        return rows, rng.choice((2, 3))
    if kind == "jordan":  # one eigenvalue λ/(λ + 1), repeated dim times
        lam = rng.randint(1, 3)
        rows = [[lam if t == s else int(t == s + 1) for t in span] for s in span]
        return rows, lam + 1
    if kind == "permutation":
        order = rng.sample(span, dim)
        return [[int(t == order[s]) for t in span] for s in span], 1
    if kind == "rank-one":  # every row the same distribution
        row = [0] * dim
        for _ in range(8):
            row[rng.randrange(dim)] += 1
        return [row] * dim, 8
    if kind == "singular":  # stochastic, the last row a copy of the first
        rows = []
        for _ in span:
            row = [0] * dim
            for _ in range(4):
                row[rng.randrange(dim)] += 1
            rows.append(row)
        rows[-1] = rows[0] if dim > 1 else [0]
        return rows, 4
    if kind == "negative":
        return [[rng.randint(-4, 4) for _ in span] for _ in span], 5
    if kind == "shared-factor":  # even entries over 6: the input is unreduced
        return [[2 * rng.randint(0, 3) for _ in span] for _ in span], 6
    raise ValueError(kind)


STRUCTURED = (
    "nilpotent",
    "jordan",
    "permutation",
    "rank-one",
    "singular",
    "negative",
    "shared-factor",
)


def _record_characteristic_powers(monkeypatch) -> list:
    """The (dimension, exponent) of each power that takes Cayley–Hamilton
    from now on, recorded in the list returned."""
    taken = []
    characteristic = automaton_module._characteristic_power

    def record(rows, exponent):
        taken.append((len(rows), exponent))
        return characteristic(rows, exponent)

    monkeypatch.setattr(automaton_module, "_characteristic_power", record)
    return taken


@pytest.mark.parametrize("kind", STRUCTURED)
def test_powers_of_structured_matrices_match_reference(kind, monkeypatch) -> None:
    # Seeded, dims 1-8, every exponent of POWERS; both paths run.
    taken = _record_characteristic_powers(monkeypatch)
    for dim in range(1, 9):
        rows, denominator = _structured(kind, dim, random.Random(f"{kind}-{dim}"))
        matrix = tuple(map(tuple, rows)), denominator
        for exponent in POWERS:
            assert scaled_power(matrix, exponent) == ref.right_to_left_power(
                matrix, exponent, POWER_DENOMINATOR_BITS
            ), (dim, exponent)
    assert {dim for dim, _ in taken} == set(range(1, 9))
    assert len(taken) < len(POWERS) * 8


def test_power_path_turns_on_past_the_dimension(monkeypatch) -> None:
    # 4 states: e = 15 has 4 bits and squares the matrix, e = 16 has 5.
    rows, denominator = _structured("negative", 4, random.Random(4))
    matrix = tuple(map(tuple, rows)), denominator
    taken = _record_characteristic_powers(monkeypatch)
    for exponent in (15, 16, 31):
        assert scaled_power(matrix, exponent) == ref.right_to_left_power(
            matrix, exponent, POWER_DENOMINATOR_BITS
        )
    assert taken == [(4, 16), (4, 31)]


def test_power_path_stops_at_the_denominator_bound(monkeypatch) -> None:
    # d = 65535 has 16 bits and d^e exactly 16·e bits for these e, and
    # M^e has denominator d^e.  At e = 66, (e − e % 2)·bits(d) = 1056: with
    # the bound at 1056 Cayley–Hamilton runs; one bit lower the loop runs,
    # and its last squaring, M^66, passes the bound.
    d = 65535
    matrix = ((1, d - 1), (d - 1, 1)), d
    for exponent in (64, 65, 66):
        assert scaled_power(matrix, exponent)[1] == d**exponent
    taken = _record_characteristic_powers(monkeypatch)
    for exponent in (66, 67):
        monkeypatch.setattr("leaktight.automaton.POWER_DENOMINATOR_BITS", 1056)
        assert scaled_power(matrix, exponent) == (
            ref.right_to_left_power(matrix, exponent, 1056)
        )
        monkeypatch.setattr("leaktight.automaton.POWER_DENOMINATOR_BITS", 1055)
        with pytest.raises(CapExceeded) as raised:
            scaled_power(matrix, exponent)
        assert str(raised.value) == (
            f"matrix power {exponent}: denominator exceeded 1055 bits"
        )
    assert taken == [(2, 66), (2, 67)]


def test_power_of_exponents_zero_and_one_and_of_the_empty_matrix() -> None:
    unreduced = ((2, 4), (6, 0)), 8
    assert scaled_power(unreduced, 0) == (((1, 0), (0, 1)), 1)
    assert scaled_power(unreduced, 1) is unreduced
    for exponent in POWERS:
        assert scaled_power(unreduced, exponent) == ref.right_to_left_power(
            unreduced, exponent, POWER_DENOMINATOR_BITS
        )
    for empty in (((), 1), ((), 3), ((), 4)):
        assert scaled_power(empty, 1) is empty
        for exponent in (0, 2, 3, 16, 144):
            assert scaled_power(empty, exponent) == ((), 1)
            assert ref.right_to_left_power(empty, exponent, 64) == ((), 1)


def test_family_powers_take_both_paths(monkeypatch) -> None:
    # On 3 states, a^3 and (…)^2 square the matrix; a^200 and (…)^8 take
    # Cayley–Hamilton.
    a = rnd3()
    family = parse_family("(b a^n)^m")
    taken = _record_characteristic_powers(monkeypatch)
    grid = {"n": (3, 200), "m": (2, 8)}
    table = evaluate_family(a, family, grid)
    for n in grid["n"]:
        for m in grid["m"]:
            bindings = {"m": m, "n": n}
            rows = ref.word_matrix(a, family_word(family, bindings))
            expected = sum(rows[a.state_index[a.initial]][f] for f in a.final_indices)
            assert evaluate_family_at(a, family, bindings) == expected
            assert table[(("m", m), ("n", n))] == expected
    assert {exponent for _, exponent in taken} == {200, 8}


# ---------------------------------------------------------------------------
# Matrix validation and probability predicates on the stored scaled letters


def _rational(entry) -> F:
    return entry if isinstance(entry, F) else F(0)


def _faulty_matrices(rng: random.Random):
    """1-3 states and 1-2 letters of stochastic rows, then 0-5 faults spread
    over rows and letters: non-rational entries, entries outside [0, 1],
    bad row sums and wrong dimensions."""
    dim, letters = rng.randint(1, 3), rng.randint(1, 2)
    matrices = []
    for _ in range(letters):
        rows = []
        for _ in range(dim):
            cuts = sorted(F(rng.randint(0, 6), 6) for _ in range(dim - 1))
            bounds = [F(0), *cuts, F(1)]
            rows.append([b - a for a, b in zip(bounds, bounds[1:])])
        matrices.append(rows)
    for _ in range(rng.randint(0, 5)):
        rows = rng.choice(matrices)
        row = rng.choice(rows) if rows else []
        if not row:
            continue
        t = rng.randrange(len(row))
        fault = rng.randrange(9)
        if fault == 0:
            row[t] = rng.choice([0, 1, 2, -1])
        elif fault == 1:
            row[t] = rng.choice([True, False])
        elif fault == 2:
            row[t] = rng.choice([0.0, 0.5, 1.0, -0.25])
        elif fault == 3:
            row[t] = rng.choice(["1/2", "1", "", "x"])
        elif fault == 4:
            row[t] = F(-rng.randint(1, 4), rng.randint(1, 5))
        elif fault == 5:
            row[t] = F(rng.randint(6, 12), rng.randint(1, 5))
        elif fault == 6:
            row[t] = _rational(row[t]) + F(rng.choice([-1, 1]), rng.randint(2, 9))
        elif fault == 7:
            # Moves mass within the row: the sum holds, an entry may leave [0, 1].
            u = rng.randrange(len(row))
            shift = F(rng.randint(1, 3), 3)
            row[t] = _rational(row[t]) + shift
            row[u] = _rational(row[u]) - shift
        elif rng.random() < 0.5:
            row.pop()
        else:
            rows.pop()
    states = tuple(f"q{i}" for i in range(dim))
    alphabet = tuple("ab"[:letters])
    return states, alphabet, tuple(tuple(map(tuple, rows)) for rows in matrices)


def _interned(matrices):
    """The same matrices with equal entries of one type as one object."""
    pool: dict = {}
    return tuple(
        tuple(
            tuple(pool.setdefault((type(entry), repr(entry)), entry) for entry in row)
            for row in matrix
        )
        for matrix in matrices
    )


def _verdict(function, *args):
    try:
        function(*args)
    except ValidationError as exc:
        return str(exc)
    return None


def test_same_rejections_as_reference_validation() -> None:
    verdicts = []
    for seed in range(20000):
        states, alphabet, matrices = _faulty_matrices(random.Random(seed))
        # Every fourth draw again with equal entries as one shared object.
        candidates = [matrices] if seed % 4 else [matrices, _interned(matrices)]
        for candidate in candidates:
            expected = _verdict(ref.validate_matrices, states, alphabet, candidate)
            actual = _verdict(
                Automaton, states, alphabet, states[0], frozenset(), candidate
            )
            assert actual == expected, (seed, candidate)
        verdicts.append(expected)
    faults = ("non-rational", "outside", "row sum", "is not")
    kinds = {v and next(k for k in faults if k in v) for v in verdicts}
    assert kinds == {None, *faults}


class SubFraction(F):
    """A `Fraction` subclass: the constructor accepts it as an entry."""


HALF = F(1, 2)
# Matrices that repeat entry objects within and across rows and letters.
# Those named `valid-...` are accepted; each other one is rejected with the
# first offender that the reference finds.
SHARED_ENTRIES = {
    "invalid-object-twice": (((F(3, 2), F(3, 2)), (HALF, HALF)),),
    "non-rational-object-twice": (((0.5, 0.5), (HALF, HALF)),),
    "invalid-in-two-letters": (((HALF, F(-1, 2)), (HALF, HALF)),) * 2,
    "shared-valid-bad-sum": (((HALF, HALF), (HALF, F(0))),),
    "shared-valid-bad-sum-later-letter": (
        ((HALF, HALF), (F(1), F(0))),
        ((HALF, HALF), (HALF, HALF)),
        ((F(0), HALF), (HALF, HALF)),
    ),
    "invalid-after-shared-valid": (((HALF, HALF), (HALF, F(-1, 2))),),
    "non-rational-after-shared-valid": (((HALF, HALF), (HALF, "1/2")),),
    "valid-shared": (((HALF, HALF), (HALF, HALF)),),
    "valid-subclass": ((
        (SubFraction(1, 2), SubFraction(1, 2)),
        (SubFraction(1), SubFraction(0)),
    ),),
    "subclass-invalid-twice": (((SubFraction(2), SubFraction(2)), (HALF, HALF)),),
    "subclass-bad-sum": (
        ((SubFraction(1, 2), SubFraction(1, 2)), (SubFraction(1, 2), F(0))),
    ),
}


@pytest.mark.parametrize("name", sorted(SHARED_ENTRIES))
def test_same_rejections_with_repeated_entry_objects(name) -> None:
    matrices = SHARED_ENTRIES[name]
    states, alphabet = ("p", "q"), tuple("abc"[: len(matrices)])
    expected = _verdict(ref.validate_matrices, states, alphabet, matrices)
    actual = _verdict(Automaton, states, alphabet, "p", frozenset(), matrices)
    assert actual == expected
    assert (expected is None) == name.startswith("valid-")


def _fresh_entries(a: Automaton) -> Automaton:
    """`a` with every entry its own `Fraction` object."""
    return Automaton(
        a.states,
        a.alphabet,
        a.initial,
        a.final,
        tuple(
            tuple(tuple(F(e.numerator, e.denominator) for e in row) for row in matrix)
            for matrix in a.matrices
        ),
    )


def _scaled_automata():
    yield from (_reduced(name) for name in REDUCED)
    for seed in range(60):
        rng = random.Random(seed)
        a = random_automaton(rng, states=rng.randint(1, 6), letters=rng.randint(1, 3))
        yield a
        yield perturb(rng, a)


def test_scaled_and_sparse_letters_match_reference() -> None:
    for a in _scaled_automata():
        scaled, sparse = ref.scaled_letters(a), ref.sparse_letters(a)
        for b in (a, _fresh_entries(a)):
            assert b._scaled_letters == scaled
            assert b._sparse_letters == sparse


def _predicate_automata():
    """Zoo, corpus, scaling, reduced and composed automata."""
    zoo = [build() for build in ZOO.values()]
    yield from zoo
    yield from (seeded_automaton(seed) for seed in corpus())
    yield from (scaling_automaton(states, k) for states, k in SCALING)
    simple = [a for a in zoo if ref.is_simple(a)]
    simple += [seeded_automaton(seed) for seed in range(0, 500, 50)]
    for a in simple:
        yield reduce_basic(a).automaton
        yield reduce_full(a).automaton
        yield third_simulation(a)
    for left, right in zip(zoo, zoo[1:] + zoo[:1]):
        if set(left.alphabet) == set(right.alphabet):
            yield parallel_composition(left, right)
            yield synchronized_product(left, right)


def _assert_same_predicates(a: Automaton) -> None:
    assert [a.scaled_matrix(letter) for letter in a.alphabet] == list(
        ref.scaled_letters(a)
    )
    assert a.min_transition_probability == ref.min_transition_probability(a)
    assert is_simple(a) == ref.is_simple(a)
    assert is_deterministic(a) == ref.is_deterministic(a)
    assert probabilistic_row_count(a) == ref.probabilistic_row_count(a)
    for letter in a.alphabet:
        assert letter_abstraction(a, letter) == ref.letter_abstraction(a, letter)


def test_same_predicates_as_reference() -> None:
    checked = 0
    for a in _predicate_automata():
        _assert_same_predicates(a)
        checked += 1
    # 16 simple automata are reduced three ways; every zoo pair composes.
    assert checked == len(ZOO) + 500 + len(SCALING) + 3 * 16 + 2 * len(ZOO)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 3))
def test_same_predicates_as_reference_on_drawn_automata(seed, states, letters) -> None:
    rng = random.Random(seed)
    a = random_automaton(rng, states=states, letters=letters)
    _assert_same_predicates(a)
    _assert_same_predicates(perturb(rng, a))
