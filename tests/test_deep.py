"""Expressions and templates far deeper than Python's recursion limit.

Every walk over an expression tree runs on an explicit stack, so depth
alone never ends in `RecursionError`.  The trees here are 5,000 levels
deep, five times the default limit, and each answer is checked against
its closed form.
"""

from __future__ import annotations

import copy
import json
import pickle
import time
from fractions import Fraction as F

import pytest

from leaktight import (
    Automaton,
    CapExceeded,
    Concat,
    LimitWord,
    MonoidClosure,
    automaton_to_json,
    check_consistency,
    check_lower_bound,
    concat_expr,
    epsilon_expr,
    evaluate_family_at,
    expression_matrix,
    extended_markov_monoid,
    family_word,
    is_value1_witness,
    iterate_expr,
    letter_expr,
    markov_monoid,
    parse_expression,
    parse_family,
    reify,
)
from leaktight.cli import main
from leaktight.zoo import fig3

DEPTH = 5000
ONE = (((F(1),),),)


def one_state(alphabet: tuple[str, ...] = ("a",)) -> Automaton:
    return Automaton(
        states=("p",),
        alphabet=alphabet,
        initial="p",
        final=frozenset({"p"}),
        matrices=ONE * len(alphabet),
    )


def chain(automaton: Automaton, depth: int):
    """a a … a, depth + 1 letters, concatenated left to right."""
    a = letter_expr(automaton, "a")
    expression = a
    for _ in range(depth):
        expression = concat_expr(expression, a)
    return expression


def nest(body, depth: int):
    """(…((body)#)#…)#, depth iterates deep."""
    for _ in range(depth):
        body = iterate_expr(body)
    return body


def test_deep_concatenation_chain() -> None:
    automaton = one_state()
    expression = chain(automaton, DEPTH)
    assert expression.height == 0
    assert expression.depth == DEPTH
    assert expression.render() == " ".join(["a"] * (DEPTH + 1))
    assert reify(expression, 3) == ("a",) * (DEPTH + 1)
    assert expression_matrix(automaton, expression, 3) == ((F(1),),)


def test_deep_nest_of_empty_iterates() -> None:
    automaton = one_state()
    expression = nest(epsilon_expr(1), DEPTH)
    assert expression.height == DEPTH and expression.depth == DEPTH
    assert expression.render() == "(" * DEPTH + "ε" + ")#" * DEPTH
    # g(n) = n·1! = n repetitions per level of an empty body: nothing to write.
    assert reify(expression, 7) == ()
    assert expression_matrix(automaton, expression, 7) == ((F(1),),)


def test_deep_nest_of_letter_iterates() -> None:
    automaton = one_state()
    expression = nest(letter_expr(automaton, "a"), DEPTH)
    assert reify(expression, 1) == ("a",)
    with pytest.raises(CapExceeded, match="reified word has length"):
        reify(expression, 2)  # 2^5000 letters
    assert expression_matrix(automaton, expression, 2) == ((F(1),),)


def test_parse_deep_expression() -> None:
    text = "(" * DEPTH + "ε" + ")#" * DEPTH
    expression = parse_expression(text, fig3())
    assert expression.height == DEPTH
    assert expression.render() == text
    assert expression.word == LimitWord.identity(2)


def test_parse_and_evaluate_deep_template() -> None:
    a = fig3()
    wrapped = parse_family("(" * DEPTH + "a" + ")" * DEPTH)
    assert wrapped == parse_family("a")
    powers = parse_family("(" * DEPTH + "a" + ")^n" * DEPTH)
    assert powers.parameters() == {"n"}
    assert family_word(powers, {"n": 1}) == ("a",)
    with pytest.raises(CapExceeded, match="instantiated word has length"):
        family_word(powers, {"n": 2})
    assert evaluate_family_at(a, powers, {"n": 1}) == evaluate_family_at(
        a, parse_family("a"), {}
    )


# ---------------------------------------------------------------------------
# Equality, hashing and repr of nodes

WORD = "LimitWord(dim=1, rows=(1,))"
LEAF = f"Letter(name='a', word={WORD})"


def test_deep_chain_compares_hashes_and_prints() -> None:
    automaton = one_state(("a", "b"))
    expression = chain(automaton, DEPTH)
    text = " ".join(["a"] * (DEPTH + 1))
    copy = parse_expression(text, automaton)
    assert expression == copy and hash(expression) == hash(copy)
    assert expression != parse_expression("b" + text[1:], automaton)
    assert repr(expression) == (
        "Concat(left=" * DEPTH + LEAF + f", right={LEAF}, word={WORD})" * DEPTH
    )


def test_deep_nest_compares_hashes_and_prints() -> None:
    automaton = one_state(("a", "b"))
    expression = nest(letter_expr(automaton, "a"), DEPTH)
    text = "(" * DEPTH + "a" + ")#" * DEPTH
    copy = parse_expression(text, automaton)
    assert expression == copy and hash(expression) == hash(copy)
    assert expression != parse_expression(text.replace("a", "b"), automaton)
    assert repr(expression) == "Iterate(child=" * DEPTH + LEAF + f", word={WORD})" * DEPTH


def test_deep_template_compares_hashes_and_prints() -> None:
    text = "(" * DEPTH + "a" + ")^n" * DEPTH
    family, copy = parse_family(text), parse_family(text)
    assert family == copy and hash(family) == hash(copy)
    assert family != parse_family(text.replace("a", "b"))
    assert repr(family.template) == (
        "FamilyPower(base=" * DEPTH + "FamilyAtom(letter='a')" + ", exponent='n')" * DEPTH
    )


def test_copies_of_a_shared_dag_compare_once_per_node() -> None:
    automaton = one_state(("a", "b"))
    x, y, z = (letter_expr(automaton, name) for name in "aab")
    for _ in range(64):  # 2^64 leaves each, 65 distinct nodes
        x, y, z = concat_expr(x, x), concat_expr(y, y), concat_expr(z, z)
    started = time.perf_counter()
    assert x == y and hash(x) == hash(y)
    assert x != z
    assert time.perf_counter() - started < 0.5


# ---------------------------------------------------------------------------
# Pickle and deep copy


def pickled(node):
    return pickle.loads(pickle.dumps(node))


def deep_chain():
    return chain(one_state(), DEPTH)


def deep_nest():
    return nest(letter_expr(one_state(), "a"), DEPTH)


def deep_template():
    return parse_family("(" * DEPTH + "a" + ")^n" * DEPTH).template


@pytest.mark.parametrize("round_trip", [pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("build", [deep_chain, deep_nest, deep_template])
def test_deep_nodes_survive_a_round_trip(build, round_trip) -> None:
    tree = build()
    twin = round_trip(tree)
    assert twin is not tree and twin == tree and hash(twin) == hash(tree)
    assert repr(twin) == repr(tree)


@pytest.mark.parametrize("round_trip", [pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
def test_round_trips_keep_shared_subtrees_shared(round_trip) -> None:
    # `chain` puts one leaf node on the right of every concatenation.
    twin = round_trip(deep_chain())
    spine = [twin]
    while isinstance(spine[-1], Concat):
        spine.append(spine[-1].left)
    assert len(spine) == DEPTH + 1
    assert len({id(node.right) for node in spine[:-1]} | {id(spine[-1])}) == 1
    assert (twin.depth, twin.height) == (DEPTH, 0)
    # 65 distinct nodes standing for 2^64 leaves.
    x = letter_expr(one_state(), "a")
    for _ in range(64):
        x = concat_expr(x, x)
    twin = node = round_trip(x)
    while isinstance(node, Concat):
        assert node.left is node.right
        node = node.left
    assert twin == x and twin.depth == 64 and node.render() == "a"


# ---------------------------------------------------------------------------
# The command line


def successor_28() -> dict[int, int]:
    """A permutation of 28 states in cycles of 2, 3, 5, 7 and 11."""
    successor = {}
    start = 0
    for length in (2, 3, 5, 7, 11):
        for i in range(length):
            successor[start + i] = start + (i + 1) % length
        start += length
    return successor


def permutation_28() -> Automaton:
    """One letter permuting 28 states by `successor_28`."""
    successor = successor_28()
    matrix = tuple(
        tuple(F(int(successor[s] == t)) for t in range(28)) for s in range(28)
    )
    return Automaton(
        states=tuple(str(s) for s in range(28)),
        alphabet=("a",),
        initial="0",
        final=frozenset({"1"}),
        matrices=(matrix,),
    )


def test_reify_skips_an_empty_body_repeated_g_times() -> None:
    # g(1) = 28! repetitions of nothing: skipped, not built.
    automaton = permutation_28()
    assert reify(parse_expression("(ε)# a (ε)#", automaton), 1) == ("a",)


def test_consistency_reifies_a_deep_back_pointer_chain() -> None:
    # The closure is a^0 … a^2309 (a has order 2310), and a^2309 is the
    # product of a^2308 and a: its one-element closure is a chain of 2,309
    # back-pointers, reified with nothing read before it.
    automaton = permutation_28()
    saturation = markov_monoid(automaton)._saturation
    last = len(saturation) - 1
    (report,) = check_consistency(automaton, MonoidClosure(saturation, [last]), n=1)
    assert report.ok and report.expression.depth == 2308
    successor = power = successor_28()
    for _ in range(2308):
        power = {s: successor[t] for s, t in power.items()}
    rows = tuple(tuple(int(power[s] == t) for t in range(28)) for s in range(28))
    assert report.matrix == (rows, 1)


def test_lower_bound_over_a_deep_extended_closure() -> None:
    # p_min = 1, so every claimed entry is 1 and no power of p_min is taken.
    automaton = permutation_28()
    closure = extended_markov_monoid(automaton)
    reports = check_lower_bound(automaton, closure)
    assert len(reports) == 2310
    assert all(report.ok and report.support_exact for report in reports)
    assert max(report.depth for report in reports) > 2000
    # Counted on the back-pointers, without recursion, as the nodes count it.
    assert all(report.depth == report.expression.depth for report in reports)


def run_json(capsys, argv: list[str]) -> dict:
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return json.loads(captured.out)


def test_value1_with_a_deep_witness(capsys, tmp_path) -> None:
    # Deterministic, so leaktight; its closure is a^1 … a^2310, and the
    # witness found is a chain of over two thousand concatenations.
    automaton = permutation_28()
    path = tmp_path / "perm28.json"
    path.write_text(json.dumps(automaton_to_json(automaton)))
    report = run_json(capsys, ["value1", str(path)])
    assert report["value1"] == "yes" and report["leaktight"] == "yes"
    witness = parse_expression(report["witness"], automaton)
    assert witness.depth > 2000
    assert is_value1_witness(automaton, witness.word)


def test_estimate_value_on_a_deeply_wrapped_template(capsys, tmp_path) -> None:
    path = tmp_path / "fig3.json"
    path.write_text(json.dumps(automaton_to_json(fig3())))
    plain = run_json(capsys, ["estimate-value", str(path), "a"])
    wrapped = run_json(
        capsys, ["estimate-value", str(path), "(" * DEPTH + "a" + ")" * DEPTH]
    )
    assert (wrapped["value"], wrapped["value_approx"]) == (
        plain["value"],
        plain["value_approx"],
    )
