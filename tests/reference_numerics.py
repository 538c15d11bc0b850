"""The entry-by-entry `Fraction` numerics, kept as the slow reference.

`leaktight` multiplies matrices and steps distributions on integer
numerators over one common denominator.  The functions here are the
`Fraction` arithmetic it replaced, copied as they were (only renamed where
they were methods or private), so that `tests/test_numerics.py` can check
that the scaled form returns the same exact values.  The same holds for the
matrix validation and the probability predicates, which now read each
automaton's scaled letters.  Two scaled fast paths that were replaced are
kept too: the right-to-left `scaled_power` and the breadth-first search of
`brute_force_value` over dense scaled distributions, each reducing by
`math.gcd` on its own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional

from leaktight import oracle
from leaktight.automaton import Automaton, Matrix, ScaledMatrix
from leaktight.errors import CapExceeded, ValidationError
from leaktight.leaks import ExtendedClosure, find_leak_witness
from leaktight.limitword import LimitWord
from leaktight.monoid import MonoidClosure
from leaktight.oracle import (
    DEFAULT_BUDGET,
    FamilyAtom,
    FamilyNode,
    FamilyPower,
    WordFamily,
    _free_parameters,
    _resolve_exponent,
    reification_exponent,
)
from leaktight.sharpexpr import Concat, Epsilon, Letter, SharpExpression

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Matrix validation and probability predicates


def validate_matrices(
    states: tuple[str, ...], alphabet: tuple[str, ...], matrices: tuple[Matrix, ...]
) -> None:
    """The matrix loop of `Automaton.__post_init__`."""
    dim = len(states)
    for letter, matrix in zip(alphabet, matrices):
        if len(matrix) != dim or any(len(row) != dim for row in matrix):
            raise ValidationError(f"letter {letter!r}: matrix is not {dim}x{dim}")
        for s, row in enumerate(matrix):
            total = ZERO
            for entry in row:
                if not isinstance(entry, Fraction):
                    raise ValidationError(
                        f"letter {letter!r}: non-rational entry {entry!r}"
                    )
                if entry < 0 or entry > 1:
                    raise ValidationError(
                        f"letter {letter!r}: entry {entry} outside [0,1]"
                    )
                total += entry
            if total != 1:
                raise ValidationError(
                    f"letter {letter!r}, state {states[s]!r}: "
                    f"row sum {total} ≠ 1"
                )


def scale_matrix(matrix: Matrix) -> ScaledMatrix:
    denominator = math.lcm(*(entry.denominator for row in matrix for entry in row))
    return (
        tuple(
            tuple(
                entry.numerator * (denominator // entry.denominator) for entry in row
            )
            for row in matrix
        ),
        denominator,
    )


def scaled_letters(automaton: Automaton) -> tuple[ScaledMatrix, ...]:
    return tuple(scale_matrix(matrix) for matrix in automaton.matrices)


def sparse_letters(automaton: Automaton) -> tuple:
    """Per letter: each row's (target, numerator) pairs with a nonzero
    numerator, and the letter's common denominator."""
    return tuple(
        (tuple(tuple((t, x) for t, x in enumerate(row) if x) for row in rows), d)
        for rows, d in scaled_letters(automaton)
    )


def min_transition_probability(automaton: Automaton) -> Fraction:
    """The smallest strictly positive entry over all letter matrices (p_min)."""
    return min(
        entry
        for matrix in automaton.matrices
        for row in matrix
        for entry in row
        if entry > 0
    )


def is_simple(automaton: Automaton) -> bool:
    """Every transition probability is 0, 1/2 or 1."""
    return all(
        entry in (ZERO, HALF, ONE)
        for matrix in automaton.matrices
        for row in matrix
        for entry in row
    )


def probabilistic_row_count(automaton: Automaton) -> int:
    """Number of (state, letter) rows with an entry strictly between 0 and 1."""
    return sum(
        1
        for matrix in automaton.matrices
        for row in matrix
        if any(0 < entry < 1 for entry in row)
    )


def is_deterministic(automaton: Automaton) -> bool:
    """Every transition probability is 0 or 1."""
    return all(
        entry == 0 or entry == 1
        for matrix in automaton.matrices
        for row in matrix
        for entry in row
    )


def letter_abstraction(automaton: "Automaton", letter: str) -> LimitWord:
    """The boolean support of a letter's transition matrix."""
    matrix = automaton.matrix(letter)
    rows = []
    for row in matrix:
        bits = 0
        for t, entry in enumerate(row):
            if entry:
                bits |= 1 << t
        rows.append(bits)
    return LimitWord(len(matrix), tuple(rows))


# ---------------------------------------------------------------------------
# Products, powers, steps and reification


def initial_distribution(automaton: Automaton) -> tuple[Fraction, ...]:
    i = automaton.state_index[automaton.initial]
    return tuple(ONE if s == i else ZERO for s in range(len(automaton.states)))


def identity_matrix(dim: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim))


def matrix_product(left: Matrix, right: Matrix) -> Matrix:
    dim = len(left)
    cols = tuple(zip(*right))
    return tuple(
        tuple(sum(row[k] * col[k] for k in range(dim)) for col in cols)
        for row in left
    )


def rectangular_product(left: Matrix, right: Matrix) -> Matrix:
    """An m x k by k x p product; `matrix_product` reads square operands only."""
    return tuple(
        tuple(sum((a * b for a, b in zip(row, col)), ZERO) for col in zip(*right))
        for row in left
    )


def matrix_power(matrix: Matrix, exponent: int) -> Matrix:
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    result = identity_matrix(len(matrix))
    base = matrix
    e = exponent
    while e:
        if e & 1:
            result = matrix_product(result, base)
        base = matrix_product(base, base) if e > 1 else base
        e >>= 1
    return result


def word_matrix(automaton: Automaton, word) -> Matrix:
    """Exact product of the letter matrices of `word` (identity for the empty word)."""
    result = identity_matrix(len(automaton.states))
    for letter in word:
        result = matrix_product(result, automaton.matrix(letter))
    return result


def step(
    automaton: Automaton, distribution: tuple[Fraction, ...], letter: str
) -> tuple[Fraction, ...]:
    """One letter of evolution of a distribution row vector."""
    matrix = automaton.matrix(letter)
    dim = len(automaton.states)
    return tuple(
        sum(distribution[s] * matrix[s][t] for s in range(dim) if distribution[s])
        for t in range(dim)
    )


def acceptance(automaton: Automaton, distribution: tuple[Fraction, ...]) -> Fraction:
    """The probability mass of `distribution` on the final states."""
    return sum((distribution[f] for f in automaton.final_indices), start=ZERO)


def brute_force_value(
    automaton: Automaton, max_len: int, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Exact maximum acceptance probability over words of length ≤ max_len."""
    if max_len < 0:
        raise ValidationError("max_len must be nonnegative")
    start = initial_distribution(automaton)
    best = acceptance(automaton, start)
    seen = {start}
    frontier = [start]
    explored = 1
    for _ in range(max_len):
        if not frontier or best == 1:
            break
        next_frontier: list[tuple[Fraction, ...]] = []
        for distribution in frontier:
            for letter in automaton.alphabet:
                successor = step(automaton, distribution, letter)
                if successor in seen:
                    continue
                explored += 1
                if explored > budget:
                    raise CapExceeded(
                        f"budget exceeded: more than {budget} distributions"
                    )
                seen.add(successor)
                value = acceptance(automaton, successor)
                if value > best:
                    best = value
                next_frontier.append(successor)
        frontier = next_frontier
    return best


# ---------------------------------------------------------------------------
# The replaced scaled fast paths: right-to-left powers, dense distributions


# (numerators, denominator), divided by the gcd of all of them.
ScaledVector = tuple[tuple[int, ...], int]


def scale_vector(entries) -> ScaledVector:
    """Rationals as numerators over their least common denominator."""
    denominator = math.lcm(*(entry.denominator for entry in entries))
    return (
        tuple(
            entry.numerator * (denominator // entry.denominator) for entry in entries
        ),
        denominator,
    )


def _gcd_reduced(rows: list[list[int]], denominator: int) -> ScaledMatrix:
    g = math.gcd(denominator, *(x for row in rows for x in row))
    return tuple(tuple(x // g for x in row) for row in rows), denominator // g


def _scaled_product(left: ScaledMatrix, right: ScaledMatrix) -> ScaledMatrix:
    (a, da), (b, db) = left, right
    cols = tuple(zip(*b))
    return _gcd_reduced(
        [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a], da * db
    )


def right_to_left_power(
    matrix: ScaledMatrix, exponent: int, cap_bits: int
) -> ScaledMatrix:
    """matrix ** exponent by right-to-left square-and-multiply, as
    `automaton.scaled_power` computed it before it squared left to right:
    raises CapExceeded when a squaring of the base, the last one skipped,
    has a denominator of more than `cap_bits` bits."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    result = None
    base = matrix
    e = exponent
    while e:
        if e & 1:
            result = base if result is None else _scaled_product(result, base)
        e >>= 1
        if e:
            base = _scaled_product(base, base)
            if base[1].bit_length() > cap_bits:
                raise CapExceeded(
                    f"matrix power {exponent}: denominator exceeded {cap_bits} bits"
                )
    if result is None:
        rows, _ = matrix
        return tuple(
            tuple(int(i == j) for j in range(len(rows))) for i in range(len(rows))
        ), 1
    return result


def dense_step(letters: tuple, distribution: ScaledVector, letter: int) -> ScaledVector:
    """The dense scaled `distribution` after the letter at index `letter` of
    `letters`, the automaton's `sparse_letters`."""
    rows, letter_denominator = letters[letter]
    numerators, denominator = distribution
    successor = [0] * len(numerators)
    for x, row in zip(numerators, rows):
        if x:
            for t, p in row:
                successor[t] += x * p
    (reduced,), denominator = _gcd_reduced([successor], denominator * letter_denominator)
    return reduced, denominator


def dense_acceptance_probability(automaton: Automaton, word) -> Fraction:
    """`Automaton.acceptance_probability` on dense scaled distributions."""
    letters = sparse_letters(automaton)
    distribution = scale_vector(initial_distribution(automaton))
    for letter in word:
        distribution = dense_step(letters, distribution, automaton.letter_index[letter])
    numerators, denominator = distribution
    return Fraction(sum(numerators[f] for f in automaton.final_indices), denominator)


def dense_search(
    automaton: Automaton, max_len: int, budget: int = DEFAULT_BUDGET
) -> tuple[Fraction, int]:
    """`brute_force_value` over dense scaled distributions, with the number
    of distributions it explored: the least budget at which it finishes."""
    if max_len < 0:
        raise ValidationError("max_len must be nonnegative")
    letters = sparse_letters(automaton)
    final = tuple(automaton.final_indices)
    start = scale_vector(initial_distribution(automaton))
    best_num, best_den = sum(start[0][f] for f in final), start[1]
    seen = {start}
    frontier = [start]
    explored = 1
    for _ in range(max_len):
        if not frontier or best_num == best_den:
            break
        next_frontier = []
        for distribution in frontier:
            for letter in range(len(letters)):
                successor = dense_step(letters, distribution, letter)
                if successor in seen:
                    continue
                explored += 1
                if explored > budget:
                    raise CapExceeded(
                        f"budget exceeded: more than {budget} distributions"
                    )
                seen.add(successor)
                numerators, denominator = successor
                accepted = sum(numerators[f] for f in final)
                if accepted * best_den > best_num * denominator:
                    best_num, best_den = accepted, denominator
                next_frontier.append(successor)
        frontier = next_frontier
    return Fraction(best_num, best_den), explored


def family_matrix(
    automaton: Automaton,
    node: FamilyNode,
    bindings: Mapping[str, int],
    memo: dict,
) -> Matrix:
    relevant = tuple(
        sorted((k, v) for k, v in bindings.items() if k in _free_parameters(node))
    )
    key = (node, relevant)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(node, FamilyAtom):
        result = automaton.matrix(node.letter)
    elif isinstance(node, FamilyPower):
        base = family_matrix(automaton, node.base, bindings, memo)
        result = matrix_power(base, _resolve_exponent(node.exponent, bindings))
    else:
        result = None
        for part in node.parts:
            block = family_matrix(automaton, part, bindings, memo)
            result = block if result is None else matrix_product(result, block)
        if result is None:
            raise ValidationError("empty template")
    memo[key] = result
    return result


def evaluate_family_at(
    automaton: Automaton,
    family: WordFamily,
    bindings: Optional[Mapping[str, int]] = None,
) -> Fraction:
    """Exact acceptance probability of one instantiation of the family."""
    matrix = family_matrix(automaton, family.template, bindings or {}, {})
    row = matrix[automaton.state_index[automaton.initial]]
    return sum((row[f] for f in automaton.final_indices), start=ZERO)


def expression_matrix(
    automaton: Automaton,
    expression: SharpExpression,
    n: int,
    memo: Optional[dict] = None,
) -> Matrix:
    """The exact transition matrix of reify(expression, n), without the word."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    table = {} if memo is None else memo

    def evaluate(node: SharpExpression) -> Matrix:
        key = (node, n)
        hit = table.get(key)
        if hit is not None:
            return hit
        if isinstance(node, Epsilon):
            result = identity_matrix(len(automaton.states))
        elif isinstance(node, Letter):
            result = automaton.matrix(node.name)
        elif isinstance(node, Concat):
            result = matrix_product(evaluate(node.left), evaluate(node.right))
        else:
            result = matrix_power(
                evaluate(node.child), reification_exponent(node, n)
            )
        table[key] = result
        return result

    return evaluate(expression)


def consistency_entries(
    automaton: Automaton,
    closure: MonoidClosure,
    n: int,
    zero_eps: Fraction = Fraction(1, 1000),
    one_delta: Fraction = Fraction(1, 100),
) -> list[list[tuple[int, int, int, Fraction, bool]]]:
    """The `Fraction` loop of `check_consistency`: (s, t, claimed, measured, ok)
    for every entry of every element, in report order."""
    memo: dict = {}
    reports = []
    dim = len(automaton.states)
    for element in closure.elements:
        expression = closure.provenance[element]
        matrix = expression_matrix(automaton, expression, n, memo)
        entries = []
        for s in range(dim):
            for t in range(dim):
                claimed = 1 if (s, t) in element else 0
                measured = matrix[s][t]
                ok = measured >= one_delta if claimed else measured <= zero_eps
                entries.append((s, t, claimed, measured, ok))
        reports.append(entries)
    return reports


def _at_least_power(measured: Fraction, base: Fraction, exponent: int) -> bool:
    """Exact comparison measured ≥ base**exponent (base in (0, 1])."""
    if base == 1:
        return measured >= 1
    if measured >= base:
        return True
    if measured <= 0:
        return False
    if exponent > oracle.EXPONENT_CAP:
        raise CapExceeded(
            f"budget exceeded: lower-bound exponent {exponent} > {oracle.EXPONENT_CAP}"
        )
    p, q = base.numerator, base.denominator
    a, b = measured.numerator, measured.denominator
    return a * q**exponent >= b * p**exponent


def lower_bound_reports(
    automaton: Automaton, closure: ExtendedClosure, n: int
) -> list[tuple[int, bool, bool, list[tuple[int, int, Fraction, bool]]]]:
    """The `Fraction` loop of `check_lower_bound`: (depth, support_exact, ok,
    [(s, t, measured, ok) per claimed entry]) for every element, in report
    order.  Reads `oracle.EXPONENT_CAP` when it compares, so a patched cap
    applies here too."""
    if find_leak_witness(closure) is not None:
        raise ValidationError("precondition violation: leak witness present")
    p_min = min_transition_probability(automaton)
    memo: dict = {}
    dim = len(automaton.states)
    reports = []
    for element in closure.elements:
        expression = closure.provenance[element]
        matrix = expression_matrix(automaton, expression, n, memo)
        support_rows = []
        for s in range(dim):
            bits = 0
            for t in range(dim):
                if matrix[s][t]:
                    bits |= 1 << t
            support_rows.append(bits)
        support_exact = tuple(support_rows) == element.support.rows
        depth = expression.depth
        exponent = 2**depth
        entries = []
        for s in range(dim):
            for t in range(dim):
                if (s, t) not in element.word:
                    continue
                measured = matrix[s][t]
                ok = _at_least_power(measured, p_min, exponent)
                entries.append((s, t, measured, ok))
        ok = support_exact and all(entry[3] for entry in entries)
        reports.append((depth, support_exact, ok, entries))
    return reports
