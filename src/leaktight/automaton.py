"""Exact-rational probabilistic automata: model, interchange format, evaluation, composition.

An automaton is a tuple (states, alphabet, one row-stochastic matrix per letter,
initial state, final states).  All probabilities are `fractions.Fraction`; there
is no floating point anywhere in the model.

Products, powers and distribution steps are computed on a scaled form: a
matrix is a tuple of int numerator rows over one common denominator, and a
distribution the (state, numerator) pairs of its nonzero entries, in state
order, over one common denominator.  Each is reduced once per product or
step: by the lowest set bit when the denominator is a power of two, by a
single `math.gcd` otherwise, and by a shift whenever that divisor is a
power of two.  A step, or a product by a letter, runs over
the letter's nonzero entries.  A power with more exponent bits than
the matrix has rows, whose squarings could not pass the power bound, is
computed on the numerators through the characteristic polynomial and
reduced once; any other power squares and multiplies, reducing each
product.  The reduced form is unique, so it can be
compared and hashed as it is.  The `Fraction` functions convert at the
boundary.  Each automaton builds the scaled form of its letters once, at
construction, and validates the matrices on it, checking each distinct
entry object once; the probability predicates (p_min, determinism,
simplicity, supports) read it too.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, compress
from operator import mul, or_
from typing import Callable, Iterable, Mapping, Sequence

from .errors import CapExceeded, ValidationError

__all__ = [
    "Matrix",
    "ScaledMatrix",
    "SparseVector",
    "Automaton",
    "unscale_matrix",
    "scaled_identity",
    "scaled_product",
    "scaled_power",
    "parse_automaton",
    "automaton_from_json",
    "automaton_to_json",
    "parallel_composition",
    "synchronized_product",
]

Matrix = tuple[tuple[Fraction, ...], ...]
# (numerator rows, denominator): entry (s, t) is rows[s][t] / denominator,
# with gcd(denominator, *entries) == 1.
ScaledMatrix = tuple[tuple[tuple[int, ...], ...], int]
# (pairs, denominator): the (state, numerator) pairs with a nonzero
# numerator, in state order, over a denominator reduced the same way.
SparseVector = tuple[tuple[tuple[int, int], ...], int]
# Per source state, the (target, numerator) pairs with a nonzero numerator.
_SparseRows = tuple[tuple[tuple[int, int], ...], ...]

ZERO = Fraction(0)


def _divisor(entries: Iterable[int], denominator: int) -> int:
    """The gcd of `denominator` and all `entries`.

    The gcd of a power-of-two denominator with the entries is a power of
    two, the lowest set bit of their bitwise or; finding it costs time
    linear in their bits, where `math.gcd` takes quadratic Lehmer steps on
    the long denominators that powers of dyadic matrices reach.
    """
    if denominator & (denominator - 1):
        return math.gcd(denominator, *entries)
    low = reduce(or_, entries, denominator)
    return low & -low


def _quotient(g: int) -> Callable[[int], int]:
    """x ↦ x / g on the multiples of g: a right shift when g is a power of
    two, linear in the bits, where `//` runs CPython's long division."""
    return (g.bit_length() - 1).__rrshift__ if g & (g - 1) == 0 else g.__rfloordiv__


def _reduced_rows(rows: list[list[int]], denominator: int) -> ScaledMatrix:
    """`rows` over `denominator`, divided by the gcd of all of them."""
    g = _divisor(chain.from_iterable(rows), denominator)
    if g == 1:
        return tuple(map(tuple, rows)), denominator
    quotient = _quotient(g)
    return tuple(tuple(map(quotient, row)) for row in rows), quotient(denominator)


def unscale_matrix(matrix: ScaledMatrix) -> Matrix:
    rows, denominator = matrix
    return tuple(tuple(Fraction(x, denominator) for x in row) for row in rows)


def scaled_identity(dim: int) -> ScaledMatrix:
    return (
        tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)),
        1,
    )


def scaled_product(left: ScaledMatrix, right: ScaledMatrix) -> ScaledMatrix:
    (a, da), (b, db) = left, right
    cols = tuple(zip(*b))
    products = [[sum(map(mul, row, col)) for col in cols] for row in a]
    return _reduced_rows(products, da * db)


# Largest denominator, in bits, that a squaring in `scaled_power` may reach.
# Each squaring doubles it at most, and the next squaring's products and
# gcd cost more than linearly in it, so without a bound a large exponent
# would run until killed.  The CLI's default `reify-check` reaches 2^18.2
# bits on corpus seed 265.
POWER_DENOMINATOR_BITS = 2**20


def _characteristic_power(rows: tuple[tuple[int, ...], ...], exponent: int) -> list:
    """The integer rows of R^exponent, R = `rows` of dimension n, for
    exponent ≥ 2, by Cayley–Hamilton.

    The traces of R, R², …, Rⁿ give, by Newton's identities, the
    coefficients c_k of xⁿ = Σ_k c_k·x^(n−k) modulo the characteristic
    polynomial χ: k·c_k = tr(R^k) − Σ_{j<k} c_j·tr(R^(k−j)), an exact
    division.  Then x^exponent mod χ is taken left to right on its n
    coefficients, and R^exponent is their sum over I, R, …, R^(n−1).
    """
    n = len(rows)
    cols = tuple(zip(*rows))
    powers = [rows]  # R, R², …, R^(n−1), or R alone when n ≤ 1
    for _ in range(n - 2):
        power = powers[-1]
        powers.append([[sum(map(mul, row, col)) for col in cols] for row in power])
    traces = [sum([row[i] for i, row in enumerate(power)]) for power in powers]
    if n > 1:
        # tr(Rⁿ) without the product: the sum of R^(n−1)[s][t]·R[t][s].
        traces.append(
            sum(map(mul, chain.from_iterable(powers[-1]), chain.from_iterable(cols)))
        )
    recurrence: list[int] = []  # c_1, …, c_n
    for k, trace in enumerate(traces[:n], 1):
        earlier = sum(map(mul, recurrence, reversed(traces[: k - 1])))
        recurrence.append((trace - earlier) // k)

    def reduced(poly: list[int]) -> list[int]:
        for m in range(len(poly) - 1, n - 1, -1):
            top = poly[m]
            if top:
                for k, c in enumerate(recurrence, 1):
                    poly[m - k] += c * top
        del poly[n:]
        return poly

    power = reduced([0, 1] + [0] * (n - 2))
    for bit in bin(exponent)[3:]:
        square = [0] * (2 * n - 1)
        for i, x in enumerate(power):
            square[2 * i] += x * x
            twice = x << 1
            for j in range(i + 1, n):
                square[i + j] += twice * power[j]
        power = reduced(square)
        if bit == "1":
            power.insert(0, 0)
            power = reduced(power)
    # Σ_{i≥1} power[i]·R^i; `map` stops at R^(n−1), so R alone adds
    # nothing when n = 1.  The identity's term goes on the diagonal.
    later = power[1:]
    result = [
        [sum(map(mul, later, column)) for column in zip(*ith_rows)]
        for ith_rows in zip(*powers)
    ]
    for s, row in enumerate(result):
        row[s] += power[0]
    return result


def scaled_power(matrix: ScaledMatrix, exponent: int) -> ScaledMatrix:
    """matrix ** exponent.

    With R the numerator rows, d the denominator, n the dimension and e
    the exponent, one of two paths runs; both return the reduced form.

    - Cayley–Hamilton (`_characteristic_power`), then one reduction of
      R^e / d^e: a squaring of x^e mod χ costs n(n+1)/2 balanced big-int
      products and n(n−1) products by χ's small coefficients, against n³
      balanced products for a matrix squaring.  It runs when
      e.bit_length() > n, so that the n − 2 products building R², …,
      R^(n−1) are repaid, and when (e − e % 2)·bits(d) ≤
      `POWER_DENOMINATOR_BITS`, so that no squaring of the loop below
      could pass the bound: each squaring's reduced denominator divides
      d^(e_j), e_j ≤ e − e % 2.  Its numbers do reach d^e, unreduced.
    - Otherwise left-to-right square-and-multiply on the matrix: from the
      matrix, each later bit of the exponent squares the result and, when
      the bit is set, multiplies it by the matrix, whose denominator is
      the smallest; the last squaring yields matrix^(e − e % 2).  Each
      product is reduced, so only this path keeps the denominators of
      large exponents small.  Raises CapExceeded when a squaring's
      denominator grows past `POWER_DENOMINATOR_BITS` bits; powers of 0/1
      matrices never do.

    Exponent 1 returns `matrix` as it is, exponent 0 the identity.
    """
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    rows, denominator = matrix
    if exponent < 2:
        return matrix if exponent else scaled_identity(len(rows))
    if (
        exponent.bit_length() > len(rows)
        and (exponent - exponent % 2) * denominator.bit_length()
        <= POWER_DENOMINATOR_BITS
    ):
        return _reduced_rows(
            _characteristic_power(rows, exponent), denominator**exponent
        )
    result = matrix
    for bit in bin(exponent)[3:]:
        result = scaled_product(result, result)
        if result[1].bit_length() > POWER_DENOMINATOR_BITS:
            raise CapExceeded(
                f"matrix power {exponent}: denominator exceeded "
                f"{POWER_DENOMINATOR_BITS} bits"
            )
        if bit == "1":
            result = scaled_product(result, matrix)
    return result


_CONTROL = re.compile(r"[\x00-\x1f\x7f]")


def _check_name(name: object, what: str) -> str:
    if not isinstance(name, str) or not name:
        raise ValidationError(f"{what} must be a non-empty string, got {name!r}")
    if _CONTROL.search(name) is not None:
        raise ValidationError(f"{what} {name!r} contains control characters")
    return name


@dataclass(frozen=True)
class Automaton:
    """A probabilistic automaton with exact rational transition matrices.

    `matrices[i]` is the transition matrix of `alphabet[i]`; entry (s, t) is
    the probability of moving from `states[s]` to `states[t]`.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    final: frozenset[str]
    matrices: tuple[Matrix, ...]
    # Per letter, its matrix in scaled form; built and checked by __post_init__.
    _scaled_letters: tuple[ScaledMatrix, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.states:
            raise ValidationError("automaton needs at least one state")
        if not self.alphabet:
            raise ValidationError("automaton needs at least one letter")
        for s in self.states:
            _check_name(s, "state name")
        for a in self.alphabet:
            _check_name(a, "letter name")
        if len(set(self.states)) != len(self.states):
            raise ValidationError("duplicate state names")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValidationError("duplicate letter names")
        if self.initial not in self.states:
            raise ValidationError(f"initial state {self.initial!r} is not a state")
        for f in self.final:
            if f not in self.states:
                raise ValidationError(f"final state {f!r} is not a state")
        if len(self.matrices) != len(self.alphabet):
            raise ValidationError("one transition matrix per letter is required")
        dim = len(self.states)
        # (numerator, denominator) of each entry object checked so far, by
        # id; `self.matrices` keeps every entry alive, so no id is reused.
        fields: dict[int, tuple[int, int]] = {}
        scaled = []
        for letter, matrix in zip(self.alphabet, self.matrices):
            if len(matrix) != dim or any(len(row) != dim for row in matrix):
                raise ValidationError(f"letter {letter!r}: matrix is not {dim}x{dim}")
            invalid = dim * dim  # row-major index of the first entry that fails
            if not all(map(fields.__contains__, map(id, chain.from_iterable(matrix)))):
                for k, entry in enumerate(chain.from_iterable(matrix)):
                    if id(entry) in fields:
                        continue
                    if not (
                        isinstance(entry, Fraction)
                        and 0 <= entry.numerator <= entry.denominator
                    ):
                        invalid = k
                        break
                    fields[id(entry)] = entry.numerator, entry.denominator
            # The rows above the first invalid entry, or every row: each
            # row's sum is checked before the next row's entries.
            checked = matrix[: invalid // dim]
            # Scale each distinct entry object once to the letter's common
            # denominator, then look each entry up.
            numerator_of = dict.fromkeys(map(id, chain.from_iterable(checked)))
            denominator = 1
            for i in numerator_of:
                denominator = math.lcm(denominator, fields[i][1])
            for i in numerator_of:
                x, d = fields[i]
                numerator_of[i] = x * (denominator // d)
            rows = []
            for s, row in enumerate(checked):
                numerators = tuple(map(numerator_of.__getitem__, map(id, row)))
                if sum(numerators) != denominator:
                    where = f"letter {letter!r}, state {self.states[s]!r}"
                    try:
                        total = str(Fraction(sum(numerators), denominator))
                    except ValueError:  # more digits than int-to-str allows
                        raise ValidationError(
                            f"{where}: row sum ≠ 1, too long to print"
                        ) from None
                    raise ValidationError(f"{where}: row sum {total} ≠ 1")
                rows.append(numerators)
            if invalid < dim * dim:
                entry = matrix[invalid // dim][invalid % dim]
                if not isinstance(entry, Fraction):
                    raise ValidationError(
                        f"letter {letter!r}: non-rational entry {entry!r}"
                    )
                raise ValidationError(f"letter {letter!r}: entry {entry} outside [0,1]")
            scaled.append((tuple(rows), denominator))
        object.__setattr__(self, "_scaled_letters", tuple(scaled))
        # Fields given as lists or sets would not compare or hash.  Those
        # `automaton_from_json` passes are frozen already, and kept.
        frozen = (
            type(self.states) is type(self.alphabet) is type(self.matrices) is tuple
            and type(self.final) is frozenset
            and all([type(row) is tuple for m in self.matrices for row in (m, *m)])
        )
        if not frozen:
            object.__setattr__(self, "states", tuple(self.states))
            object.__setattr__(self, "alphabet", tuple(self.alphabet))
            object.__setattr__(self, "final", frozenset(self.final))
            object.__setattr__(
                self, "matrices", tuple([tuple(map(tuple, m)) for m in self.matrices])
            )

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def letter_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.alphabet)}

    @cached_property
    def final_indices(self) -> frozenset[int]:
        return frozenset(self.state_index[f] for f in self.final)

    @cached_property
    def min_transition_probability(self) -> Fraction:
        """The smallest strictly positive entry over all letter matrices (p_min).

        Each letter's least positive numerator is compared, over its
        denominator, by cross-multiplication; one `Fraction` is built.
        """
        least, least_den = 1, 1
        for rows, denominator in self._scaled_letters:
            x = min(filter(None, chain.from_iterable(rows)))
            if x * least_den < least * denominator:
                least, least_den = x, denominator
        return Fraction(least, least_den)

    @cached_property
    def _sparse_letters(self) -> tuple[tuple[_SparseRows, int], ...]:
        """Per letter: its sparse rows and its common denominator."""
        return tuple(
            (
                tuple(tuple(compress(enumerate(row), row)) for row in rows),
                denominator,
            )
            for rows, denominator in self._scaled_letters
        )

    def _letter(self, letter: str) -> int:
        try:
            return self.letter_index[letter]
        except KeyError:
            raise ValidationError(f"unknown letter {letter!r}") from None

    def matrix(self, letter: str) -> Matrix:
        return self.matrices[self._letter(letter)]

    def scaled_matrix(self, letter: str) -> ScaledMatrix:
        return self._scaled_letters[self._letter(letter)]

    def word_matrix(self, word: Iterable[str]) -> Matrix:
        """Exact product of the letter matrices of `word` (identity for the empty word)."""
        result = scaled_identity(len(self.states))
        for letter in word:
            result = scaled_product(result, self.scaled_matrix(letter))
        return unscale_matrix(result)

    @cached_property
    def scaled_start(self) -> SparseVector:
        """The initial distribution: probability 1 on the initial state."""
        return ((self.state_index[self.initial], 1),), 1

    def scaled_step(self, distribution: SparseVector, letter: str) -> SparseVector:
        """The sparse `distribution` after `letter`, over the letter's nonzero
        entries; the successor's nonzero entries are those it reaches."""
        rows, letter_denominator = self._sparse_letters[self._letter(letter)]
        pairs, denominator = distribution
        successor: dict[int, int] = {}
        get = successor.get
        for s, x in pairs:
            for t, p in rows[s]:
                successor[t] = get(t, 0) + x * p
        targets = sorted(successor)
        numerators = list(map(successor.__getitem__, targets))
        denominator *= letter_denominator
        g = _divisor(numerators, denominator)
        if g != 1:
            quotient = _quotient(g)
            numerators, denominator = map(quotient, numerators), quotient(denominator)
        return tuple(zip(targets, numerators)), denominator

    def scaled_after(self, matrix: ScaledMatrix, letter: str) -> ScaledMatrix:
        """The scaled `matrix` times `letter`'s, over the letter's nonzero entries."""
        rows, letter_denominator = self._sparse_letters[self._letter(letter)]
        left, denominator = matrix
        width, products = len(rows), []
        for row in left:
            product = [0] * width
            for x, targets in zip(row, rows):
                if x:
                    for t, p in targets:
                        product[t] += x * p
            products.append(product)
        return _reduced_rows(products, denominator * letter_denominator)

    def acceptance_probability(self, word: Iterable[str]) -> Fraction:
        """Probability that reading `word` from the initial state ends in a final state."""
        distribution = self.scaled_start
        for letter in word:
            distribution = self.scaled_step(distribution, letter)
        pairs, denominator = distribution
        final = self.final_indices
        return Fraction(sum(x for s, x in pairs if s in final), denominator)


# ---------------------------------------------------------------------------
# Interchange format


# Most digits a probability or threshold text may give its exponent's
# magnitude, or its value's numerator or denominator: Python's default
# limit on the digits of a conversion between int and str.  Past it the
# value could not be printed in a message or a report, and an exponent of
# millions would take seconds for `Fraction` to build.
_MAX_DIGITS = 4300
_DIGITS_LIMIT = 10**_MAX_DIGITS
# The exponent at the end of a text in exponent notation, as `Fraction` reads it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _fraction_from_text(text: str) -> Fraction:
    """`Fraction(text)`, refusing values too long to print.

    Raises ValueError (or ZeroDivisionError, as `Fraction` does) for a text
    that is not a rational, for an exponent of magnitude above `_MAX_DIGITS`,
    checked before `Fraction` reads the text, and for a value whose
    numerator or denominator has more than `_MAX_DIGITS` digits.
    """
    match = _EXPONENT.search(text)
    if match is not None:
        digits = match.group(1).lstrip("+-").replace("_", "")
        if len(digits) > _MAX_DIGITS or int(digits) > _MAX_DIGITS:
            raise ValueError(f"exponent of magnitude above {_MAX_DIGITS}")
    value = Fraction(text)
    if abs(value.numerator) >= _DIGITS_LIMIT or value.denominator >= _DIGITS_LIMIT:
        raise ValueError(f"more than {_MAX_DIGITS} digits")
    return value


def _parse_probability(value: object) -> Fraction:
    if isinstance(value, bool):
        raise ValidationError(f"probability must be a rational string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return _fraction_from_text(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad probability {value!r}: {exc}") from None
    raise ValidationError(f"probability must be a rational string, got {value!r}")


def _check_array(value: object, what: str) -> Sequence:
    """`value`, which must be a JSON array: a list, or a tuple."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be an array, got {value!r}")
    return value


def automaton_from_json(document: Mapping) -> Automaton:
    """Build and validate an automaton from an interchange-format dictionary."""
    if type(document) is not dict and not isinstance(document, Mapping):
        raise ValidationError("document must be a JSON object")
    for field in ("states", "alphabet", "initial", "final", "transitions"):
        if field not in document:
            raise ValidationError(f"missing field {field!r}")
    states = tuple(
        _check_name(s, "state name") for s in _check_array(document["states"], "states")
    )
    alphabet = tuple(
        _check_name(a, "letter name")
        for a in _check_array(document["alphabet"], "alphabet")
    )
    if len(set(states)) != len(states):
        raise ValidationError("duplicate state names")
    index = {s: i for i, s in enumerate(states)}
    transitions = document["transitions"]
    if type(transitions) is not dict and not isinstance(transitions, Mapping):
        raise ValidationError("transitions must be an object keyed by letter")
    for letter in transitions:
        if letter not in alphabet:
            raise ValidationError(f"transitions mention unknown letter {letter!r}")
    dim = len(states)
    # One `Fraction` per distinct probability text, shared by its entries.
    parsed: dict[str, Fraction] = {}
    matrices = []
    for letter in alphabet:
        rows = [[ZERO] * dim for _ in range(dim)]
        seen: set[tuple[int, int]] = set()
        triples = transitions.get(letter, [])
        for triple in _check_array(triples, f"letter {letter!r}: transitions"):
            if not isinstance(triple, (list, tuple)) or len(triple) != 3:
                raise ValidationError(
                    f"letter {letter!r}: each transition must be [from, to, probability]"
                )
            src, dst, prob = triple
            for state in (src, dst):
                if not isinstance(state, str):
                    raise ValidationError(
                        f"letter {letter!r}: state name must be a string, got {state!r}"
                    )
                if state not in index:
                    raise ValidationError(f"letter {letter!r}: unknown state {state!r}")
            key = (index[src], index[dst])
            if key in seen:
                raise ValidationError(
                    f"letter {letter!r}: duplicate transition {src!r} -> {dst!r}"
                )
            seen.add(key)
            if isinstance(prob, str):
                entry = parsed.get(prob)
                if entry is None:
                    entry = parsed[prob] = _parse_probability(prob)
            else:
                entry = _parse_probability(prob)
            rows[key[0]][key[1]] = entry
        matrices.append(tuple(tuple(row) for row in rows))
    final = _check_array(document["final"], "final")
    if not all(isinstance(f, str) for f in final):
        raise ValidationError("final must be an array of state names")
    return Automaton(
        states=states,
        alphabet=alphabet,
        initial=document["initial"] if isinstance(document["initial"], str) else
        _check_name(document["initial"], "initial state"),
        final=frozenset(final),
        matrices=tuple(matrices),
    )


def parse_automaton(text: str) -> Automaton:
    """Parse an interchange-format JSON document into a validated automaton."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:  # an integer past the digits `int` reads from a string
        raise ValidationError(
            f"an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:  # arrays or objects nested past the parser's stack
        raise ValidationError("the document is nested too deeply to read") from None
    return automaton_from_json(document)


def automaton_to_json(automaton: Automaton) -> dict:
    """Serialize to the interchange format (zero entries omitted)."""
    transitions: dict[str, list] = {}
    for letter, matrix in zip(automaton.alphabet, automaton.matrices):
        triples = []
        for s, row in enumerate(matrix):
            for t, entry in enumerate(row):
                if entry:
                    triples.append(
                        [automaton.states[s], automaton.states[t], str(entry)]
                    )
        transitions[letter] = triples
    return {
        "states": list(automaton.states),
        "alphabet": list(automaton.alphabet),
        "initial": automaton.initial,
        "final": [s for s in automaton.states if s in automaton.final],
        "transitions": transitions,
    }


# ---------------------------------------------------------------------------
# Compositions


def _require_same_alphabet(a: Automaton, b: Automaton) -> tuple[str, ...]:
    if set(a.alphabet) != set(b.alphabet):
        raise ValidationError(
            f"alphabet mismatch: {sorted(a.alphabet)} vs {sorted(b.alphabet)}"
        )
    return a.alphabet


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name = "_" + name
    return name


def parallel_composition(a: Automaton, b: Automaton) -> Automaton:
    """Disjoint union behind a fresh initial state.

    For every letter the fresh initial state moves with probability 1/3 each
    to itself, to A's initial state, and to B's initial state; final states
    are the union of both components' final states.
    """
    alphabet = _require_same_alphabet(a, b)
    a_names = {s: f"A.{s}" for s in a.states}
    b_names = {s: f"B.{s}" for s in b.states}
    taken = set(a_names.values()) | set(b_names.values())
    init = _fresh("init", taken)
    states = (init,) + tuple(a_names[s] for s in a.states) + tuple(
        b_names[s] for s in b.states
    )
    index = {s: i for i, s in enumerate(states)}
    dim = len(states)
    third = Fraction(1, 3)
    matrices = []
    for letter in alphabet:
        rows = [[ZERO] * dim for _ in range(dim)]
        rows[0][0] = third
        rows[0][index[a_names[a.initial]]] = third
        rows[0][index[b_names[b.initial]]] = third
        for component, names in ((a, a_names), (b, b_names)):
            matrix = component.matrix(letter)
            for s, row in enumerate(matrix):
                si = index[names[component.states[s]]]
                for t, entry in enumerate(row):
                    if entry:
                        rows[si][index[names[component.states[t]]]] = entry
        matrices.append(tuple(tuple(row) for row in rows))
    final = frozenset(a_names[s] for s in a.final) | frozenset(
        b_names[s] for s in b.final
    )
    return Automaton(states, alphabet, init, final, tuple(matrices))


def synchronized_product(a: Automaton, b: Automaton) -> Automaton:
    """Cartesian product running both automata on the same word.

    Transition probabilities multiply; a pair is final when both components
    are final (intersection semantics).
    """
    alphabet = _require_same_alphabet(a, b)
    separator = "|"
    while len({f"{s}{separator}{t}" for s in a.states for t in b.states}) != len(
        a.states
    ) * len(b.states):
        separator += "|"
    name = {
        (s, t): f"{s}{separator}{t}" for s in a.states for t in b.states
    }
    pairs = [(s, t) for s in a.states for t in b.states]
    states = tuple(name[p] for p in pairs)
    index = {p: i for i, p in enumerate(pairs)}
    dim = len(pairs)
    matrices = []
    for letter in alphabet:
        ma, mb = a.matrix(letter), b.matrix(letter)
        rows = [[ZERO] * dim for _ in range(dim)]
        for (s, t), i in index.items():
            row_a = ma[a.state_index[s]]
            row_b = mb[b.state_index[t]]
            for s2, pa in enumerate(row_a):
                if not pa:
                    continue
                for t2, pb in enumerate(row_b):
                    if pb:
                        rows[i][index[(a.states[s2], b.states[t2])]] = pa * pb
        matrices.append(tuple(tuple(row) for row in rows))
    final = frozenset(
        name[(s, t)] for s in a.final for t in b.final
    )
    return Automaton(
        states, alphabet, name[(a.initial, b.initial)], final, tuple(matrices)
    )
