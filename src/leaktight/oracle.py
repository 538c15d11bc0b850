"""Ground-truth numerics: brute-force values, word families, reified expressions.

Everything here is exact rational arithmetic.  Expressions over letters are
turned into concrete words (an iterate becomes a large power of its body) or
evaluated directly as matrix products with memoized powers; the resulting
probabilities are compared against the boolean claims of the limit words.

`check_consistency` and `check_lower_bound` reify a closure on the
back-pointers its saturation stores, not on its expressions: each saturated
element is an earlier one times one generator, an iterate, a letter or the
identity, so its matrix is one product (by the letter's nonzero entries
when the generator is a letter), one power, or a letter's matrix, computed
once per check in discovery order by `Saturation.fold`, which counts each
element's depth on the same back-pointers.  Both checks decide on the
reified word's scaled matrix and on the rows of the element's key, the
word's for the claims and, in the lower bound, the support's, comparing
int numerators against their thresholds; they decode no element and build
no expression node.  Each report is a plain record of the closure, the
element's index and the check's findings: it equals only itself, its
`repr` leaves out the closure, and its `element` and `expression` are read
through the saturation's memo, so its expression is the very node
`provenance[element]` returns.  `expression_matrix` evaluates any
expression node by node; its memo belongs to the automaton it was first
used with, is keyed by node identity and holds each node it keys, so no
id is reused while the memo lives.
`check_consistency` checks the two thresholds on their numerators and
denominators, scales them to each matrix's denominator, and decides each
element's verdict in one loop that stops at the first failing entry; its
report makes the per-entry `EntryCheck`s only when they are read.  A
lower-bound report holds one `EntryCheck` per claimed edge.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

from .automaton import (
    Automaton,
    Matrix,
    ScaledMatrix,
    scaled_identity,
    scaled_power,
    scaled_product,
    unscale_matrix,
)
from .errors import CapExceeded, ValidationError
from .leaks import ExtendedClosure, ExtendedLimitWord
from .limitword import LimitWord
from .monoid import Closure, MonoidClosure
from .sharpexpr import Concat, Iterate, Letter, SharpExpression, TreeNode
from .sharpexpr import fold, subterms, unfold

__all__ = [
    "DEFAULT_BUDGET",
    "brute_force_value",
    "FamilyAtom",
    "FamilyPower",
    "FamilySeq",
    "WordFamily",
    "parse_family",
    "family_word",
    "evaluate_family_at",
    "evaluate_family",
    "reification_exponent",
    "reify",
    "expression_matrix",
    "EntryCheck",
    "ReificationReport",
    "validate_thresholds",
    "check_consistency",
    "LowerBoundReport",
    "check_lower_bound",
]

DEFAULT_BUDGET = 200_000
# Largest exponent 2^depth that `check_lower_bound` raises p_min to.
EXPONENT_CAP = 2**20


# ---------------------------------------------------------------------------
# Brute force over bounded-length words


def brute_force_value(
    automaton: Automaton, max_len: int, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Exact maximum acceptance probability over words of length ≤ max_len.

    Breadth-first over state distributions with exact-rational
    deduplication: two words inducing the same distribution have the same
    futures, so only distinct distributions are expanded.  A distribution
    is kept in the reduced sparse form `Automaton.scaled_step` returns,
    which is unique, so equal distributions are equal keys.
    """
    if max_len < 0:
        raise ValidationError("max_len must be nonnegative")
    final = automaton.final_indices
    start = automaton.scaled_start
    # best = best_num / best_den, compared by cross-multiplication.
    best_num, best_den = sum(x for s, x in start[0] if s in final), start[1]
    seen = {start}
    frontier = [start]
    explored = 1
    for _ in range(max_len):
        if not frontier or best_num == best_den:
            break
        next_frontier = []
        for distribution in frontier:
            for letter in automaton.alphabet:
                successor = automaton.scaled_step(distribution, letter)
                if successor in seen:
                    continue
                explored += 1
                if explored > budget:
                    raise CapExceeded(
                        f"budget exceeded: more than {budget} distributions"
                    )
                seen.add(successor)
                pairs, denominator = successor
                accepted = sum(x for s, x in pairs if s in final)
                if accepted * best_den > best_num * denominator:
                    best_num, best_den = accepted, denominator
                next_frontier.append(successor)
        frontier = next_frontier
    return Fraction(best_num, best_den)


# ---------------------------------------------------------------------------
# Word families: `(b a^n)^N`-style templates


@dataclass(frozen=True, eq=False, repr=False)
class FamilyAtom(TreeNode):
    letter: str


@dataclass(frozen=True, eq=False, repr=False)
class FamilyPower(TreeNode):
    base: "FamilyNode"
    exponent: Union[int, str]


@dataclass(frozen=True, eq=False, repr=False)
class FamilySeq(TreeNode):
    parts: tuple["FamilyNode", ...]

    def __post_init__(self) -> None:
        # Parts given as a list would fail to hash and to spell.
        object.__setattr__(self, "parts", tuple(self.parts))


FamilyNode = Union[FamilyAtom, FamilyPower, FamilySeq]


@dataclass(frozen=True)
class WordFamily:
    """A parameterized word template."""

    template: FamilyNode

    def parameters(self) -> frozenset[str]:
        return _free_parameters(self.template)


def _family_parts(node: FamilyNode) -> tuple[FamilyNode, ...]:
    if isinstance(node, FamilyPower):
        return (node.base,)
    return node.parts if isinstance(node, FamilySeq) else ()


def _own_parameters(node: FamilyNode, values: list) -> frozenset[str]:
    named = isinstance(node, FamilyPower) and isinstance(node.exponent, str)
    return frozenset([node.exponent] if named else []).union(*values)


def _free_parameters(node: FamilyNode, memo: Optional[dict] = None) -> frozenset[str]:
    """The parameters named under `node`; `memo` keeps each subtree's."""
    return fold(node, _family_parts, _own_parameters, memo)


# `(`, `)`, `^`, or a run of anything else but whitespace (`\s` is
# exactly `str.isspace`).
_FAMILY_TOKEN = re.compile(r"[()^]|[^\s()^]+")


def _tokenize_family(text: str) -> list[tuple[int, str]]:
    return [(match.start(), match.group()) for match in _FAMILY_TOKEN.finditer(text)]


def parse_family(text: str) -> WordFamily:
    """Parse a template like `(b a^n)^N` into a word family.

    Atoms are whitespace-separated letters; `^` raises the preceding letter
    or parenthesized group to a power, either a literal natural or a named
    parameter bound later.
    """
    tokens = _tokenize_family(text)
    pos = 0

    def parse_exponent(offset: int) -> Union[int, str]:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos][1] in "()^":
            raise ValidationError(
                f"family syntax error at offset {offset}: '^' needs an exponent"
            )
        _, token = tokens[pos]
        pos += 1
        if token.isdecimal():  # exactly the digit strings `int` accepts
            try:
                return int(token)
            except ValueError:  # past Python's limit on digits `int` reads
                raise ValidationError(
                    f"family syntax error at offset {offset}: exponent has "
                    f"{len(token)} digits, too many to read"
                ) from None
        if token.isidentifier():
            return token
        raise ValidationError(
            f"family syntax error at offset {offset}: exponent {token!r} is "
            "neither a natural number nor a parameter name"
        )

    def sequence(parts: list[FamilyNode], offset: int) -> FamilyNode:
        if not parts:
            raise ValidationError(
                f"family syntax error at offset {offset}: empty template"
            )
        return parts[0] if len(parts) == 1 else FamilySeq(tuple(parts))

    # Open groups, each with the offset of its '(' and the parts before it.
    groups: list[tuple[int, list[FamilyNode]]] = []
    parts: list[FamilyNode] = []
    while pos < len(tokens):
        offset, token = tokens[pos]
        pos += 1
        if token == "(":
            groups.append((offset, parts))
            parts = []
            continue
        if token == ")":
            if not groups:
                raise ValidationError(
                    f"family syntax error at offset {offset}: unmatched ')'"
                )
            node = sequence(parts, offset)
            parts = groups.pop()[1]
        elif token == "^":
            raise ValidationError(
                f"family syntax error at offset {offset}: '^' without a base"
            )
        else:
            node = FamilyAtom(token)
        if pos < len(tokens) and tokens[pos][1] == "^":
            caret_offset = tokens[pos][0]
            pos += 1
            node = FamilyPower(base=node, exponent=parse_exponent(caret_offset))
        parts.append(node)
    template = sequence(parts, len(tokens))
    if groups:
        raise ValidationError(
            f"family syntax error at offset {groups[-1][0]}: unclosed '('"
        )
    return WordFamily(template)


def _resolve_exponent(
    exponent: Union[int, str], bindings: Mapping[str, int]
) -> int:
    if isinstance(exponent, int):
        value = exponent
    else:
        if exponent not in bindings:
            raise ValidationError(f"unbound parameter {exponent!r}")
        value = bindings[exponent]
    if not isinstance(value, int) or value < 0:
        raise ValidationError(f"exponent {exponent!r} must bind a natural number")
    return value


def family_word(
    family: WordFamily,
    bindings: Optional[Mapping[str, int]] = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[str, ...]:
    """Instantiate the template into a concrete word."""
    bindings = {} if bindings is None else bindings

    def shape(node: FamilyNode) -> tuple:
        if isinstance(node, FamilyPower):
            return (), (node.base,), _resolve_exponent(node.exponent, bindings)
        if isinstance(node, FamilySeq):
            return (), node.parts, 1
        return (node.letter,), (), 1

    return _spell(family.template, shape, budget, "instantiated word")


def _spell(root, shape, budget: int, what: str) -> tuple[str, ...]:
    """The letters of `root`'s expansion, left to right, within `budget`.

    `shape(node)` is (letters, children, times): the node writes `letters`,
    then its children in order, `times` over.  Nodes are first met in the
    order a left-to-right recursion would meet them, and subtrees of length
    0 are skipped, so an empty body is never repeated.
    """
    lengths: dict = {}

    def length(node: object, values: list[int]) -> int:
        letters, _, times = shape(node)
        return len(letters) + times * sum(values)

    total = fold(root, lambda node: shape(node)[1], length, lengths)
    if total > budget:
        raise CapExceeded(f"budget exceeded: {what} has length {total} > {budget}")

    def parts(node: object) -> tuple:
        letters, children, times = shape(node)
        return letters + children * times if lengths[id(node)][1] else ()

    return tuple(unfold(root, parts))


def _family_matrix(
    automaton: Automaton,
    template: FamilyNode,
    bindings: Mapping[str, int],
    memo: dict,
) -> ScaledMatrix:
    """The template's scaled matrix.  `memo` is keyed by each node's
    identity with the bindings of its own parameters, so grid points that
    agree on a block's parameters share its matrix."""
    free: dict = {}
    _free_parameters(template, free)

    def key(node: FamilyNode) -> tuple:
        names = free[id(node)][1]
        return id(node), tuple(sorted((k, bindings[k]) for k in names))

    def matrix(node: FamilyNode, blocks: list[ScaledMatrix]) -> ScaledMatrix:
        if isinstance(node, FamilyAtom):
            return automaton.scaled_matrix(node.letter)
        if isinstance(node, FamilyPower):
            return scaled_power(
                blocks[0], _resolve_exponent(node.exponent, bindings)
            )
        if not blocks:
            raise ValidationError("empty template")
        return functools.reduce(scaled_product, blocks)

    return fold(template, _family_parts, matrix, memo, key)


def evaluate_family_at(
    automaton: Automaton,
    family: WordFamily,
    bindings: Optional[Mapping[str, int]] = None,
) -> Fraction:
    """Exact acceptance probability of one instantiation of the family."""
    return _family_value(automaton, family, {} if bindings is None else bindings, {})


def _family_value(
    automaton: Automaton, family: WordFamily, bindings: Mapping[str, int], memo: dict
) -> Fraction:
    """`evaluate_family_at`, sharing `memo` with the automaton's other
    instantiations of the family."""
    missing = family.parameters() - set(bindings)
    if missing:
        raise ValidationError(f"unbound parameter {sorted(missing)[0]!r}")
    rows, denominator = _family_matrix(automaton, family.template, bindings, memo)
    row = rows[automaton.state_index[automaton.initial]]
    return Fraction(sum(row[f] for f in automaton.final_indices), denominator)


def evaluate_family(
    automaton: Automaton,
    family: WordFamily,
    grid: Mapping[str, Sequence[int]],
) -> dict[tuple[tuple[str, int], ...], Fraction]:
    """Exact acceptance probabilities over a grid of parameter values.

    Matrix powers of inner blocks are shared across grid points that agree
    on the block's own parameters.
    """
    names = sorted(grid)
    memo: dict = {}
    table: dict[tuple[tuple[str, int], ...], Fraction] = {}
    for values in itertools.product(*(grid[name] for name in names)):
        point = tuple(zip(names, values))
        table[point] = _family_value(automaton, family, dict(point), memo)
    return table


# ---------------------------------------------------------------------------
# Reification of expressions into concrete words


def reification_exponent(expression: SharpExpression, n: int) -> int:
    """g(n) = n · (number of states)!, the repetition count for one iterate."""
    return n * math.factorial(expression.word.dim)


def reify(
    expression: SharpExpression, n: int, budget: int = DEFAULT_BUDGET
) -> tuple[str, ...]:
    """Substitute the expression into a concrete word at parameter n.

    A letter stands for itself, concatenation concatenates, and an iterate
    repeats its body's word g(n) = n·(|Q|!) times.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    g = reification_exponent(expression, n)

    def shape(node: SharpExpression) -> tuple:
        if isinstance(node, Concat):
            return (), (node.left, node.right), 1
        if isinstance(node, Iterate):
            return (), (node.child,), g
        return ((node.name,) if isinstance(node, Letter) else ()), (), 1

    return _spell(expression, shape, budget, "reified word")


def expression_matrix(
    automaton: Automaton,
    expression: SharpExpression,
    n: int,
    memo: Optional[dict] = None,
) -> Matrix:
    """The exact transition matrix of reify(expression, n), without the word.

    Structural evaluation with fast matrix powers: each node is computed
    once per n via the memo, which may be shared across calls on the
    automaton it was first used with, and raises ValidationError on any
    other.  The memo holds that automaton under the key None, and maps n
    to a table keyed by node identity that holds the node with its scaled
    matrix (`automaton.ScaledMatrix`), so a node's id cannot be reused
    while the memo lives.  Equal nodes that are distinct objects, such as
    the results of two `parse_expression` calls, are each evaluated once;
    closure provenance shares its nodes, so there every repeat is found.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    table: dict = {}
    if memo is not None:
        if memo.setdefault(None, automaton) is not automaton:
            raise ValidationError("expression_matrix memo is another automaton's")
        table = memo.setdefault(n, {})

    def matrix(node: SharpExpression, values: list[ScaledMatrix]) -> ScaledMatrix:
        if isinstance(node, Concat):
            return scaled_product(values[0], values[1])
        if isinstance(node, Iterate):
            return scaled_power(values[0], reification_exponent(node, n))
        if isinstance(node, Letter):
            return automaton.scaled_matrix(node.name)
        return scaled_identity(len(automaton.states))

    return unscale_matrix(fold(expression, subterms, matrix, table))


def _reified(
    automaton: Automaton, closure: Closure, n: int
) -> Iterator[tuple[int, ScaledMatrix, int]]:
    """Each element of the closure in discovery order, as its index in the
    saturation, the scaled matrix of its expression reified at n, and its
    depth, computed from its back-pointer by `Saturation.fold`: a product
    is its factors' product, by the letter's nonzero entries when the right
    factor is a letter, one level over the deeper factor; an iterate is its
    body's matrix to the power g(n), one level over the body; a letter and
    the identity are their own matrices, at depth 0.  The closure must be
    over the automaton's states."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    dim = len(automaton.states)
    if len(closure.automaton.states) != dim:
        raise ValidationError("report must cover every state pair")
    one = scaled_identity(dim), 0
    g = n * math.factorial(dim)
    after, letter_matrix = automaton.scaled_after, automaton.scaled_matrix

    def letter(j: int, name: str) -> tuple[ScaledMatrix, int]:
        return letter_matrix(name), 0

    def product(j: int, left, right, by: Optional[str]) -> tuple[ScaledMatrix, int]:
        depth = 1 + max(left[1], right[1])
        if by is None:
            return scaled_product(left[0], right[0]), depth
        return after(left[0], by), depth

    def iterate(j: int, body) -> tuple[ScaledMatrix, int]:
        return scaled_power(body[0], g), 1 + body[1]

    saturation = closure._saturation
    values: list = [None] * len(saturation)
    for i in closure._indices:
        matrix, depth = saturation.fold(
            i, values, lambda j: one, letter, product, iterate
        )
        yield i, matrix, depth


# ---------------------------------------------------------------------------
# Consistency: measured probabilities against claimed bits


@dataclass(frozen=True)
class EntryCheck:
    """One checked entry; `measured` is built from its two ints when read,
    and `repr` leaves them out, as they can be too long to print."""

    s: int
    t: int
    claimed: int
    numerator: int = field(repr=False)
    denominator: int = field(repr=False)
    ok: bool

    @property
    def measured(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def _node(closure: Closure, i: int) -> SharpExpression:
    """The expression of element i of `closure`'s saturation, from its memo.

    Apart from `_ElementReport.expression`, whose body would otherwise read
    `.expression` and look recursive to the hygiene tests."""
    return closure._saturation.expression(i)


@dataclass(frozen=True, eq=False)
class _ElementReport:
    """A check's report on the element at `index` of `closure`'s saturation.

    A report is a plain record: it equals only itself, and its `repr`
    leaves out the closure.  `element` and `expression` are read through
    the saturation's memo, which decodes each word and builds each node at
    most once, so `expression` is the node `closure.provenance` maps
    `element` to.
    """

    closure: Closure = field(repr=False)
    index: int

    @property
    def element(self) -> Union[LimitWord, ExtendedLimitWord]:
        return self.closure._wrap(self.closure._saturation.words(self.index))

    @property
    def expression(self) -> SharpExpression:
        return _node(self.closure, self.index)


@dataclass(frozen=True, eq=False)
class ReificationReport(_ElementReport):
    """Thresholded comparison of one element against its reified expression.

    `matrix` is the exact scaled matrix of the reified word (left out of
    `repr`, as its ints can be too long to print), and `ok` the verdict
    `check_consistency` decided on it: every entry claimed 0 is at most
    `zero_eps` and every entry claimed 1 at least `one_delta`.  The
    per-entry `EntryCheck`s, row-major, are built when `entries` is first
    read, by the same integer rule as the verdict, on the key's rows.
    """

    n: int
    matrix: ScaledMatrix = field(repr=False)
    zero_eps: Fraction
    one_delta: Fraction
    ok: bool

    @functools.cached_property
    def entries(self) -> tuple[EntryCheck, ...]:
        rows, denominator = self.matrix
        eps, delta = self.zero_eps, self.one_delta
        zero_max, one_min = _bounds(
            eps.numerator, eps.denominator, delta.numerator, delta.denominator, denominator
        )
        claims = self.closure._saturation.rows(self.index)
        checks = []
        for s, (bits, row) in enumerate(zip(claims, rows)):
            for t, x in enumerate(row):
                claimed = bits >> t & 1
                ok = x >= one_min if claimed else x <= zero_max
                checks.append(EntryCheck(s, t, claimed, x, denominator, ok))
        return tuple(checks)

    @property
    def status(self) -> str:
        return "pass" if self.ok else f"inconclusive at n={self.n}"


def _bounds(e: int, f: int, d: int, g: int, denominator: int) -> tuple[int, int]:
    """The threshold rule on ints: with zero_eps = e/f and one_delta = d/g,
    measured = x / denominator is at most zero_eps iff x ≤ zero_max, and at
    least one_delta iff x ≥ one_min; returns (zero_max, one_min)."""
    return e * denominator // f, -(-d * denominator // g)


def _passes(claims: tuple[int, ...], rows: tuple, zero_max: int, one_min: int) -> bool:
    """Whether every entry meets its bound, row by row up to the first that
    fails; bit t of `claims[s]` is the claim on entry (s, t)."""
    for bits, row in zip(claims, rows):
        for t, x in enumerate(row):
            if x < one_min if bits >> t & 1 else x > zero_max:
                return False
    return True


def validate_thresholds(
    zero_eps: Fraction, one_delta: Fraction
) -> tuple[int, int, int, int]:
    """Require 0 ≤ zero_eps < 1 and 0 < one_delta ≤ 1, checked on ints, and
    return zero_eps = e/f and one_delta = d/g as (e, f, d, g), reduced, with
    f and g positive."""
    e, f = _ratio(zero_eps)
    if not 0 <= e < f:
        raise ValidationError(f"zero_eps must be in [0, 1), got {zero_eps}")
    d, g = _ratio(one_delta)
    if not 0 < d <= g:
        raise ValidationError(f"one_delta must be in (0, 1], got {one_delta}")
    return e, f, d, g


def _ratio(value) -> tuple[int, int]:
    """An exact number as a reduced (numerator, positive denominator); a NaN
    or an infinity as -1/1, which is in neither threshold's range."""
    try:
        return value.as_integer_ratio()
    except (ValueError, OverflowError):
        return -1, 1


def check_consistency(
    automaton: Automaton,
    closure: MonoidClosure,
    n: int = 12,
    zero_eps: Fraction = Fraction(1, 1000),
    one_delta: Fraction = Fraction(1, 100),
) -> list[ReificationReport]:
    """Check every closure element against measured probabilities.

    For each element's expression, the exact matrix of the reified word at
    parameter n is computed; entries claimed 0 must have measured
    probability ≤ zero_eps and entries claimed 1 must have measured
    probability ≥ one_delta.  A failing report means the check was
    inconclusive at this n, not that the claim is refuted.  The thresholds
    must satisfy 0 ≤ zero_eps < 1 and 0 < one_delta ≤ 1, and the closure
    must be over the automaton's states.  The matrices are computed on the
    closure's back-pointers, each once, in discovery order.  Each verdict
    is decided on ints: both thresholds are scaled to the matrix's
    denominator once, and the entries are read up to the first that fails.
    """
    e, f, d, g = validate_thresholds(zero_eps, one_delta)
    eps = zero_eps if type(zero_eps) is Fraction else Fraction(e, f)
    delta = one_delta if type(one_delta) is Fraction else Fraction(d, g)
    saturation = closure._saturation
    reports = []
    for i, matrix, _ in _reified(automaton, closure, n):
        rows, denominator = matrix
        zero_max, one_min = _bounds(e, f, d, g, denominator)
        ok = _passes(saturation.rows(i), rows, zero_max, one_min)
        reports.append(ReificationReport(closure, i, n, matrix, eps, delta, ok))
    return reports


# ---------------------------------------------------------------------------
# Lower bound: supports exactly, positive entries not too small


@dataclass(frozen=True, eq=False)
class LowerBoundReport(_ElementReport):
    """Support and lower-bound check of one extended element.

    `depth` is its expression's, counted on the back-pointers.  `entries`
    holds one `EntryCheck` (with `claimed == 1`) per edge the limit word
    claims, row-major; each was decided on ints against p_min^(2^depth).
    `ok` holds when the support is exact and every entry passes.
    """

    n: int
    depth: int
    support_exact: bool
    entries: tuple[EntryCheck, ...]
    ok: bool


def check_lower_bound(
    automaton: Automaton,
    closure: ExtendedClosure,
    n: int = 3,
) -> list[LowerBoundReport]:
    """Check supports exactly and positive entries against p_min^(2^depth).

    Only meaningful when the extended closure has no leak witness, which is
    enforced.  For each element (u, u₊) with expression e: the support of
    the reified word's matrix must equal u₊ exactly, and every entry where
    u claims 1 must be at least p_min^(2^d) with d the depth of e counting
    every concatenation and iterate as one level.  Each claimed entry is
    decided on ints by cross-multiplication; p_min's powers are computed
    once per exponent in the call, and an exponent past `EXPONENT_CAP`
    raises CapExceeded at the first entry that needs it.
    """
    if not isinstance(closure, ExtendedClosure):
        raise ValidationError("check_lower_bound needs an extended closure")
    if closure._saturation.leaks:
        raise ValidationError("precondition violation: leak witness present")
    p_min = automaton.min_transition_probability
    p, q = p_min.numerator, p_min.denominator
    # (q^exponent, p^exponent) per exponent compared so far.
    powers: dict[int, tuple[int, int]] = {}
    saturation = closure._saturation
    dim = len(automaton.states)
    reports = []
    for i, (rows, denominator), depth in _reified(automaton, closure, n):
        # The word's rows, then the support's.
        claims = saturation.rows(i)
        support = tuple(
            sum(1 << t for t, x in enumerate(row) if x) for row in rows
        )
        exponent = 2**depth
        entries, passed = [], True
        for s, (bits, row) in enumerate(zip(claims, rows)):
            for t, x in enumerate(row):
                if not bits >> t & 1:
                    continue
                # measured = x / denominator against p_min^exponent, on ints.
                if x * q >= denominator * p:
                    ok = True
                elif x == 0 or p == q:
                    ok = False
                elif exponent > EXPONENT_CAP:
                    raise CapExceeded(
                        f"budget exceeded: lower-bound exponent {exponent} "
                        f"> {EXPONENT_CAP}"
                    )
                else:
                    scale = powers.get(exponent)
                    if scale is None:
                        scale = powers[exponent] = q**exponent, p**exponent
                    ok = x * scale[0] >= denominator * scale[1]
                entries.append(EntryCheck(s, t, 1, x, denominator, ok))
                passed &= ok
        exact = support == claims[dim:]
        reports.append(
            LowerBoundReport(
                closure, i, n, depth, exact, tuple(entries), exact and passed
            )
        )
    return reports
