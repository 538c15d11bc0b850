"""Simulating a simple automaton by one with a single probabilistic transition.

A *simple* automaton has transition probabilities in {0, 1/2, 1}.  The basic
reduction serializes each letter into per-state check/coin/apply rounds over
a fresh alphabet, with one shared fair coin; acceptance is preserved exactly
on encoded words.  The full reduction adds a delay mechanism (a third of the
coin's mass waits for a restart) and an embedded deterministic checker so
that only well-formed encodings can approach the original value.  A separate
gadget simulates the fair coin itself with biased 1/3-2/3 retries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from .automaton import Automaton, Matrix
from .errors import ValidationError

__all__ = [
    "is_simple",
    "probabilistic_row_count",
    "hat_morphism",
    "ReductionOutput",
    "reduce_basic",
    "reduce_full",
    "third_simulation",
    "sharp_interleave",
    "hat_with_finish",
]

ZERO = Fraction(0)
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)
ONE = Fraction(1)

_RESERVED_LETTERS = frozenset({"star", "merge", "finish", "sharp"})
_RESERVED_STATES = frozenset({"s*", "s0", "s1", "wait", "sC", "sink"})


def is_simple(automaton: Automaton) -> bool:
    """Every transition probability is 0, 1/2 or 1."""
    return all(
        automaton.scaled_matrix(letter)[1] <= 2 for letter in automaton.alphabet
    )


def probabilistic_row_count(automaton: Automaton) -> int:
    """Number of (state, letter) rows with an entry strictly between 0 and 1."""
    count = 0
    for letter in automaton.alphabet:
        rows, denominator = automaton.scaled_matrix(letter)
        if denominator > 1:
            # A row's numerators sum to the denominator, so it has an entry
            # strictly between 0 and 1 exactly when none equals the denominator.
            count += sum(1 for row in rows if denominator not in row)
    return count


def _require_simple(automaton: Automaton) -> None:
    if not is_simple(automaton):
        raise ValidationError("input not simple")
    for letter in automaton.alphabet:
        if letter in _RESERVED_LETTERS:
            raise ValidationError(
                f"letter name {letter!r} is reserved by the reduction"
            )
        if ":" in letter:
            raise ValidationError(f"letter name {letter!r} must not contain ':'")
    for state in automaton.states:
        if state in _RESERVED_STATES:
            raise ValidationError(
                f"state name {state!r} is reserved by the reduction"
            )
        if ":" in state:
            raise ValidationError(f"state name {state!r} must not contain ':'")


def _row_targets(row: Sequence[Fraction]) -> tuple[int, ...]:
    """Supported target indices, ascending: one for a deterministic row, two for a coin row."""
    return tuple(t for t, entry in enumerate(row) if entry)


def hat_morphism(automaton: Automaton, word: Iterable[str]) -> tuple[str, ...]:
    """Encode a word letter by letter as check/star/apply rounds plus a merge.

    Each input letter expands to 3·|Q| + 1 output letters; the map is a
    morphism, so encoding a concatenation concatenates the encodings.
    """
    encoded: list[str] = []
    for letter in word:
        if letter not in automaton.letter_index:
            raise ValidationError(f"unknown letter {letter!r}")
        for state in automaton.states:
            encoded.append(f"check:{letter}:{state}")
            encoded.append("star")
            encoded.append(f"apply:{letter}:{state}")
        encoded.append("merge")
    return tuple(encoded)


def hat_with_finish(
    automaton: Automaton, word: Iterable[str], repeat: int = 1
) -> tuple[str, ...]:
    """`repeat` copies of the encoded word, each closed by a finish letter."""
    if repeat < 0:
        raise ValidationError("repeat must be nonnegative")
    block = hat_morphism(automaton, word) + ("finish",)
    return block * repeat


@dataclass(frozen=True)
class ReductionOutput:
    """A reduced automaton plus the data describing its fresh alphabet."""

    automaton: Automaton
    letter_map: Mapping[str, str]
    hat: Mapping[str, tuple[str, ...]]
    kind: str

    def __post_init__(self) -> None:
        if probabilistic_row_count(self.automaton) != 1:
            raise ValidationError(
                "reduction output must have exactly one probabilistic transition"
            )


def _letter_descriptions(automaton: Automaton, with_finish: bool) -> dict[str, str]:
    """The reduction's letters, in alphabet order, each with its description."""
    descriptions = {
        "star": "toss the shared coin at the coin state",
        "merge": "return every shadow copy to its plain state",
    }
    if with_finish:
        descriptions["finish"] = (
            "close a block: restart waiting mass, bank accepted mass, trap the rest"
        )
    for a in automaton.alphabet:
        for q in automaton.states:
            descriptions[f"check:{a}:{q}"] = (
                f"send state {q} to the coin for letter {a}"
            )
            descriptions[f"apply:{a}:{q}"] = (
                f"route the coin outcomes along letter {a} from state {q}"
            )
    return descriptions


class _RowBuilder:
    """Rows that default to self-loops until a state is redirected."""

    def __init__(self, states: Sequence[str]) -> None:
        self.index = {s: i for i, s in enumerate(states)}
        dim = len(states)
        self.rows = [[ZERO] * dim for _ in range(dim)]
        for i in range(dim):
            self.rows[i][i] = ONE

    def clear(self, src: str) -> list[Fraction]:
        i = self.index[src]
        row = self.rows[i]
        for t in range(len(row)):
            row[t] = ZERO
        return row

    def move(self, src: str, dst: str) -> None:
        row = self.clear(src)
        row[self.index[dst]] = ONE

    def split(self, src: str, shares: Mapping[str, Fraction]) -> None:
        row = self.clear(src)
        for dst, probability in shares.items():
            row[self.index[dst]] += probability

    def matrix(self) -> Matrix:
        return tuple(tuple(row) for row in self.rows)


def _bar(state: str) -> str:
    """The shadow copy that holds `state`'s mass until the merge."""
    return f"bar:{state}"


def _serialized_rounds(
    automaton: Automaton, states: Sequence[str], shares: Mapping[str, Fraction]
) -> Iterator[tuple[str, _RowBuilder]]:
    """Each letter of the serialization with its rows over `states`.

    Star splits the coin state `s*` by `shares`; merge returns every shadow
    copy to its plain state; check:a:q moves q to the coin, and apply:a:q
    routes the outcomes `s0` and `s1` to the shadows of a's targets from q,
    both to the same one when a is deterministic at q.  Letters come in the
    order of the reduced alphabet, finish left out, each with a fresh
    builder the caller may add rows to before it freezes them.
    """
    builder = _RowBuilder(states)
    builder.split("s*", shares)
    yield "star", builder
    builder = _RowBuilder(states)
    for q in automaton.states:
        builder.move(_bar(q), q)
    yield "merge", builder
    for a in automaton.alphabet:
        for q, row in zip(automaton.states, automaton.matrix(a)):
            builder = _RowBuilder(states)
            builder.move(q, "s*")
            yield f"check:{a}:{q}", builder
            targets = [_bar(automaton.states[t]) for t in _row_targets(row)]
            builder = _RowBuilder(states)
            builder.move("s0", targets[0])
            builder.move("s1", targets[-1])
            yield f"apply:{a}:{q}", builder


def _output(
    automaton: Automaton,
    states: Sequence[str],
    frozen: Mapping[str, Matrix],
    final: Iterable[str],
    hat: Mapping[str, tuple[str, ...]],
    kind: str,
) -> ReductionOutput:
    """The reduced automaton, its letters in the descriptions' order."""
    descriptions = _letter_descriptions(automaton, with_finish=kind == "full")
    reduced = Automaton(
        states=tuple(states),
        alphabet=tuple(descriptions),
        initial=automaton.initial,
        final=frozenset(final),
        matrices=tuple(frozen[letter] for letter in descriptions),
    )
    return ReductionOutput(
        automaton=reduced, letter_map=descriptions, hat=hat, kind=kind
    )


def reduce_basic(automaton: Automaton) -> ReductionOutput:
    """Simulate a simple automaton exactly with one probabilistic transition.

    Each original letter is read as a sequence of per-state rounds: check
    moves the round's state to the coin state, star tosses the shared fair
    coin, apply routes the two outcomes to shadow copies of the letter's
    targets, and a final merge drops all shadows back to plain states.
    Acceptance probabilities agree exactly on encoded words.
    """
    _require_simple(automaton)
    states = [*automaton.states, *map(_bar, automaton.states), "s*", "s0", "s1"]
    rounds = _serialized_rounds(automaton, states, {"s0": HALF, "s1": HALF})
    frozen = {letter: builder.matrix() for letter, builder in rounds}
    hat = {a: hat_morphism(automaton, (a,)) for a in automaton.alphabet}
    return _output(automaton, states, frozen, automaton.final, hat, "basic")


def reduce_full(automaton: Automaton) -> ReductionOutput:
    """One probabilistic transition, value preserved in the limit.

    On top of the basic construction, the coin diverts a third of its mass
    to a wait state; waiting mass restarts from the initial state at the
    next finish letter, so repeating an encoded block drives acceptance
    toward the original probability.  Mass in a final state at a finish is
    banked into a deterministic checker that keeps it only while the rest
    of the input is a sequence of well-formed blocks; all other mass at a
    finish falls into a sink.
    """
    _require_simple(automaton)
    hat = {a: hat_morphism(automaton, (a,)) for a in automaton.alphabet}
    # The checker reads a block a letter at a time, from `sC` through
    # c:a:1, ..., c:a:3n and back to `sC` on its last letter; `sC` stays
    # put on finish, and every other letter traps the checker in `sink`.
    checker: list[str] = []
    steps: dict[str, dict[str, str]] = {"finish": {"sC": "sC"}}
    for a, block in hat.items():
        path = [f"c:{a}:{j}" for j in range(1, len(block))]
        checker += path
        for src, letter, dst in zip(["sC", *path], block, [*path, "sC"]):
            steps.setdefault(letter, {})[src] = dst
    states = [
        *automaton.states,
        *map(_bar, automaton.states),
        *("s*", "s0", "s1", "wait", "sC"),
        *checker,
        "sink",
    ]

    def finish() -> Iterator[tuple[str, _RowBuilder]]:
        """Restart waiting mass, bank final mass, trap the rest."""
        builder = _RowBuilder(states)
        builder.move("wait", automaton.initial)
        for q in automaton.states:
            builder.move(q, "sC" if q in automaton.final else "sink")
            builder.move(_bar(q), "sink")
        builder.move("s0", "sink")
        builder.move("s1", "sink")
        yield "finish", builder

    shares = {"wait": THIRD, "s0": THIRD, "s1": THIRD}
    frozen: dict[str, Matrix] = {}
    for letter, builder in chain(
        _serialized_rounds(automaton, states, shares), finish()
    ):
        if letter != "star":
            # Every other letter parks coin mass at the wait state, finish
            # included: the wait rule has precedence for the coin.
            builder.move("s*", "wait")
        step = steps.get(letter, {})
        for state in ["sC", *checker]:
            builder.move(state, step.get(state, "sink"))
        frozen[letter] = builder.matrix()
    return _output(automaton, states, frozen, {"sC"}, hat, "full")


def third_simulation(automaton: Automaton) -> Automaton:
    """Replace every fair-coin row by a retry gadget with 1/3-2/3 branches.

    Each coin row gains three gadget states driven by a fresh letter: one
    round of two gadget steps decides each branch with probability 2/9 and
    returns to the start with probability 5/9, so after p rounds a branch
    has been taken with probability (1/2)·(1 − (5/9)^p); all entries of the
    result are 0, 1/3, 2/3 or 1.
    """
    _require_simple(automaton)
    coin_rows: list[tuple[str, str, int, int]] = []
    for a in automaton.alphabet:
        matrix = automaton.matrix(a)
        for q in automaton.states:
            targets = _row_targets(matrix[automaton.state_index[q]])
            if len(targets) == 2:
                coin_rows.append((a, q, targets[0], targets[1]))
    gadget: dict[tuple[str, str], tuple[str, str, str]] = {}
    extra: list[str] = []
    for a, q, _, _ in coin_rows:
        names = (f"g:{a}:{q}", f"g0:{a}:{q}", f"g1:{a}:{q}")
        gadget[(a, q)] = names
        extra.extend(names)
    states = list(automaton.states) + extra
    alphabet = list(automaton.alphabet) + ["sharp"]
    matrices: list[Matrix] = []
    for a in automaton.alphabet:
        builder = _RowBuilder(states)
        matrix = automaton.matrix(a)
        for q in automaton.states:
            row = matrix[automaton.state_index[q]]
            targets = _row_targets(row)
            if len(targets) == 2:
                builder.move(q, gadget[(a, q)][0])
            elif automaton.states[targets[0]] != q:
                builder.move(q, automaton.states[targets[0]])
        matrices.append(builder.matrix())
    builder = _RowBuilder(states)
    for a, q, low, high in coin_rows:
        entry, low_retry, high_retry = gadget[(a, q)]
        builder.split(entry, {low_retry: THIRD, high_retry: TWO_THIRDS})
        builder.split(
            low_retry, {entry: THIRD, automaton.states[low]: TWO_THIRDS}
        )
        builder.split(
            high_retry, {entry: TWO_THIRDS, automaton.states[high]: THIRD}
        )
    matrices.append(builder.matrix())
    return Automaton(
        states=tuple(states),
        alphabet=tuple(alphabet),
        initial=automaton.initial,
        final=frozenset(automaton.final),
        matrices=tuple(matrices),
    )


def sharp_interleave(word: Iterable[str], rounds: int) -> tuple[str, ...]:
    """Follow every letter with 2·rounds gadget steps."""
    if rounds < 0:
        raise ValidationError("rounds must be nonnegative")
    out: list[str] = []
    for letter in word:
        out.append(letter)
        out.extend(["sharp"] * (2 * rounds))
    return tuple(out)
