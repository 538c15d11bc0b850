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
from typing import Iterable, Mapping, Sequence

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


def _apply_coin_rows(
    builder: _RowBuilder,
    automaton: Automaton,
    letter: str,
    bar: Mapping[str, str],
    zero: str,
    one: str,
) -> None:
    _, a, q = letter.split(":")
    row = automaton.matrix(a)[automaton.state_index[q]]
    targets = _row_targets(row)
    if len(targets) == 1:
        target = bar[automaton.states[targets[0]]]
        builder.move(zero, target)
        builder.move(one, target)
    else:
        low, high = targets
        builder.move(zero, bar[automaton.states[low]])
        builder.move(one, bar[automaton.states[high]])


def reduce_basic(automaton: Automaton) -> ReductionOutput:
    """Simulate a simple automaton exactly with one probabilistic transition.

    Each original letter is read as a sequence of per-state rounds: check
    moves the round's state to the coin state, star tosses the shared fair
    coin, apply routes the two outcomes to shadow copies of the letter's
    targets, and a final merge drops all shadows back to plain states.
    Acceptance probabilities agree exactly on encoded words.
    """
    _require_simple(automaton)
    bar = {q: f"bar:{q}" for q in automaton.states}
    coin, zero, one = "s*", "s0", "s1"
    states = (
        list(automaton.states)
        + [bar[q] for q in automaton.states]
        + [coin, zero, one]
    )
    descriptions = _letter_descriptions(automaton, with_finish=False)
    letters = list(descriptions)
    matrices: list[Matrix] = []
    for letter in letters:
        builder = _RowBuilder(states)
        if letter == "star":
            builder.split(coin, {zero: HALF, one: HALF})
        elif letter == "merge":
            for q in automaton.states:
                builder.move(bar[q], q)
        elif letter.startswith("check:"):
            _, a, q = letter.split(":")
            builder.move(q, coin)
        else:
            _apply_coin_rows(builder, automaton, letter, bar, zero, one)
        matrices.append(builder.matrix())
    reduced = Automaton(
        states=tuple(states),
        alphabet=tuple(letters),
        initial=automaton.initial,
        final=frozenset(automaton.final),
        matrices=tuple(matrices),
    )
    hat = {a: hat_morphism(automaton, (a,)) for a in automaton.alphabet}
    return ReductionOutput(
        automaton=reduced,
        letter_map=descriptions,
        hat=hat,
        kind="basic",
    )


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
    bar = {q: f"bar:{q}" for q in automaton.states}
    coin, zero, one, wait = "s*", "s0", "s1", "wait"
    checker_start, sink = "sC", "sink"
    n = len(automaton.states)
    template: dict[str, tuple[str, ...]] = {
        a: hat_morphism(automaton, (a,)) for a in automaton.alphabet
    }
    checker_mid = [
        f"c:{a}:{j}" for a in automaton.alphabet for j in range(1, 3 * n + 1)
    ]
    states = (
        list(automaton.states)
        + [bar[q] for q in automaton.states]
        + [coin, zero, one, wait]
        + [checker_start]
        + checker_mid
        + [sink]
    )
    descriptions = _letter_descriptions(automaton, with_finish=True)
    letters = list(descriptions)

    def checker_step(state: str, letter: str) -> str:
        """The embedded checker: deterministic and complete, with trap `sink`."""
        if state == checker_start:
            if letter == "finish":
                return checker_start
            for a in automaton.alphabet:
                if letter == template[a][0]:
                    return f"c:{a}:1"
            return sink
        if state == sink:
            return sink
        _, a, j_text = state.split(":", 2)
        j = int(j_text)
        if letter != template[a][j]:
            return sink
        if j == 3 * n:
            return checker_start
        return f"c:{a}:{j + 1}"

    matrices: list[Matrix] = []
    for letter in letters:
        builder = _RowBuilder(states)
        if letter == "star":
            builder.split(coin, {wait: THIRD, zero: THIRD, one: THIRD})
        else:
            # Any letter other than star parks coin mass at the wait state,
            # including finish: the wait rule has precedence for the coin.
            builder.move(coin, wait)
            if letter == "merge":
                for q in automaton.states:
                    builder.move(bar[q], q)
            elif letter == "finish":
                builder.move(wait, automaton.initial)
                for q in automaton.states:
                    if q in automaton.final:
                        builder.move(q, checker_start)
                    else:
                        builder.move(q, sink)
                for barred in bar.values():
                    builder.move(barred, sink)
                builder.move(zero, sink)
                builder.move(one, sink)
            elif letter.startswith("check:"):
                _, a, q = letter.split(":")
                builder.move(q, coin)
            else:
                _apply_coin_rows(builder, automaton, letter, bar, zero, one)
        for state in [checker_start, *checker_mid, sink]:
            target = checker_step(state, letter)
            if target != state:
                builder.move(state, target)
        matrices.append(builder.matrix())

    reduced = Automaton(
        states=tuple(states),
        alphabet=tuple(letters),
        initial=automaton.initial,
        final=frozenset({checker_start}),
        matrices=tuple(matrices),
    )
    return ReductionOutput(
        automaton=reduced,
        letter_map=descriptions,
        hat=dict(template),
        kind="full",
    )


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
