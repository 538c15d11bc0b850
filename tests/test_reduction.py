"""Single-coin reductions: exact simulation, limit simulation, 1/3-gadget."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest

from leaktight import (
    Automaton,
    ValidationError,
    hat_morphism,
    hat_with_finish,
    is_simple,
    probabilistic_row_count,
    reduce_basic,
    reduce_full,
    sharp_interleave,
    third_simulation,
)
from leaktight.automaton import automaton_to_json
from leaktight.zoo import det1, fig1, fig3, hier2, rnd3, sink

from .helpers import corpus, seeded_automaton


# ---------------------------------------------------------------------------
# Guards


def test_is_simple() -> None:
    assert is_simple(rnd3())
    assert is_simple(fig3())
    assert not is_simple(fig1(F(1, 3)))


def test_reductions_reject_non_simple_input() -> None:
    for construction in (reduce_basic, reduce_full, third_simulation):
        with pytest.raises(ValidationError, match="input not simple"):
            construction(fig1(F(1, 3)))


def test_reductions_reject_reserved_names() -> None:
    claimed = Automaton(
        states=("q",),
        alphabet=("star",),
        initial="q",
        final=frozenset(),
        matrices=(((F(1),),),),
    )
    with pytest.raises(ValidationError):
        reduce_basic(claimed)
    colon = Automaton(
        states=("q:1",),
        alphabet=("a",),
        initial="q:1",
        final=frozenset(),
        matrices=(((F(1),),),),
    )
    with pytest.raises(ValidationError):
        reduce_full(colon)


# ---------------------------------------------------------------------------
# Hat morphism


def test_hat_is_a_morphism() -> None:
    a = rnd3()
    u, v = ("a", "b"), ("b", "b", "a")
    assert hat_morphism(a, u + v) == hat_morphism(a, u) + hat_morphism(a, v)
    assert hat_morphism(a, ()) == ()


def test_hat_block_shape() -> None:
    a = rnd3()
    block = hat_morphism(a, ("a",))
    assert len(block) == 3 * len(a.states) + 1
    assert block[0] == "check:a:0"
    assert block[1] == "star"
    assert block[2] == "apply:a:0"
    assert block[-1] == "merge"


def test_hat_with_finish_repeats_blocks() -> None:
    a = rnd3()
    once = hat_with_finish(a, ("a", "b"))
    assert once == hat_morphism(a, ("a", "b")) + ("finish",)
    assert hat_with_finish(a, ("a", "b"), repeat=3) == once * 3
    assert hat_with_finish(a, ("a",), repeat=0) == ()
    with pytest.raises(ValidationError):
        hat_with_finish(a, ("a",), repeat=-1)


# ---------------------------------------------------------------------------
# Exact reduction


def test_basic_output_shape() -> None:
    a = rnd3()
    out = reduce_basic(a)
    b = out.automaton
    assert out.kind == "basic"
    assert probabilistic_row_count(b) == 1
    assert len(b.alphabet) == 2 + 2 * len(a.alphabet) * len(a.states)
    assert set(a.states) < set(b.states)
    assert b.initial == a.initial
    assert b.final == a.final
    assert set(out.hat) == set(a.alphabet)
    assert set(out.letter_map) == set(b.alphabet)


def test_basic_exact_for_all_short_words() -> None:
    a = rnd3()
    b = reduce_basic(a).automaton
    for length in range(5):
        for word in itertools.product(a.alphabet, repeat=length):
            assert a.acceptance_probability(word) == b.acceptance_probability(
                hat_morphism(a, word)
            )


def test_basic_exact_on_corpus_members() -> None:
    rng = random.Random(4)
    for seed in range(25):
        a = seeded_automaton(seed)
        if not is_simple(a):
            continue
        try:
            b = reduce_basic(a).automaton
        except ValidationError:
            continue  # reserved-name collision is impossible for generated names
        for _ in range(4):
            word = tuple(rng.choice(a.alphabet) for _ in range(rng.randrange(0, 7)))
            assert a.acceptance_probability(word) == b.acceptance_probability(
                hat_morphism(a, word)
            )


# ---------------------------------------------------------------------------
# Limit reduction


def test_full_output_shape() -> None:
    a = rnd3()
    out = reduce_full(a)
    b = out.automaton
    n, k = len(a.states), len(a.alphabet)
    assert out.kind == "full"
    assert probabilistic_row_count(b) == 1
    assert len(b.alphabet) == 2 + 2 * k * n + 1
    assert len(b.states) == 2 * n + 4 + 1 + 3 * n * k + 1
    assert b.final == frozenset({"sC"})


def test_full_convergence_is_monotone_with_small_gap() -> None:
    a = rnd3()
    b = reduce_full(a).automaton
    word = ("b", "a", "a")
    target = a.acceptance_probability(word)
    previous = F(-1)
    for p in (1, 5, 20):
        value = b.acceptance_probability(hat_with_finish(a, word, repeat=p))
        assert previous <= value <= target
        previous = value
    assert target - previous < F(1, 100)


def test_full_convergence_closed_form() -> None:
    a = rnd3()
    b = reduce_full(a).automaton
    for word in (("a",), ("a", "b"), ("b", "a", "a")):
        target = a.acceptance_probability(word)
        k = len(word)
        for p in (1, 2, 3, 8):
            assert b.acceptance_probability(
                hat_with_finish(a, word, repeat=p)
            ) == target * (1 - (1 - F(2, 3) ** k) ** p)


def test_full_single_finish_words_capped() -> None:
    # no single-finish word can beat 2/3: the coin state sheds one third to
    # the wait pool at every toss, and acceptance requires a finish.
    a = rnd3()
    b = reduce_full(a).automaton
    assert b.acceptance_probability(()) == 0
    # adversarial star pumping inside a template block
    for m in (1, 2, 5):
        word = (
            ("check:a:0",)
            + ("star",) * m
            + ("apply:a:0", "merge", "finish")
            + hat_with_finish(a, ("a",), repeat=1)
        )
        assert b.acceptance_probability(word) <= F(2, 3)


def test_full_checker_rejects_mangled_templates() -> None:
    a = rnd3()
    b = reduce_full(a).automaton
    good = hat_with_finish(a, ("a", "b"), repeat=2)
    assert b.acceptance_probability(good) > 0
    mangled = list(good)
    mangled[0], mangled[2] = mangled[2], mangled[0]
    first = b.acceptance_probability(tuple(mangled))
    # a corrupted first block contributes nothing; the second block still can
    assert first <= b.acceptance_probability(good)


# ---------------------------------------------------------------------------
# 1/3 gadget


def test_third_simulation_entries_and_alphabet() -> None:
    a = rnd3()
    g = third_simulation(a)
    entries = {
        entry for matrix in g.matrices for row in matrix for entry in row
    }
    assert entries <= {F(0), F(1, 3), F(2, 3), F(1)}
    assert set(g.alphabet) == set(a.alphabet) | {"sharp"}
    assert set(a.states) < set(g.states)


def test_third_gadget_decision_probabilities() -> None:
    a = rnd3()
    g = third_simulation(a)
    start = g.state_index[g.initial]
    for rounds, expected in ((1, F(2, 9)), (2, F(28, 81)), (5, F(27962, 59049))):
        d = g.word_matrix(("a",) + ("sharp",) * (2 * rounds))[start]
        assert d[g.state_index["0"]] == expected
        assert d[g.state_index["1"]] == expected


def test_sharp_interleave() -> None:
    assert sharp_interleave(("a", "b"), 1) == (
        "a",
        "sharp",
        "sharp",
        "b",
        "sharp",
        "sharp",
    )
    assert sharp_interleave((), 3) == ()
    with pytest.raises(ValidationError):
        sharp_interleave(("a",), -1)


def test_third_simulation_converges_to_original() -> None:
    a = rnd3()
    g = third_simulation(a)
    word = ("b", "a")
    target = a.acceptance_probability(word)
    previous = F(-1)
    for rounds in (1, 3, 9, 18):
        value = g.acceptance_probability(sharp_interleave(word, rounds))
        assert previous <= value
        previous = value
    assert target - previous < F(1, 1000)


# ---------------------------------------------------------------------------
# Pinned outputs

# sha256 of each construction's outputs on `pinned_inputs()`, as JSON with
# sorted keys: the reduced automaton, and for the two reductions their
# letter descriptions, hat images and kind.
PINNED = {
    "basic": "0d243beb783e176c425628c908b202bd94392973461eaf0718644ac564846293",
    "full": "e37de9c7ddecef0d5748b8678c77aff87cd02b97d2e8b68226971647dec157c7",
    "third": "02fd44086277573ca29e3aa2b94e1c32f28d9decd121823498ecebcc3efba331",
}


def pinned_inputs() -> dict[str, Automaton]:
    """The zoo's simple automata and every 25th corpus member."""
    inputs = {
        "fig3": fig3(),
        "det1": det1(),
        "hier2": hier2(),
        "sink": sink(),
        "rnd3": rnd3(),
        "fig1(1/2)": fig1(F(1, 2)),
    }
    for seed in corpus()[::25]:
        inputs[f"seed{seed}"] = seeded_automaton(seed)
    return inputs


def reduction_document(mode: str, automaton: Automaton) -> dict:
    if mode == "third":
        return automaton_to_json(third_simulation(automaton))
    out = reduce_basic(automaton) if mode == "basic" else reduce_full(automaton)
    return {
        "automaton": automaton_to_json(out.automaton),
        "letter_map": dict(out.letter_map),
        "hat": {letter: list(image) for letter, image in out.hat.items()},
        "kind": out.kind,
    }


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_reduction_outputs_match_pinned_digests(mode: str) -> None:
    document = {
        name: reduction_document(mode, automaton)
        for name, automaton in pinned_inputs().items()
    }
    text = json.dumps(document, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[mode]
