"""Workload inputs, the operation each case times, and the checks of its answers.

Every workload is a fixed list of automata.  The workload seed only reorders
the states of each automaton (rows and columns together, names kept), so
every seed poses the same problem in another presentation: the answers
recorded in `expected/` at seed 0 hold for every seed, and the cost of a case
hardly moves with the seed.  Seed 0 keeps the original order.

Each case is written as an interchange-JSON fixture at set-up; the timed
operation reads it back, as a user of the library or the CLI would.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from leaktight import automaton as automaton_layer
from leaktight import cli, monoid, oracle, reduction, zoo
from leaktight.automaton import Automaton, automaton_to_json
from leaktight.errors import ValidationError
from leaktight.generate import random_automaton
from leaktight.sharpexpr import parse_expression

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

CORPUS_SIZE = 500
# (states, k) of random_automaton(Random(1000 * states + k), states, letters=2).
SCALE_SEEDS = (
    (4, 0), (4, 1), (4, 2), (4, 3), (4, 4), (4, 5),
    (5, 1), (5, 2), (5, 4), (5, 5),
    (6, 5),
)
ZOO = {
    "fig3": zoo.fig3,
    "hier2": zoo.hier2,
    "rnd3": zoo.rnd3,
    "fig1-half": lambda: zoo.fig1(Fraction(1, 2)),
}
CONSISTENCY_N = 6
BRUTE_FORCE_LENGTH = 8

# Per-case deadlines, each well clear of the slowest case of its workload.
DEADLINE_S = {"decide-corpus": 60.0, "decide-scale": 20.0, "numeric-oracle": 60.0}

VERDICT_FIELDS = ("value1", "leaktight", "monoid_size", "bound", "bound_height", "p_min")


class CheckError(Exception):
    """An answer that does not hold up."""


@dataclass(frozen=True)
class Case:
    id: str
    kind: str  # "value1", "consistency" or "reduce"
    automaton: Automaton
    path: str


def corpus_automaton(seed: int) -> Automaton:
    """Corpus member #seed: 1-4 states, 1-2 letters, as the test suite builds it."""
    rng = random.Random(seed)
    return random_automaton(
        rng, states=rng.randrange(1, 5), letters=rng.randrange(1, 3)
    )


def scale_automaton(states: int, k: int) -> Automaton:
    return random_automaton(random.Random(1000 * states + k), states=states, letters=2)


def reorder_states(automaton: Automaton, order: list[int]) -> Automaton:
    """The same automaton with its states listed in `order`."""
    return Automaton(
        states=tuple(automaton.states[i] for i in order),
        alphabet=automaton.alphabet,
        initial=automaton.initial,
        final=automaton.final,
        matrices=tuple(
            tuple(tuple(matrix[i][j] for j in order) for i in order)
            for matrix in automaton.matrices
        ),
    )


def _sources(name: str, limit: int | None) -> list[tuple[str, str, object]]:
    """(case id, kind, automaton builder) for every case of a workload."""
    if name == "decide-corpus":
        parts = [[(f"corpus-{i}", "value1", lambda i=i: corpus_automaton(i))
                  for i in range(CORPUS_SIZE)]]
    elif name == "decide-scale":
        parts = [[(f"scale-{n}-{k}", "value1", lambda n=n, k=k: scale_automaton(n, k))
                  for n, k in SCALE_SEEDS]]
    elif name == "numeric-oracle":
        parts = [
            [(f"corpus-{i}", "consistency", lambda i=i: corpus_automaton(i))
             for i in range(CORPUS_SIZE)],
            [(f"reduce-{key}", "reduce", build) for key, build in ZOO.items()],
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return [source for part in parts for source in part[:limit]]


def build(name: str, seed: int, work_dir: Path, limit: int | None = None) -> list[Case]:
    """Generate a workload's automata for `seed` and write their fixtures.

    `limit` keeps only the first cases of each part of the workload.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    cases = []
    for case_id, kind, make in _sources(name, limit):
        automaton = make()
        order = list(range(len(automaton.states)))
        if seed:
            random.Random(f"{seed}/{case_id}").shuffle(order)
        automaton = reorder_states(automaton, order)
        path = work_dir / f"{case_id}.json"
        path.write_text(json.dumps(automaton_to_json(automaton)), encoding="utf-8")
        cases.append(Case(case_id, kind, automaton, str(path)))
    return cases


# ---------------------------------------------------------------------------
# The timed operations.  Each looks its entry points up at call time, so a
# traced run can wrap them.


def _read(case: Case) -> Automaton:
    with open(case.path, encoding="utf-8") as handle:
        return automaton_layer.parse_automaton(handle.read())


def _run_value1(case: Case):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["value1", case.path])
    return code, buffer.getvalue()


def _run_consistency(case: Case):
    automaton = _read(case)
    return oracle.check_consistency(
        automaton, monoid.markov_monoid(automaton), n=CONSISTENCY_N
    )


def _run_reduce(case: Case):
    output = reduction.reduce_full(_read(case))
    return output, oracle.brute_force_value(output.automaton, BRUTE_FORCE_LENGTH)


RUN = {"value1": _run_value1, "consistency": _run_consistency, "reduce": _run_reduce}


# ---------------------------------------------------------------------------
# Answers, compared with the recorded ones outside the timed region.


def _answer_value1(case: Case, raw) -> dict:
    code, text = raw
    if code != 0:
        raise CheckError(f"value1 exited with code {code}")
    report = json.loads(text)
    if report["value1"] == "yes":
        # Check the witness by its meaning, not its text.
        try:
            witness = parse_expression(report["witness"], case.automaton)
        except ValidationError as exc:
            raise CheckError(f"witness does not parse: {exc}") from None
        if not monoid.is_value1_witness(case.automaton, witness.word):
            raise CheckError(f"{report['witness']!r} is not a value-1 witness")
    return {field: report.get(field) for field in VERDICT_FIELDS}


def _answer_consistency(case: Case, reports) -> dict:
    return {
        "reports": len(reports),
        "inconclusive": sum(1 for report in reports if not report.ok),
    }


def _answer_reduce(case: Case, raw) -> dict:
    output, value = raw
    return {
        "states": len(output.automaton.states),
        "letters": len(output.automaton.alphabet),
        "probabilistic_rows": reduction.probabilistic_row_count(output.automaton),
        "value": str(value),
    }


ANSWER = {
    "value1": _answer_value1,
    "consistency": _answer_consistency,
    "reduce": _answer_reduce,
}


def answer(case: Case, raw) -> dict:
    return ANSWER[case.kind](case, raw)


def check(case: Case, raw, expected: dict | None) -> str | None:
    """None when the case's answer matches `expected`, else what is wrong."""
    try:
        got = answer(case, raw)
    except (CheckError, ValueError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if got != expected:
        return f"answer {got} differs from the recorded {expected}"
    return None


def expected_path(name: str) -> Path:
    return EXPECTED_DIR / f"{name}.json"


def load_expected(name: str) -> dict:
    return json.loads(expected_path(name).read_text(encoding="utf-8"))
