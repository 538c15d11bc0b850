"""The benchmark's own tests: a smoke run of every workload, failure accounting,
and cross-checks of the recorded answers made independently of the timed path.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from clock import REFERENCE_S, Clock, reference_loop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from leaktight import classes, monoid, zoo  # noqa: E402
from leaktight.leaks import extended_markov_monoid  # noqa: E402

DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CHECK_DEADLINE_S = 2.0


def _run(workload: str, trace: int, seed: int = 5) -> dict:
    finished = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--cases", "3"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return json.loads(finished.stdout.strip().splitlines()[-1])


def test_definition_names_the_workloads_run_py_knows():
    assert [w["name"] for w in DEFINITION["workloads"]] == list(run.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in DEFINITION["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_every_metric_present_and_counts_repeat(workload):
    untraced = _run(workload, 0)
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert {name: m["unit"] for name, m in untraced["metrics"].items()} == {
        m["name"]: m["unit"] for m in DEFINITION["end_to_end"]
    }
    first, second = _run(workload, 1), _run(workload, 1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in DEFINITION["per_layer"]
        }
        times = {n: m["value"] for n, m in result["metrics"].items() if m["unit"] in ("s", "ms")}
        del times["trace.overhead_s"]  # traced minus untraced pass time: either sign
        assert min(times.values()) >= 0
    counts = [m["name"] for m in DEFINITION["per_layer"] if m["unit"] == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }


def test_the_reference_loop_takes_reference_seconds():
    clock = Clock()
    with clock.running():
        start = clock.now()
        for _ in range(500):
            reference_loop()
        end = clock.now()
    assert end[1] > start[1]  # samples were taken inside, and are left out
    assert clock.seconds(start, end) == pytest.approx(500 * REFERENCE_S, rel=0.25)


def _runner(tmp_path, name, limit, expected=None):
    cases = workloads.build(name, 7, tmp_path, limit)
    expected = workloads.load_expected(name) if expected is None else expected
    signal.signal(signal.SIGALRM, harness._alarm)
    return harness.Runner(cases, expected, workloads.DEADLINE_S[name], float("inf"), Clock())


def test_injected_wrong_answer_and_timeout_are_failed_cases(tmp_path):
    expected = workloads.load_expected("decide-corpus")
    runner = _runner(tmp_path, "decide-corpus", 3, expected)
    first = runner.cases[0].id
    expected[first] = dict(expected[first], leaktight="no")
    answered = runner.run_pass()
    runner.deadline = 1e-6
    late = runner.run_pass()
    assert [o.status for o in answered.outcomes] == ["wrong", "ok", "ok"]
    assert [o.status for o in late.outcomes] == ["timeout"] * 3
    metrics = harness.end_to_end_metrics([answered, late], 0.1, 1.0)
    assert metrics["decided_frac"] == pytest.approx(2 / 6)


def test_timeout_names_the_layer_that_was_running(tmp_path):
    runner = _runner(tmp_path, "decide-scale", None)
    runner.cases = [case for case in runner.cases if case.id == "scale-5-2"]
    runner.deadline = 0.05
    (outcome,) = runner.run_pass().outcomes
    assert outcome.status == "timeout"
    assert outcome.detail == "leaks"  # value1 computes the extended closure first


def test_a_witness_is_checked_by_its_meaning(tmp_path):
    runner = _runner(tmp_path, "decide-corpus", None)
    case = next(
        c for c in runner.cases
        if runner.expected[c.id]["value1"] == "yes" and c.automaton.initial not in c.automaton.final
    )
    code, text = workloads.RUN["value1"](case)
    assert workloads.check(case, (code, text), runner.expected[case.id]) is None
    report = json.loads(text)
    report["witness"] = "ε"  # renders fine, means nothing
    problem = workloads.check(case, (code, json.dumps(report)), runner.expected[case.id])
    assert problem is not None and "not a value-1 witness" in problem


# ---------------------------------------------------------------------------
# Cross-checks of the recorded answers, independent of the closure engine the
# benchmark times.  Automata whose check does not finish in CHECK_DEADLINE_S
# are left out and counted.


@contextmanager
def _deadline(seconds):
    signal.signal(signal.SIGALRM, harness._alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _finished(check) -> int:
    """Run check(seed) on every corpus member; the number that finished."""
    done = 0
    for seed in range(workloads.CORPUS_SIZE):
        try:
            with _deadline(CHECK_DEADLINE_S):
                check(seed)
        except harness.CaseTimeout:
            continue
        done += 1
    return done


CORPUS = workloads.load_expected("decide-corpus")


def test_bounded_witness_search_agrees_with_the_recorded_verdicts():
    def check(seed):
        automaton = workloads.corpus_automaton(seed)
        found = monoid.bounded_witness_search(automaton) is not None
        assert found == (CORPUS[f"corpus-{seed}"]["value1"] == "yes"), seed

    assert _finished(check) >= 490


def test_projection_of_the_extended_closure_is_the_plain_closure():
    def check(seed):
        automaton = workloads.corpus_automaton(seed)
        plain = frozenset(monoid.markov_monoid(automaton).elements)
        assert extended_markov_monoid(automaton).projection() == plain, seed

    assert _finished(check) >= 490


def test_deterministic_corpus_members_are_leaktight():
    deterministic = [
        seed for seed in range(workloads.CORPUS_SIZE)
        if classes.is_deterministic(workloads.corpus_automaton(seed))
    ]
    assert deterministic
    assert all(CORPUS[f"corpus-{seed}"]["leaktight"] == "yes" for seed in deterministic)


@pytest.mark.parametrize(
    "automaton, value1, leaktight",
    [
        (zoo.fig3(), "yes", "yes"),
        (zoo.fig1(Fraction(1, 2)), None, "no"),
        (zoo.det1(), None, "yes"),
        (zoo.hier2(), None, "yes"),
    ],
    ids=["fig3", "fig1-half", "det1", "hier2"],
)
def test_zoo_answers_match_the_hand_written_ones(tmp_path, automaton, value1, leaktight):
    path = tmp_path / "automaton.json"
    path.write_text(json.dumps(workloads.automaton_to_json(automaton)), encoding="utf-8")
    case = workloads.Case("zoo", "value1", automaton, str(path))
    got = workloads.answer(case, workloads.RUN["value1"](case))
    assert got["leaktight"] == leaktight
    if value1 is not None:
        assert got["value1"] == value1
