"""The exact text of the CLI's argument errors and help, and of the first
error that each malformed document or automaton is refused with.

How the arguments are parsed and in what order a document is checked may
change; these messages may not.  Documents with two faults pin which of
the two is reported.
"""

from __future__ import annotations

import io
import json
import sys
from fractions import Fraction as F

import pytest

from leaktight import Automaton, ValidationError, automaton_from_json, automaton_to_json
from leaktight.cli import main
from leaktight.zoo import fig3

COMMANDS = (
    "{validate,value1,leaktight,monoid,extended-monoid,sharp-height,classify,"
    "compose,reduce,estimate-value,reify-check}"
)


def run(argv: list[str], capsys) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of one CLI call; help exits by SystemExit."""
    try:
        code: object = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Arguments


ARGUMENT_ERRORS = {
    (): "the following arguments are required: command",
    ("frobnicate",): (
        "argument command: invalid choice: 'frobnicate' (choose from 'validate', "
        "'value1', 'leaktight', 'monoid', 'extended-monoid', 'sharp-height', "
        "'classify', 'compose', 'reduce', 'estimate-value', 'reify-check')"
    ),
    ("value1",): "the following arguments are required: input",
    ("value1", "a", "b"): "unrecognized arguments: b",
    ("value1", "f", "--cap"): "argument --cap: expected one argument",
    ("value1", "f", "--format", "xml"): (
        "argument --format: invalid choice: 'xml' (choose from 'json', 'text')"
    ),
    ("--format", "json", "value1", "f"): (
        "argument command: invalid choice: 'json' (choose from 'validate', "
        "'value1', 'leaktight', 'monoid', 'extended-monoid', 'sharp-height', "
        "'classify', 'compose', 'reduce', 'estimate-value', 'reify-check')"
    ),
    ("compose", "union", "l", "r"): (
        "argument mode: invalid choice: 'union' (choose from 'parallel', 'product')"
    ),
    ("reduce", "full"): "the following arguments are required: input",
    ("validate", "f", "--cap", "5"): "unrecognized arguments: --cap 5",
    ("monoid", "f", "--cap", "x"): "argument --cap: invalid int value: 'x'",
}


@pytest.mark.parametrize("argv", sorted(ARGUMENT_ERRORS), ids=" ".join)
def test_argument_errors_are_pinned(capsys, argv: tuple[str, ...]) -> None:
    assert run(list(argv), capsys) == (1, "", f"error: {ARGUMENT_ERRORS[argv]}\n")


def test_reify_check_refuses_n_below_one(capsys, tmp_path) -> None:
    path = tmp_path / "fig3.json"
    path.write_text(json.dumps(automaton_to_json(fig3())), encoding="utf-8")
    assert run(["reify-check", str(path), "--bind", "n=0"], capsys) == (
        1,
        "",
        "error: reification parameter n must be at least 1\n",
    )


TOP_HELP = f"""\
usage: leaktight [-h]
                 {COMMANDS}
                 ...

Exact decisions for probabilistic automata: value 1, leaktight, closures,
classes, reductions and numeric oracles.

positional arguments:
  {COMMANDS}
    validate            run validate on an automaton
    value1              run value1 on an automaton
    leaktight           run leaktight on an automaton
    monoid              run monoid on an automaton
    extended-monoid     run extended-monoid on an automaton
    sharp-height        run sharp-height on an automaton
    classify            run classify on an automaton
    compose             combine two automata
    reduce              single-transition and coin-gadget constructions
    estimate-value      brute-force or family value estimation
    reify-check         reify closure expressions and check thresholds

options:
  -h, --help            show this help message and exit
"""

VALUE1_HELP = """\
usage: leaktight value1 [-h] [--format {json,text}] [--cap CAP] input

positional arguments:
  input                 interchange JSON file, or - for stdin

options:
  -h, --help            show this help message and exit
  --format {json,text}
  --cap CAP
"""


@pytest.mark.parametrize(
    "argv, text",
    [
        (["-h"], TOP_HELP),
        (["--help"], TOP_HELP),
        (["value1", "-h"], VALUE1_HELP),
        (["value1", "f", "--help"], VALUE1_HELP),
    ],
)
def test_help_is_pinned(capsys, monkeypatch, argv: list[str], text: str) -> None:
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv, capsys) == (("exit", 0), text, "")


# ---------------------------------------------------------------------------
# Documents

BASE = {
    "states": ["p", "q"],
    "alphabet": ["a"],
    "initial": "p",
    "final": ["q"],
    "transitions": {"a": [["p", "q", "1"], ["q", "q", "1"]]},
}


def changed(**change) -> dict:
    return {**BASE, **change}


# (document, its first error), most with two faults.
DOCUMENTS = {
    "not-an-object": ([], "document must be a JSON object"),
    "missing-states-and-bad-alphabet": (
        {k: v for k, v in changed(alphabet=5).items() if k != "states"},
        "missing field 'states'",
    ),
    "states-and-alphabet-not-arrays": (
        changed(states=5, alphabet="a"),
        "states must be an array, got 5",
    ),
    "state-name-and-alphabet-not-array": (
        changed(states=["p", ""], alphabet=3),
        "state name must be a non-empty string, got ''",
    ),
    "state-name-and-unknown-target": (
        changed(states=["p", "q\x01"], transitions={"a": [["p", "r", "1"]]}),
        "state name 'q\\x01' contains control characters",
    ),
    "unhashable-state-and-bad-probability": (
        changed(states=["p", ["q"]], transitions={"a": [["p", "p", "x"]]}),
        "state name must be a non-empty string, got ['q']",
    ),
    "letter-name-and-bad-probability": (
        changed(alphabet=["a", "b\x7f"], transitions={"a": [["p", "p", "x"]]}),
        "letter name 'b\\x7f' contains control characters",
    ),
    "empty-states-and-empty-letter-name": (
        changed(states=[], alphabet=[""], transitions={}, final=[]),
        "letter name must be a non-empty string, got ''",
    ),
    "duplicate-states-and-unknown-letter": (
        changed(states=["p", "p"], transitions={"z": []}),
        "duplicate state names",
    ),
    "unknown-letter-and-bad-triple": (
        changed(transitions={"a": [["p"]], "z": []}),
        "transitions mention unknown letter 'z'",
    ),
    "bad-triple-and-non-string-final": (
        changed(transitions={"a": [["p", "q"]]}, final=[1]),
        "letter 'a': each transition must be [from, to, probability]",
    ),
    "bad-probability-and-duplicate-transition": (
        changed(transitions={"a": [["p", "q", True], ["p", "q", "1"]]}),
        "probability must be a rational string, got True",
    ),
    "duplicate-transition-and-row-sum": (
        changed(transitions={"a": [["p", "q", "1/2"], ["p", "q", "1/2"]]}),
        "letter 'a': duplicate transition 'p' -> 'q'",
    ),
    "final-not-array-and-initial-number": (
        changed(final="q", initial=0),
        "final must be an array, got 'q'",
    ),
    "initial-number-and-unknown-final": (
        changed(initial=0, final=["r"]),
        "initial state must be a non-empty string, got 0",
    ),
    "initial-unknown-and-final-unknown": (
        changed(initial="r", final=["s"]),
        "initial state 'r' is not a state",
    ),
    "duplicate-letters-and-row-sum": (
        changed(alphabet=["a", "a"], transitions={"a": [["p", "p", "1/2"]]}),
        "duplicate letter names",
    ),
    "row-sum-above-out-of-range-entry": (
        changed(transitions={"a": [["p", "p", "1/2"], ["q", "q", "3/2"]]}),
        "letter 'a', state 'p': row sum 1/2 ≠ 1",
    ),
    "out-of-range-entry-and-later-row-sum": (
        changed(transitions={"a": [["p", "p", "3/2"], ["q", "q", "1/2"]]}),
        "letter 'a': entry 3/2 outside [0,1]",
    ),
    "float-probability-and-row-sum": (
        changed(transitions={"a": [["p", "p", 0.5], ["q", "q", "1/2"]]}),
        "probability must be a rational string, got 0.5",
    ),
    "integer-probability-out-of-range": (
        changed(transitions={"a": [["p", "p", 2], ["q", "q", "1"]]}),
        "letter 'a': entry 2 outside [0,1]",
    ),
    "empty-states": (
        changed(states=[], transitions={"a": []}, final=[]),
        "automaton needs at least one state",
    ),
    "empty-alphabet": (
        changed(alphabet=[], transitions={}),
        "automaton needs at least one letter",
    ),
    "transitions-not-object-and-final-not-array": (
        changed(transitions=[], final=3),
        "transitions must be an object keyed by letter",
    ),
}

# The malformed documents of test_automaton.py, on a one-state document.
ONE_STATE = {
    "states": ["p"],
    "alphabet": ["a"],
    "initial": "p",
    "final": ["p"],
    "transitions": {"a": [["p", "p", "1"]]},
}
for name, change, message in [
    ("states-number", {"states": 5}, "states must be an array, got 5"),
    ("states-string", {"states": "pq"}, "states must be an array, got 'pq'"),
    ("alphabet-string", {"alphabet": "ab"}, "alphabet must be an array, got 'ab'"),
    ("final-number", {"final": 3}, "final must be an array, got 3"),
    ("final-string", {"final": "p"}, "final must be an array, got 'p'"),
    ("final-nested", {"final": [["p"]]}, "final must be an array of state names"),
    (
        "transitions-number",
        {"transitions": {"a": 5}},
        "letter 'a': transitions must be an array, got 5",
    ),
    (
        "transition-string",
        {"transitions": {"a": ["pp1"]}},
        "letter 'a': each transition must be [from, to, probability]",
    ),
    (
        "source-array",
        {"transitions": {"a": [[["p"], "p", "1"]]}},
        "letter 'a': state name must be a string, got ['p']",
    ),
    (
        "target-number",
        {"transitions": {"a": [["p", 0, "1"]]}},
        "letter 'a': state name must be a string, got 0",
    ),
]:
    DOCUMENTS[f"one-state-{name}"] = ({**ONE_STATE, **change}, message)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_first_document_error_is_pinned(name: str) -> None:
    document, message = DOCUMENTS[name]
    with pytest.raises(ValidationError) as raised:
        automaton_from_json(document)
    assert str(raised.value) == message


@pytest.mark.parametrize("source", ["stdin", "file"])
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_cli_prints_the_first_document_error(
    capsys, monkeypatch, tmp_path, name: str, source: str
) -> None:
    document, message = DOCUMENTS[name]
    if source == "stdin":
        stdin = io.TextIOWrapper(io.BytesIO(json.dumps(document).encode()))
        monkeypatch.setattr(sys, "stdin", stdin)
        argv = ["validate", "-"]
    else:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        argv = ["validate", str(path)]
    assert run(argv, capsys) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("source", ["stdin", "file"])
def test_bytes_that_are_not_utf8_are_pinned(
    capsys, monkeypatch, tmp_path, source: str
) -> None:
    # A state name holding the byte 0xff: standard input is decoded as a file is.
    data = b'{"states": ["p\xff"], "alphabet": ["a"], "initial": "p\xff", "final": [],'
    data += b' "transitions": {"a": [["p\xff", "p\xff", "1"]]}}'
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        path = "-"
    else:
        file = tmp_path / "latin1.json"
        file.write_bytes(data)
        path = str(file)
    assert run(["validate", path], capsys) == (
        1,
        "",
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 14: invalid start byte\n",
    )


def test_syntax_error_position_is_pinned(capsys, tmp_path) -> None:
    path = tmp_path / "bad.json"
    # Windows and old Mac line ends count as one line end each.
    path.write_bytes(b'{\r\n"states":\r ["p"],\n  oops}')
    assert run(["validate", str(path)], capsys) == (
        1,
        "",
        "error: syntax error at line 4 column 3: "
        "Expecting property name enclosed in double quotes\n",
    )


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000 + "1" + "}" * 100_000],
    ids=["arrays", "objects"],
)
def test_nesting_too_deep_is_pinned(capsys, tmp_path, text: str) -> None:
    # Deeper than the JSON decoder's own stack: an error line, not a traceback.
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert run(["validate", str(path)], capsys) == (
        1,
        "",
        "error: the document is nested too deeply to read\n",
    )


# ---------------------------------------------------------------------------
# Automata built directly

I, H = F(1), F(1, 2)
IDENTITY2 = (((I, F(0)), (F(0), I)),)
DIRECT = {
    "bad-name-and-unknown-initial": (
        dict(states=("p", ""), alphabet=("a",), initial="r", matrices=IDENTITY2),
        "state name must be a non-empty string, got ''",
    ),
    "non-string-letter-and-duplicate-states": (
        dict(states=("p", "p"), alphabet=(1,), initial="p", matrices=IDENTITY2),
        "letter name must be a non-empty string, got 1",
    ),
    "control-letter-and-row-sum": (
        dict(states=("p",), alphabet=("a\n",), initial="p", matrices=(((H,),),)),
        "letter name 'a\\n' contains control characters",
    ),
    "duplicate-states-and-duplicate-letters": (
        dict(states=("p", "p"), alphabet=("a", "a"), initial="p", matrices=()),
        "duplicate state names",
    ),
    "unknown-final-and-arity": (
        dict(
            states=("p",),
            alphabet=("a", "b"),
            initial="p",
            final=frozenset({"r"}),
            matrices=(((I,),),),
        ),
        "final state 'r' is not a state",
    ),
    "arity-and-shape": (
        dict(states=("p",), alphabet=("a", "b"), initial="p", matrices=(((I, I),),)),
        "one transition matrix per letter is required",
    ),
    "shape-of-second-letter": (
        dict(
            states=("p",),
            alphabet=("a", "b"),
            initial="p",
            matrices=(((I,),), ((I,), (I,))),
        ),
        "letter 'b': matrix is not 1x1",
    ),
    "non-rational-entry": (
        dict(states=("p",), alphabet=("a",), initial="p", matrices=(((1,),),)),
        "letter 'a': non-rational entry 1",
    ),
    "negative-entry": (
        dict(
            states=("p", "q"),
            alphabet=("a",),
            initial="p",
            matrices=(((F(3, 2), F(-1, 2)), (F(0), I)),),
        ),
        "letter 'a': entry 3/2 outside [0,1]",
    ),
    "row-sum-of-second-letter": (
        dict(states=("p",), alphabet=("a", "b"), initial="p", matrices=(((I,),), ((H,),))),
        "letter 'b', state 'p': row sum 1/2 ≠ 1",
    ),
}


@pytest.mark.parametrize("name", sorted(DIRECT))
def test_first_constructor_error_is_pinned(name: str) -> None:
    fields, message = DIRECT[name]
    with pytest.raises(ValidationError) as raised:
        Automaton(**{"final": frozenset(), **fields})
    assert str(raised.value) == message
