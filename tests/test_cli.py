"""Command-line interface: subcommands, report shape, exit codes."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

import leaktight
from leaktight import automaton_to_json, cli, leaks, monoid
from leaktight.cli import main
from leaktight.generate import random_automaton
from leaktight.zoo import det1, fig1, fig3, rnd3, sink

FIXTURE_BUILDERS = {
    "fig3": fig3,
    "det1": det1,
    "rnd3": rnd3,
    "sink": sink,
}


@pytest.fixture()
def fixture_file(tmp_path):
    def write(name: str, automaton=None) -> str:
        a = automaton if automaton is not None else FIXTURE_BUILDERS[name]()
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(automaton_to_json(a)))
        return str(path)

    return write


def run_json(capsys, argv: list[str]) -> dict:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


# ---------------------------------------------------------------------------
# Report envelope


def test_report_envelope_fields(capsys, fixture_file) -> None:
    path = fixture_file("fig3")
    report = run_json(capsys, ["validate", path])
    assert report["command"] == "validate"
    assert report["argv"] == ["validate", path]
    assert report["digest"] == {"states": 2, "letters": 2, "p_min": "1/2"}
    assert "elapsed_ms" in report


def test_reports_are_reproducible_modulo_timing(capsys, fixture_file) -> None:
    path = fixture_file("fig3")
    first = run_json(capsys, ["monoid", path])
    second = run_json(capsys, ["monoid", path])
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert json.dumps(first) == json.dumps(second)


def test_text_format(capsys, fixture_file) -> None:
    path = fixture_file("fig3")
    code = main(["validate", path, "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "command: validate" in out


# ---------------------------------------------------------------------------
# Subcommand bodies


def test_value1_yes(capsys, fixture_file) -> None:
    report = run_json(capsys, ["value1", fixture_file("fig3")])
    assert report["value1"] == "yes"
    assert report["witness"] == "(a)#"
    assert report["leaktight"] == "yes"


def test_value1_no_with_bound(capsys, fixture_file) -> None:
    report = run_json(capsys, ["value1", fixture_file("sink")])
    assert report["value1"] == "no-with-bound"
    assert report["leaktight"] == "yes"
    assert "bound" in report


def test_value1_no_unreliable(capsys, fixture_file, tmp_path) -> None:
    path = fixture_file("fig1", fig1(F(1, 2)))
    report = run_json(capsys, ["value1", path])
    assert report["value1"] == "no-unreliable"
    assert report["leaktight"] == "no"


# Each counted function, with the modules that bind it by name, or with
# the class that defines it.
COUNTED = {
    "saturate": (monoid, leaks),
    "markov_monoid": (monoid, cli),
    "extended_markov_monoid": (leaks, cli),
    "find_leak_witness": (leaks, cli),
    "first_words": (monoid.Saturation,),
}


@pytest.fixture()
def calls(monkeypatch) -> Counter:
    """Calls of the saturation engine, each closure builder, the leak
    search and the derived closure's first-pair search.

    Each function is counted wherever it is bound by name, so a caller that
    reaches it through any of those modules is counted.
    """
    counter: Counter = Counter()

    def counted(attr: str, original):
        def wrapper(*args, **kwargs):
            counter[attr] += 1
            return original(*args, **kwargs)

        return wrapper

    for attr, (home, *others) in COUNTED.items():
        wrapper = counted(attr, getattr(home, attr))
        for module in (home, *others):
            monkeypatch.setattr(module, attr, wrapper)
    return counter


def call_counts(calls: Counter) -> dict[str, int]:
    return {attr: calls[attr] for attr in COUNTED}


@pytest.mark.parametrize("name", ["fig3", "sink"])
def test_value1_does_each_piece_of_work_once(
    capsys, fixture_file, calls, name
) -> None:
    """One saturation, of the extended closure, and one leak search per run.

    The plain closure is derived from the extended one: `markov_monoid` is
    called once, on the extended closure, and saturates nothing.  The
    report reads nothing of that closure, so its first pairs are never
    found: the witness is picked on the extended closure's keys.
    """
    report = run_json(capsys, ["value1", fixture_file(name)])
    assert report["value1"] == ("yes" if name == "fig3" else "no-with-bound")
    assert call_counts(calls) == {
        "saturate": 1,
        "markov_monoid": 1,
        "extended_markov_monoid": 1,
        "find_leak_witness": 1,
        "first_words": 0,
    }


def test_reify_check_saturates_the_closure_it_reifies(capsys, fixture_file, calls) -> None:
    """The plain closure is saturated, for its shorter expressions; the
    extended one is built once, for the leak check."""
    report = run_json(capsys, ["reify-check", fixture_file("fig3")])
    assert report["consistent"] is True
    assert call_counts(calls) == {
        "saturate": 2,
        "markov_monoid": 1,
        "extended_markov_monoid": 1,
        "find_leak_witness": 1,
        "first_words": 0,
    }


# The full `value1` and `leaktight` reports, without `elapsed_ms` and with the
# input path as "<input>", of the scaling automata
# random_automaton(Random(1000 * states + k), states, letters=2): the eleven
# of the benchmark's decide-scale workload and the hard seeds (5,0), (5,3)
# and (6,4).  A change to a witness text fails here; list it in CHANGES.md.
PINNED_CLI = Path(__file__).resolve().parent / "pinned_cli.json"
PINNED_SCALING = (
    (4, 0), (4, 1), (4, 2), (4, 3), (4, 4), (4, 5),
    (5, 1), (5, 2), (5, 4), (5, 5), (6, 5),
    (5, 0), (5, 3), (6, 4),
)


@pytest.mark.parametrize("states,k", PINNED_SCALING)
def test_decision_reports_match_the_pinned_json(capsys, fixture_file, states, k) -> None:
    pinned = json.loads(PINNED_CLI.read_text(encoding="utf-8"))
    automaton = random_automaton(random.Random(1000 * states + k), states=states, letters=2)
    path = fixture_file(f"scale-{states}-{k}", automaton)
    for command in ("value1", "leaktight"):
        report = run_json(capsys, [command, path])
        report.pop("elapsed_ms")
        report["argv"] = [command, "<input>"]
        expected = pinned[f"{command} {states},{k}"]
        assert json.dumps(report, ensure_ascii=False) == json.dumps(
            expected, ensure_ascii=False
        )


def test_leaktight_subcommand(capsys, fixture_file) -> None:
    report = run_json(capsys, ["leaktight", fixture_file("fig3")])
    assert report["leaktight"] == "yes"
    bad = run_json(capsys, ["leaktight", fixture_file("fig1", fig1(F(1, 3)))])
    assert bad["leaktight"] == "no"
    assert bad["witness"]["r"] == "L"
    assert bad["witness"]["q"] == "T"


def test_monoid_subcommand(capsys, fixture_file) -> None:
    report = run_json(capsys, ["monoid", fixture_file("fig3")])
    assert report["size"] == 5
    assert report["max_height"] == 1
    rendered = {element["expression"] for element in report["elements"]}
    assert rendered == {"ε", "a", "b", "b a", "(a)#"}


def test_extended_monoid_subcommand(capsys, fixture_file) -> None:
    report = run_json(capsys, ["extended-monoid", fixture_file("fig3")])
    assert report["size"] == 6


def test_sharp_height_subcommand(capsys, fixture_file) -> None:
    report = run_json(capsys, ["sharp-height", fixture_file("fig3")])
    assert report["sharp_height"] == 1


def test_classify_subcommand(capsys, fixture_file) -> None:
    report = run_json(capsys, ["classify", fixture_file("det1")])
    assert report["deterministic"] is True
    assert report["hierarchical"] is True
    assert report["sharp_acyclic"] is True
    assert report["leaktight"] == "yes"


def test_classify_beyond_the_subset_graph_cap(capsys, fixture_file) -> None:
    a = random_automaton(random.Random(7), states=13, letters=1)
    report = run_json(capsys, ["classify", fixture_file("r13", a)])
    ranks = leaktight.is_hierarchical(a)
    assert report["digest"] == {"states": 13, "letters": 1, "p_min": "1/2"}
    assert report["deterministic"] is leaktight.is_deterministic(a) is False
    assert report["hierarchical"] is (ranks is not None)
    assert report["ranks"] == ranks
    assert report["sharp_acyclic"] is None
    with pytest.raises(leaktight.CapExceeded, match="cap is 4095"):
        leaktight.is_sharp_acyclic(a)
    assert report["leaktight"] == (
        "yes" if leaktight.decide_leaktight(a).leaktight else "no"
    )


def test_compose_subcommand(capsys, fixture_file, tmp_path) -> None:
    a, b = fixture_file("fig3"), fixture_file("det1")
    report = run_json(capsys, ["compose", "parallel", a, b])
    assert report["digest"]["states"] == 4
    composed = report["automaton"]
    assert composed["initial"] == "init"
    product = run_json(capsys, ["compose", "product", a, b])
    assert product["digest"]["states"] == 2


def test_reduce_subcommand(capsys, fixture_file) -> None:
    report = run_json(capsys, ["reduce", "basic", fixture_file("rnd3")])
    assert report["probabilistic_rows"] == 1
    assert report["mode"] == "basic"
    full = run_json(capsys, ["reduce", "full", fixture_file("rnd3")])
    assert full["digest"]["letters"] == 15
    third = run_json(capsys, ["reduce", "third", fixture_file("rnd3")])
    assert "sharp" in json.dumps(third)


def test_estimate_value_brute(capsys, fixture_file) -> None:
    report = run_json(
        capsys,
        ["estimate-value", fixture_file("fig1", fig1(F(1, 3))), "--max-len", "10"],
    )
    assert report["value"] == "1/2"
    assert report["value_approx"] == 0.5


def test_estimate_value_family(capsys, fixture_file) -> None:
    report = run_json(
        capsys,
        [
            "estimate-value",
            fixture_file("fig1", fig1(F(2, 3))),
            "(b a^n)^N",
            "--bind",
            "n=7",
            "--bind",
            "N=200",
        ],
    )
    assert F(report["value"]) >= F(95, 100)


def test_reify_check_subcommand(capsys, fixture_file) -> None:
    report = run_json(capsys, ["reify-check", fixture_file("fig3")])
    assert report["consistent"] is True
    assert report["n"] == 12
    assert report["lower_bound"]["ok"] is True
    tuned = run_json(
        capsys,
        [
            "reify-check",
            fixture_file("fig3"),
            "--bind",
            "n=4",
            "--eps",
            "1/100",
            "--delta",
            "1/10",
        ],
    )
    assert tuned["n"] == 4
    assert tuned["zero_eps"] == "1/100"
    assert tuned["one_delta"] == "1/10"


def test_stdin_input(tmp_path, capsys, monkeypatch) -> None:
    import io

    payload = json.dumps(automaton_to_json(fig3()))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(payload.encode())))
    report = run_json(capsys, ["validate", "-"])
    assert report["valid"] is True


def test_stdin_without_a_byte_buffer_is_read_as_text(capsys, monkeypatch) -> None:
    """A text-only standard input, such as `io.StringIO`, is read as a file
    is, with the same line-end translation."""
    import io

    payload = json.dumps(automaton_to_json(fig3()), indent=1).replace("\n", "\r\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    report = run_json(capsys, ["value1", "-"])
    assert (report["value1"], report["witness"]) == ("yes", "(a)#")
    # Windows and old Mac line ends count as one line end each.
    monkeypatch.setattr(sys, "stdin", io.StringIO('{\r\n"states":\r ["p"],\n  oops}'))
    assert main(["validate", "-"]) == 1
    assert capsys.readouterr().err == (
        "error: syntax error at line 4 column 3: "
        "Expecting property name enclosed in double quotes\n"
    )


def test_closed_stdin_is_exit_1_with_one_error_line(capsys, monkeypatch) -> None:
    """With standard input closed, as after `<&-`, `sys.stdin` is None."""
    monkeypatch.setattr(sys, "stdin", None)
    assert main(["value1", "-"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        "error: cannot read -: standard input is closed\n",
    )


# ---------------------------------------------------------------------------
# Errors and exit codes


def test_missing_file_is_exit_1(capsys) -> None:
    code = main(["validate", "no-such-file.json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "name, reason",
    [("missing.json", "No such file or directory"), (".", "Is a directory")],
)
def test_unreadable_path_is_exit_1_with_its_reason(capsys, tmp_path, name, reason) -> None:
    # A directory opens on Linux; reading it is what fails.
    path = tmp_path / name
    assert main(["value1", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {path}: {reason}\n"


def test_invalid_automaton_is_exit_1(capsys, tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "states": ["q"],
                "alphabet": ["a"],
                "initial": "q",
                "final": [],
                "transitions": {"a": [["q", "q", "1/2"]]},
            }
        )
    )
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "row sum" in captured.err


def test_malformed_documents_are_exit_1(capsys, monkeypatch) -> None:
    import io

    document = {
        "states": ["p"],
        "alphabet": ["a"],
        "initial": "p",
        "final": [],
        "transitions": {"a": [["p", "p", "1"]]},
    }
    for change in (
        {"final": 3},
        {"states": 5},
        {"transitions": {"a": 5}},
        {"final": [["p"]]},
        {"transitions": {"a": [[["p"], "p", "1"]]}},
    ):
        payload = json.dumps({**document, **change})
        stdin = io.TextIOWrapper(io.BytesIO(payload.encode()))
        monkeypatch.setattr(sys, "stdin", stdin)
        code = main(["validate", "-"])
        captured = capsys.readouterr()
        assert code == 1, change
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def test_cap_is_exit_2(capsys, fixture_file) -> None:
    code = main(["monoid", fixture_file("fig1", fig1(F(1, 2))), "--cap", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("resource cap:")


def test_unknown_subcommand_is_exit_1(capsys) -> None:
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_flag_values_are_exit_1(capsys, fixture_file) -> None:
    path = fixture_file("fig3")
    assert main(["value1", path, "--cap", "0"]) == 1
    assert capsys.readouterr().err == "error: --cap must be positive\n"
    assert main(["estimate-value", path, "--max-len", "-1"]) == 1
    assert capsys.readouterr().err == "error: --max-len must be nonnegative\n"
    assert main(["estimate-value", path, "a^n", "--bind", "n=x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_non_rational_threshold_names_the_flag(capsys, fixture_file) -> None:
    path = fixture_file("fig3")
    assert main(["reify-check", path, "--eps", "x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: argument --eps: not a rational: 'x'\n"
    assert main(["reify-check", path, "--delta", "1/0"]) == 1
    assert capsys.readouterr().err == (
        "error: argument --delta: not a rational: '1/0'\n"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eps", "-1", "--delta", "5"], "zero_eps must be in [0, 1), got -1"),
        (["--eps", "1"], "zero_eps must be in [0, 1), got 1"),
        (["--delta", "0"], "one_delta must be in (0, 1], got 0"),
        (["--delta", "3/2"], "one_delta must be in (0, 1], got 3/2"),
        # checked before saturating: the closure would exceed a cap of 1
        (["--eps", "1", "--cap", "1"], "zero_eps must be in [0, 1), got 1"),
        (["--delta", "0", "--cap", "1"], "one_delta must be in (0, 1], got 0"),
    ],
)
def test_out_of_range_threshold_is_exit_1(capsys, fixture_file, flags, message) -> None:
    assert main(["reify-check", fixture_file("fig3"), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_threshold_bounds_are_accepted(capsys, fixture_file) -> None:
    report = run_json(
        capsys,
        ["reify-check", fixture_file("fig3"), "--eps", "0", "--delta", "1"],
    )
    assert (report["zero_eps"], report["one_delta"]) == ("0", "1")


@pytest.mark.parametrize(
    "argv",
    [
        ["value1", "{path}", "--eps", "1/2"],
        ["validate", "{path}", "--cap", "5"],
        ["monoid", "{path}", "--bind", "n=3"],
        ["value1", "{path}", "--seed", "0"],
        # flags the chosen mode would ignore, and a name bound twice
        ["estimate-value", "{path}", "--bind", "n=3"],
        ["estimate-value", "{path}", "(a)^n", "--bind", "n=3", "--max-len", "2"],
        ["estimate-value", "{path}", "(a)^n", "--bind", "n=3", "--cap", "5"],
        ["reify-check", "{path}", "--bind", "m=3"],
        ["estimate-value", "{path}", "(a)^n", "--bind", "n=2", "--bind", "n=3"],
        ["estimate-value", "{path}", "(a)^n", "--bind", "n=3", "--bind", "m=2"],
        ["reify-check", "{path}", "--bind", "n=2", "--bind", "n=3"],
    ],
)
def test_flag_on_a_subcommand_that_does_not_read_it_is_exit_1(
    capsys, fixture_file, argv
) -> None:
    path = fixture_file("fig3")
    assert main([part.format(path=path) for part in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_value_too_long_to_print_is_exit_2(capsys, fixture_file) -> None:
    path = fixture_file("fig3")
    assert main(["estimate-value", path, "(a)^n", "--bind", "n=20000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource cap: exact value is too long to print\n"


def test_reify_check_fails_fast_on_the_lower_bound_cap(
    capsys, fixture_file, monkeypatch
) -> None:
    """The lower-bound check runs before the consistency pass, so its
    exponent cap ends the run before any element is reified at n."""

    def consistency(*args, **kwargs):
        raise AssertionError("the consistency pass ran before the lower-bound check")

    monkeypatch.setattr(cli, "check_consistency", consistency)
    automaton = random_automaton(random.Random(6004), states=6, letters=2)
    assert main(["reify-check", fixture_file("scale-6-4", automaton)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource cap: budget exceeded: lower-bound exponent ")


HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate-value", "{path}", "(a)^n", "--bind", f"n={HUGE}"],
        ["reify-check", "{path}", "--bind", "n=1000000000000"],
    ],
    ids=["estimate-value", "reify-check"],
)
def test_huge_exponent_is_exit_2(capsys, fixture_file, argv: list[str]) -> None:
    # Before the power bound both ran until killed; now the denominator of
    # the coin letter's power passes the bound within about 20 squarings.
    path = fixture_file("fig3")
    started = time.perf_counter()
    assert main([part.format(path=path) for part in argv]) == 2
    assert time.perf_counter() - started < 30
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource cap: matrix power ")


def test_huge_exponent_of_a_deterministic_letter_answers(capsys, fixture_file) -> None:
    # b's matrix has 0/1 entries, so its powers keep denominator 1.
    report = run_json(
        capsys, ["estimate-value", fixture_file("fig3"), "(b)^n", "--bind", f"n={HUGE}"]
    )
    assert report["value"] == "0"


def test_parser_is_built_once_and_keeps_no_bindings(capsys, fixture_file) -> None:
    assert cli._build_parser() is cli._build_parser()
    path = fixture_file("fig3")
    first = run_json(capsys, ["estimate-value", path, "a^n", "--bind", "n=3"])
    second = run_json(capsys, ["estimate-value", path, "a^m", "--bind", "m=2"])
    assert first["bindings"] == {"n": 3}
    assert second["bindings"] == {"m": 2}


def test_bad_family_template_is_exit_1(capsys, fixture_file) -> None:
    assert main(["estimate-value", fixture_file("fig3"), "(a"]) == 1
    assert "family syntax error" in capsys.readouterr().err


def test_non_ascii_digit_exponent_is_exit_1(capsys, fixture_file) -> None:
    # '²'.isdigit() is true, but int('²') raises ValueError.
    assert main(["estimate-value", fixture_file("fig3"), "(a)^²"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exponent '²' is neither a natural number nor a parameter name" in err
    assert "Traceback" not in err


# More decimal digits than `int` reads from a string (4,300 by default).
LONG_NUMBER = "9" * 5000


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["estimate-value", "{path}", f"a^{LONG_NUMBER}"],
            "family syntax error at offset 1: exponent has 5000 digits, too many to read",
        ),
        (
            ["estimate-value", "{path}", "a^n", "--bind", f"n={LONG_NUMBER}"],
            "--bind n: 5000 digits, too many to read",
        ),
    ],
    ids=["template", "bind"],
)
def test_overlong_decimal_exponent_is_exit_1(capsys, fixture_file, argv, message) -> None:
    path = fixture_file("fig3")
    assert main([part.format(path=path) for part in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _one_probability_file(tmp_path, probability: str) -> str:
    path = tmp_path / "one-probability.json"
    path.write_text(json.dumps({
        "states": ["p", "q"],
        "alphabet": ["a"],
        "initial": "p",
        "final": ["q"],
        "transitions": {"a": [["p", "q", probability], ["q", "q", "1"]]},
    }))
    return str(path)


# Texts in exponent notation that `Fraction` reads but whose value has more
# digits than can be printed; the last took 10.8 s to read.
@pytest.mark.parametrize("text", ["1e5000", "1e-3000000", "1e-10000000"])
def test_probability_too_long_to_print_is_exit_1(capsys, tmp_path, text) -> None:
    path = _one_probability_file(tmp_path, text)
    started = time.perf_counter()
    assert main(["validate", path]) == 1
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: bad probability {text!r}: exponent of magnitude above 4300\n"
    )


@pytest.mark.parametrize(
    "flag, text",
    [("--eps", "1e-5000"), ("--delta", "1e-3000000"), ("--eps", "1e-4300")],
)
def test_threshold_too_long_to_print_is_exit_1(capsys, fixture_file, flag, text) -> None:
    started = time.perf_counter()
    assert main(["reify-check", fixture_file("fig3"), flag, text]) == 1
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument {flag}: not a rational: {text!r}\n"


def test_file_that_is_not_utf8_is_exit_1(capsys, tmp_path) -> None:
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(automaton_to_json(fig3())).encode("utf-16-le"))
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n"
    )


def test_integer_too_long_to_read_is_exit_1(capsys, tmp_path) -> None:
    path = tmp_path / "long-integer.json"
    # A bare JSON integer, not a string: `json.loads` itself refuses it.
    path.write_text(
        '{"states": ["p", "q"], "alphabet": ["a"], "initial": "p", "final": ["q"], '
        f'"transitions": {{"a": [["p", "q", {LONG_NUMBER}], ["q", "q", "1"]]}}}}'
    )
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: an integer has more than 4300 digits\n"


def test_row_sum_too_long_to_print_is_exit_1(capsys, tmp_path) -> None:
    # Two coprime denominators of 4,291 digits each: every entry can be
    # printed, but their sum's denominator has 8,581 digits.
    path = tmp_path / "long-row-sum.json"
    path.write_text(json.dumps({
        "states": ["p", "q"],
        "alphabet": ["a"],
        "initial": "p",
        "final": ["q"],
        "transitions": {"a": [
            ["p", "p", f"1/{10**4290 + 1}"],
            ["p", "q", f"1/{10**4290 + 3}"],
            ["q", "q", "1"],
        ]},
    }))
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: letter 'a', state 'p': row sum ≠ 1, too long to print\n"


@pytest.mark.parametrize(
    "text, value", [("0.5", "1/2"), ("5e-1", "1/2"), ("1E-3", "1/1000"), ("1/2", "1/2")]
)
def test_exponent_notation_still_reads(capsys, fixture_file, tmp_path, text, value) -> None:
    report = run_json(capsys, ["reify-check", fixture_file("fig3"), "--eps", text])
    assert report["zero_eps"] == value
    assert main(["validate", _one_probability_file(tmp_path, text)]) == 1
    assert capsys.readouterr().err == (
        f"error: letter 'a', state 'p': row sum {value} ≠ 1\n"
    )


# ---------------------------------------------------------------------------
# Console script


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_console_script(name: str) -> tuple[str, str]:
    """Return the (module, attribute) that ``[project.scripts]`` maps ``name`` to."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert name in scripts, f"[project.scripts] in {PYPROJECT} declares no {name!r}"
    module, _, attr = scripts[name].partition(":")
    assert module and attr, f"{name} = {scripts[name]!r} is not 'module:attr'"
    return module.strip(), attr.strip()


def test_console_script_runs() -> None:
    """The declared ``leaktight`` script starts and its help lists ``value1``.

    Runs the launcher an installer writes for the console script, against
    the source tree of the ``leaktight`` package under test, so no install
    is needed.
    """
    module, attr = declared_console_script("leaktight")
    launcher = (
        "import sys; sys.argv[0] = 'leaktight'; "
        f"from {module} import {attr}; sys.exit({attr}())"
    )
    source_tree = Path(leaktight.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(source_tree)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: leaktight")
    assert "value1" in proc.stdout


def test_closed_stdout_exits_quietly(fixture_file) -> None:
    # The extended closure of scaling seed (5, 4) prints about 113 KB, more
    # than a pipe holds, so writing it meets the pipe the reader closed.
    automaton = random_automaton(random.Random(5004), states=5, letters=2)
    path = fixture_file("scale-5-4", automaton)
    source_tree = Path(leaktight.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "leaktight.cli", "extended-monoid", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(source_tree)},
    )
    assert proc.stdout.read(10) == b'{\n  "comma'
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.skipif(
    shutil.which("leaktight") is None, reason="no `leaktight` script on PATH"
)
def test_installed_console_script_runs() -> None:
    """The ``leaktight`` script an installer put on PATH starts."""
    proc = subprocess.run(
        ["leaktight", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "value1" in proc.stdout
