"""Command-line front end over the interchange format.

Exit codes: 0 on success, 1 on input or validation errors (message on
standard error), 2 when a resource cap is exceeded.  Reports are JSON by
default and are byte-identical across runs up to the trailing timing field.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Callable, Optional

from .automaton import (
    Automaton,
    _fraction_from_text,
    automaton_to_json,
    parallel_composition,
    parse_automaton,
    synchronized_product,
)
from .classes import is_deterministic, is_hierarchical, is_sharp_acyclic
from .errors import CapExceeded, ValidationError
from .leaks import decide_leaktight, extended_markov_monoid, find_leak_witness
from .limitword import LimitWord
from .monoid import DEFAULT_CAP, decide_value1, markov_monoid
from .oracle import (
    brute_force_value,
    check_consistency,
    check_lower_bound,
    evaluate_family_at,
    parse_family,
    validate_thresholds,
)
from .reduction import (
    probabilistic_row_count,
    reduce_basic,
    reduce_full,
    third_simulation,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Raise instead of exiting so bad arguments map to exit code 1.

    The top-level parser's `commands` maps each command name to its parser.
    """

    commands: dict[str, _Parser]

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValidationError(message)


def _read_bytes(path: str) -> bytes:
    """The bytes of the file at `path`, read to its end without a file
    object: a file object's set-up costs more than reading a small file."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _read_automaton(path: str) -> Automaton:
    """The automaton at `path`, or on standard input for `-`, decoded alike.

    A standard input without a byte buffer, such as `io.StringIO`, is read
    as text; a closed one, `None`, cannot be read."""
    try:
        if path != "-":
            text = _read_bytes(path).decode("utf-8")
        elif sys.stdin is None:
            raise ValidationError("cannot read -: standard input is closed")
        elif hasattr(sys.stdin, "buffer"):
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            text = sys.stdin.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    if "\r" in text:  # line ends as a text-mode read translates them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_automaton(text)


def _digest(automaton: Automaton) -> dict:
    return {
        "states": len(automaton.states),
        "letters": len(automaton.alphabet),
        "p_min": str(automaton.min_transition_probability),
    }


def _word_lines(word: LimitWord, automaton: Automaton) -> list[str]:
    return word.render(automaton.states).split("\n")


def _fraction_fields(value: Fraction) -> dict:
    try:
        text = str(value)
    except ValueError:  # more digits than int-to-str conversion allows
        raise CapExceeded("exact value is too long to print") from None
    return {"value": text, "value_approx": float(value)}


def _bindings(args: argparse.Namespace) -> dict[str, int]:
    bindings: dict[str, int] = {}
    for item in args.bind or []:
        name, equals, number = item.partition("=")
        if not equals or not name:
            raise ValidationError(f"--bind expects NAME=NAT, got {item!r}")
        try:
            value = int(number)
        except ValueError:
            if number.isdecimal():  # past Python's limit on digits `int` reads
                raise ValidationError(
                    f"--bind {name}: {len(number)} digits, too many to read"
                ) from None
            raise ValidationError(f"--bind {name}: {number!r} is not a natural") from None
        if value < 0:
            raise ValidationError(f"--bind {name}: must be nonnegative")
        if name in bindings:
            raise ValidationError(f"--bind {name}: bound twice")
        bindings[name] = value
    return bindings


# ---------------------------------------------------------------------------
# Subcommand bodies


def _run_validate(args: argparse.Namespace) -> dict:
    automaton = _read_automaton(args.input)
    return {"digest": _digest(automaton), "valid": True}


def _run_value1(args: argparse.Namespace) -> dict:
    automaton = _read_automaton(args.input)
    report = decide_value1(automaton, args.cap)
    body: dict = {"digest": _digest(automaton)}
    if report.value1:
        body["value1"] = "yes"
        body["witness"] = report.certificate.witness.render()
    else:
        body["value1"] = "no-with-bound" if report.leaktight else "no-unreliable"
        bound = report.certificate.bound
        body["witness"] = None
        body["p_min"] = str(bound.p_min)
        body["monoid_size"] = bound.monoid_size
        body["bound_height"] = bound.height
        body["bound"] = bound.formula
        body["note"] = report.certificate.note
    body["leaktight"] = "yes" if report.leaktight else "no"
    return body


def _run_leaktight(args: argparse.Namespace) -> dict:
    automaton = _read_automaton(args.input)
    report = decide_leaktight(automaton, args.cap)
    body: dict = {"digest": _digest(automaton)}
    body["leaktight"] = "yes" if report.leaktight else "no"
    if report.witness is None:
        body["witness"] = None
    else:
        witness = report.witness
        body["witness"] = {
            "r": automaton.states[witness.r],
            "q": automaton.states[witness.q],
            "expression": witness.expression.render(),
            "word": _word_lines(witness.element.word, automaton),
            "support": _word_lines(witness.element.support, automaton),
        }
    body["size"] = len(report.closure)
    return body


def _run_monoid(args: argparse.Namespace) -> dict:
    """`monoid`, or `extended-monoid`, whose elements also carry a support."""
    automaton = _read_automaton(args.input)
    extended = args.command == "extended-monoid"
    build = extended_markov_monoid if extended else markov_monoid
    closure = build(automaton, args.cap)
    elements = []
    for element in closure.elements:
        entry = {
            "expression": closure.provenance[element].render(),
            "height": closure.heights[element],
            "word": _word_lines(element.word if extended else element, automaton),
        }
        if extended:
            entry["support"] = _word_lines(element.support, automaton)
        elements.append(entry)
    return {
        "digest": _digest(automaton),
        "size": len(closure),
        "max_height": closure.max_height,
        "elements": elements,
    }


def _run_sharp_height(args: argparse.Namespace) -> dict:
    automaton = _read_automaton(args.input)
    closure = markov_monoid(automaton, args.cap)
    return {
        "digest": _digest(automaton),
        "sharp_height": closure.max_height,
        "size": len(closure),
    }


def _run_classify(args: argparse.Namespace) -> dict:
    automaton = _read_automaton(args.input)
    ranks = is_hierarchical(automaton)
    leak_report = decide_leaktight(automaton, args.cap)
    try:
        sharp_acyclic = is_sharp_acyclic(automaton)
    except CapExceeded:  # more states than the subset graph may have
        sharp_acyclic = None
    return {
        "digest": _digest(automaton),
        "deterministic": is_deterministic(automaton),
        "hierarchical": ranks is not None,
        "ranks": ranks,
        "sharp_acyclic": sharp_acyclic,
        "leaktight": "yes" if leak_report.leaktight else "no",
    }


def _run_compose(args: argparse.Namespace) -> dict:
    left = _read_automaton(args.left)
    right = _read_automaton(args.right)
    if args.mode == "parallel":
        composed = parallel_composition(left, right)
    else:
        composed = synchronized_product(left, right)
    return {
        "mode": args.mode,
        "digest": _digest(composed),
        "automaton": automaton_to_json(composed),
    }


def _run_reduce(args: argparse.Namespace) -> dict:
    automaton = _read_automaton(args.input)
    if args.mode == "third":
        reduced = third_simulation(automaton)
        return {
            "mode": "third",
            "digest": _digest(reduced),
            "probabilistic_rows": probabilistic_row_count(reduced),
            "automaton": automaton_to_json(reduced),
        }
    output = reduce_basic(automaton) if args.mode == "basic" else reduce_full(automaton)
    return {
        "mode": args.mode,
        "digest": _digest(output.automaton),
        "probabilistic_rows": probabilistic_row_count(output.automaton),
        "letter_map": dict(output.letter_map),
        "hat": {letter: list(block) for letter, block in output.hat.items()},
        "automaton": automaton_to_json(output.automaton),
    }


def _run_estimate_value(args: argparse.Namespace) -> dict:
    automaton = _read_automaton(args.input)
    body: dict = {"digest": _digest(automaton)}
    if args.template is not None:
        if args.max_len is not None:
            raise ValidationError("--max-len applies only without a template")
        if args.cap is not None:
            raise ValidationError("--cap applies only without a template")
        family = parse_family(args.template)
        bindings = _bindings(args)
        unused = sorted(bindings.keys() - family.parameters())
        if unused:
            raise ValidationError(f"--bind {unused[0]}: the template does not use it")
        value = evaluate_family_at(automaton, family, bindings)
        body["family"] = args.template
        body["bindings"] = dict(sorted(bindings.items()))
        body.update(_fraction_fields(value))
    else:
        if args.bind:
            raise ValidationError("--bind needs a word-family template")
        max_len = args.max_len if args.max_len is not None else 6
        cap = args.cap if args.cap is not None else DEFAULT_CAP
        value = brute_force_value(automaton, max_len, budget=cap)
        body["max_len"] = max_len
        body.update(_fraction_fields(value))
    return body


def _run_reify_check(args: argparse.Namespace) -> dict:
    automaton = _read_automaton(args.input)
    bindings = _bindings(args)
    unknown = sorted(bindings.keys() - {"n"})
    if unknown:
        raise ValidationError(f"--bind {unknown[0]}: reify-check binds only n")
    n = bindings.get("n", 12)
    if n < 1:
        raise ValidationError("reification parameter n must be at least 1")
    validate_thresholds(args.eps, args.delta)
    # The lower-bound check works at n ≤ 3 and its exponent cap trips
    # early, so it runs before the consistency pass at n.
    extended = extended_markov_monoid(automaton, args.cap)
    if find_leak_witness(extended) is not None:
        lower_bound: dict = {"skipped": "not leaktight"}
    else:
        bound_n = min(n, 3)
        bound_reports = check_lower_bound(automaton, extended, n=bound_n)
        lower_bound = {
            "n": bound_n,
            "ok": all(report.ok for report in bound_reports),
            "elements": len(bound_reports),
        }
    # Saturated, not derived from the extended closure: the plain
    # saturation's expressions can be shorter, and reifying them is cheaper.
    closure = markov_monoid(automaton, args.cap)
    reports = check_consistency(
        automaton,
        closure,
        n=n,
        zero_eps=args.eps,
        one_delta=args.delta,
    )
    consistency = [
        {
            "expression": report.expression.render(),
            "status": report.status,
            "failures": []
            if report.ok
            else [
                {
                    "from": automaton.states[entry.s],
                    "to": automaton.states[entry.t],
                    "claimed": entry.claimed,
                    "measured_approx": float(entry.measured),
                }
                for entry in report.entries
                if not entry.ok
            ],
        }
        for report in reports
    ]
    return {
        "digest": _digest(automaton),
        "n": n,
        "zero_eps": str(args.eps),
        "one_delta": str(args.delta),
        "consistent": all(report.ok for report in reports),
        "consistency": consistency,
        "lower_bound": lower_bound,
    }


_HANDLERS: dict[str, Callable[[argparse.Namespace], dict]] = {
    "validate": _run_validate,
    "value1": _run_value1,
    "leaktight": _run_leaktight,
    "monoid": _run_monoid,
    "extended-monoid": _run_monoid,
    "sharp-height": _run_sharp_height,
    "classify": _run_classify,
    "compose": _run_compose,
    "reduce": _run_reduce,
    "estimate-value": _run_estimate_value,
    "reify-check": _run_reify_check,
}


def _fraction_flag(text: str) -> Fraction:
    try:
        return _fraction_from_text(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process.

    Building it costs more than deciding a small automaton.  Each
    subcommand registers only the flags its handler reads.
    """
    parser = _Parser(
        prog="leaktight",
        description=(
            "Exact decisions for probabilistic automata: value 1, leaktight, "
            "closures, classes, reductions and numeric oracles."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(
        name: str, help_text: str, *, cap: bool = True
    ) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--format", choices=("json", "text"), default="json")
        if cap:
            sub.add_argument("--cap", type=int, default=DEFAULT_CAP)
        return sub

    for name in ("validate", "value1", "leaktight", "monoid",
                 "extended-monoid", "sharp-height", "classify"):
        sub = add(name, f"run {name} on an automaton", cap=name != "validate")
        sub.add_argument("input", help="interchange JSON file, or - for stdin")

    compose = add("compose", "combine two automata", cap=False)
    compose.add_argument("mode", choices=("parallel", "product"))
    compose.add_argument("left", help="interchange JSON file")
    compose.add_argument("right", help="interchange JSON file")

    reduce_sub = add(
        "reduce", "single-transition and coin-gadget constructions", cap=False
    )
    reduce_sub.add_argument("mode", choices=("basic", "full", "third"))
    reduce_sub.add_argument("input", help="interchange JSON file, or - for stdin")

    estimate = add("estimate-value", "brute-force or family value estimation")
    estimate.set_defaults(cap=None)  # bounds the brute-force search only
    estimate.add_argument("input", help="interchange JSON file, or - for stdin")
    estimate.add_argument(
        "template",
        nargs="?",
        default=None,
        help="word-family template, e.g. '(b a^n)^m' with --bind n=7 --bind m=200",
    )
    estimate.add_argument("--max-len", type=int, default=None)
    estimate.add_argument("--bind", action="append", metavar="NAME=NAT")

    reify = add("reify-check", "reify closure expressions and check thresholds")
    reify.add_argument("input", help="interchange JSON file, or - for stdin")
    reify.add_argument("--bind", action="append", metavar="NAME=NAT")
    reify.add_argument("--eps", type=_fraction_flag, default=Fraction(1, 1000))
    reify.add_argument("--delta", type=_fraction_flag, default=Fraction(1, 100))

    parser.commands = subparsers.choices
    return parser


def _render_text(report: dict) -> str:
    lines = []
    for key, value in report.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            lines.append(f"{key}: {value}")
        else:
            lines.append(f"{key}: {json.dumps(value, ensure_ascii=False)}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    arguments = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        command = parser.commands.get(arguments[0]) if arguments else None
        if command is None:
            # Prints help, or rejects a missing or unknown command.
            args = parser.parse_args(arguments)
        else:
            args = command.parse_args(arguments[1:])
            args.command = arguments[0]
        if getattr(args, "cap", None) is not None and args.cap < 1:
            raise ValidationError("--cap must be positive")
        if getattr(args, "max_len", None) is not None and args.max_len < 0:
            raise ValidationError("--max-len must be nonnegative")
        started = time.perf_counter()
        body = _HANDLERS[args.command](args)
        report = {"command": args.command, "argv": arguments}
        report.update(body)
        report["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        text = json.dumps(report, ensure_ascii=False, indent=2)
    else:
        text = _render_text(report)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so that the
        # flush at exit does not fail again, and exit with the status a
        # shell reports for a process that SIGPIPE ended (128 + 13).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
