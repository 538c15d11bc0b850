"""Timing loop, per-case deadlines and call tracing for the leaktight benchmark.

A run is a closed loop: one client, one case at a time, in one process.
Before each case the previous case's results are dropped and garbage is
collected, outside the timed region; the answer is checked after the timer
stops.  A case that passes its deadline is interrupted by SIGALRM and
recorded as a failed case together with the layer that was running.  Every
time is in reference seconds (see clock.py).

The traced run wraps the public entry points of each layer (module
attributes, swapped at run time and restored afterwards; no program file is
touched) and records one span per call: name, start, end, parent and case.
"""

from __future__ import annotations

import contextlib
import gc
import random
import signal
import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter

import workloads
from clock import Clock, elapsed
from leaktight import automaton as automaton_layer
from leaktight import cli, leaks, monoid, oracle, reduction
from leaktight.sharpexpr import Concat, Iterate

LAYERS = ("cli", "automaton", "limitword", "sharpexpr", "monoid", "leaks", "oracle", "reduction")

# (module, attribute, span name) of every wrapped call.  Names bound inside
# `leaktight.cli` are wrapped there, where `cli.main` looks them up.
TRACED_CALLS = (
    (cli, "main", "cli.main"),
    (cli, "parse_automaton", "automaton.parse_automaton"),
    (cli, "extended_markov_monoid", "leaks.extended_markov_monoid"),
    (cli, "find_leak_witness", "leaks.find_leak_witness"),
    (cli, "decide_value1", "monoid.decide_value1"),
    (automaton_layer, "parse_automaton", "automaton.parse_automaton"),
    (monoid, "markov_monoid", "monoid.markov_monoid"),
    (leaks, "extended_markov_monoid", "leaks.extended_markov_monoid"),
    (leaks, "find_leak_witness", "leaks.find_leak_witness"),
    (oracle, "check_consistency", "oracle.check_consistency"),
    (oracle, "brute_force_value", "oracle.brute_force_value"),
    (reduction, "reduce_full", "reduction.reduce_full"),
)
# Spans whose results feed the per-layer counts.
KEPT = {
    "monoid.markov_monoid",
    "leaks.extended_markov_monoid",
    "oracle.check_consistency",
    "reduction.reduce_full",
}
# (module, function) of each wrapped function -> its layer, to name the layer
# a deadline interrupted from the traceback alone.
ENTRY_LAYERS = {
    (getattr(module, attribute).__module__, getattr(module, attribute).__name__):
        name.split(".")[0]
    for module, attribute, name in TRACED_CALLS
}

CONCAT_PAIRS = 20_000
CONCAT_REPEATS = 5
CONCAT_SAMPLE_PER_CLOSURE = 8


class CaseTimeout(BaseException):
    """Raised by the alarm when a case passes its deadline."""


def _alarm(signum, frame):
    raise CaseTimeout()


def running_layer(tb) -> str:
    """The layer of the innermost wrapped entry point on the traceback."""
    layer = "none"
    for frame, _ in traceback.walk_tb(tb):
        key = (frame.f_globals.get("__name__"), frame.f_code.co_name)
        layer = ENTRY_LAYERS.get(key, layer)
    return layer


@dataclass
class Outcome:
    case_id: str
    status: str  # "ok", "wrong" or "timeout"
    detail: str = ""
    start: tuple | None = None  # Clock.now() stamps of the timed region
    end: tuple | None = None
    seconds: float = 0.0  # reference seconds, once the pass is converted


@dataclass
class Pass:
    outcomes: list[Outcome]

    @property
    def wall(self) -> float:
        """Time spent inside the timed regions."""
        return sum(outcome.seconds for outcome in self.outcomes)


class Tracer:
    """Spans of wrapped calls, kept in memory until the run ends."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, case id]
        self.kept: list[tuple[str, object]] = []
        self.case_id = ""
        self._stack: list[int] = []

    def wrap(self, name: str, function):
        spans, stack, kept, now = self.spans, self._stack, self.kept, self.clock.now
        keep = name in KEPT

        def traced(*args, **kwargs):
            span = [name, None, None, stack[-1] if stack else -1, self.case_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if keep:
                kept.append((name, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for module, attribute, name in TRACED_CALLS:
                original = getattr(module, attribute)
                originals.append((module, attribute, original))
                setattr(module, attribute, self.wrap(name, original))
            yield self
        finally:
            for module, attribute, original in reversed(originals):
                setattr(module, attribute, original)

    def durations(self) -> tuple[dict[str, float], dict[str, float], list[float]]:
        """Total and self time per span name, and the self time of each cli.main call."""
        # Self time is taken in measured seconds, then converted at the span's speed.
        lengths = [elapsed(start, end) for _, start, end, _, _ in self.spans]
        children = [0.0] * len(self.spans)
        for (_, _, _, parent, _), length in zip(self.spans, lengths):
            if parent >= 0:
                children[parent] += length
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        cli_self = []
        for (name, start, end, _, _), length, inner in zip(self.spans, lengths, children):
            speed = self.clock.speed(start, end)
            total[name] = total.get(name, 0.0) + length * speed
            own[name] = own.get(name, 0.0) + (length - inner) * speed
            if name == "cli.main":
                cli_self.append((length - inner) * speed)
        return total, own, cli_self


def provenance_stats(expressions) -> tuple[int, int]:
    """(deepest expression, distinct iterate nodes) over shared expression DAGs."""
    depth: dict[int, int] = {}
    iterates = 0
    for root in expressions:
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in depth:
                stack.pop()
                continue
            if isinstance(node, Concat):
                children = (node.left, node.right)
            elif isinstance(node, Iterate):
                children = (node.child,)
            else:
                children = ()
            pending = [child for child in children if id(child) not in depth]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            depth[id(node)] = 1 + max(depth[id(child)] for child in children) if children else 0
            iterates += isinstance(node, Iterate)
    deepest = max((depth[id(root)] for root in expressions), default=0)
    return deepest, iterates


class LayerCounts:
    """Counts over the results of the wrapped calls of one traced pass."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.counts = dict.fromkeys(
            (
                "monoid.elements", "monoid.max_height", "monoid.markov_monoid_calls",
                "leaks.pairs", "leaks.extended_calls",
                "sharpexpr.max_depth", "sharpexpr.iterate_nodes",
                "oracle.reports", "oracle.inconclusive", "reduction.states",
            ),
            0,
        )
        self.concat_pool: list[tuple] = []  # a few elements of each plain closure
        self._rng = random.Random(seed)

    def absorb(self, kept: list[tuple[str, object]]) -> None:
        counts = self.counts
        for name, result in kept:
            if name == "monoid.markov_monoid":
                counts["monoid.markov_monoid_calls"] += 1
                counts["monoid.elements"] += len(result.elements)
                counts["monoid.max_height"] = max(counts["monoid.max_height"], result.max_height)
                deepest, iterates = provenance_stats(list(result.provenance.values()))
                counts["sharpexpr.max_depth"] = max(counts["sharpexpr.max_depth"], deepest)
                counts["sharpexpr.iterate_nodes"] += iterates
                size = min(CONCAT_SAMPLE_PER_CLOSURE, len(result.elements))
                self.concat_pool.append(tuple(self._rng.sample(result.elements, size)))
            elif name == "leaks.extended_markov_monoid":
                counts["leaks.extended_calls"] += 1
                counts["leaks.pairs"] += len(result.elements)
            elif name == "oracle.check_consistency":
                counts["oracle.reports"] += len(result)
                counts["oracle.inconclusive"] += sum(1 for report in result if not report.ok)
            elif name == "reduction.reduce_full":
                counts["reduction.states"] += len(result.automaton.states)
        kept.clear()

    def concat_ns(self, clock: Clock) -> float:
        """ns per LimitWord.concat over operand pairs drawn from the closures."""
        rng = random.Random(self.seed)
        pairs = []
        for _ in range(CONCAT_PAIRS):
            group = rng.choice(self.concat_pool)
            pairs.append((rng.choice(group), rng.choice(group)))
        stamps = []
        for _ in range(CONCAT_REPEATS):
            start = clock.now()
            for x, y in pairs:
                x.concat(y)
            stamps.append((start, clock.now()))
        return statistics.median(clock.seconds(*s) for s in stamps) / CONCAT_PAIRS * 1e9


def run_case(
    case, expected: dict, deadline: float, clock: Clock, tracer: Tracer | None = None
) -> Outcome:
    gc.collect()
    if deadline <= 0:
        return Outcome(case.id, "timeout", "none: run budget spent before the case")
    if tracer is not None:
        tracer.case_id = case.id
    operation = workloads.RUN[case.kind]
    start = clock.now()
    try:
        # The alarm repeats each second until cancelled, in case one is
        # swallowed where exceptions are ignored.
        signal.setitimer(signal.ITIMER_REAL, deadline, 1.0)
        raw = operation(case)
        end = clock.now()
        signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout as exc:
        end = clock.now()
        signal.setitimer(signal.ITIMER_REAL, 0)
        return Outcome(case.id, "timeout", running_layer(exc.__traceback__), start, end)
    except Exception as exc:  # a crash is a wrong answer, and the run goes on
        end = clock.now()
        signal.setitimer(signal.ITIMER_REAL, 0)
        return Outcome(case.id, "wrong", f"raised {exc!r}", start, end)
    problem = workloads.check(case, raw, expected.get(case.id))
    return Outcome(case.id, "wrong" if problem else "ok", problem or "", start, end)


class Runner:
    """Runs passes over one workload's cases within a run budget."""

    def __init__(
        self, cases, expected: dict, deadline: float, budget_end: float, clock: Clock
    ) -> None:
        self.cases = cases
        self.expected = expected
        self.deadline = deadline
        self.budget_end = budget_end
        self.clock = clock

    def run_pass(self, tracer: Tracer | None = None, counts: LayerCounts | None = None) -> Pass:
        """One pass; its times are converted by `measure` once sampling has moved past it."""
        outcomes = []
        for case in self.cases:
            deadline = min(self.deadline, self.budget_end - perf_counter())
            outcomes.append(run_case(case, self.expected, deadline, self.clock, tracer))
            if counts is not None:
                counts.absorb(tracer.kept)
        return Pass(outcomes)

    def measure(self, seconds: float, trace: bool, seed: int):
        """Untraced passes, each followed by a traced one when `trace` is set.

        Passes repeat while the next one is expected to end within `seconds`;
        there is always at least one.  Call it while the clock runs.
        """
        signal.signal(signal.SIGALRM, _alarm)
        plain: list[Pass] = []
        traced: list[tuple[Pass, Tracer, LayerCounts]] = []
        start = perf_counter()
        while True:
            round_start = perf_counter()
            plain.append(self.run_pass())
            if trace:
                tracer, counts = Tracer(self.clock), LayerCounts(seed)
                with tracer.installed():
                    traced.append((self.run_pass(tracer, counts), tracer, counts))
            round_time = perf_counter() - round_start
            if perf_counter() - start + round_time > seconds:
                break
        for run in plain + [run for run, _, _ in traced]:
            for outcome in run.outcomes:
                if outcome.start is not None:
                    outcome.seconds = self.clock.seconds(outcome.start, outcome.end)
        return plain, traced


def case_times(runs: list[Pass]) -> list[float]:
    """Each case's median time over the passes, so that the number of passes
    a run fits in moves no percentile."""
    return [
        statistics.median(outcomes)
        for outcomes in zip(*([o.seconds for o in run.outcomes] for run in runs))
    ]


def tail(values: list[float]) -> float:
    """The highest value with ten values above it (p98 of 500), but not below the median."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, (len(ordered) - 1) // 2)]


def end_to_end_metrics(plain: list[Pass], setup_s: float, peak_rss_mb: float) -> dict:
    times = case_times(plain)
    outcomes = [outcome for run in plain for outcome in run.outcomes]
    return {
        "wall_s": sum(times),
        "case_ms.p50": statistics.median(times) * 1000,
        "case_ms.tail": tail(times) * 1000,
        "decided_frac": sum(o.status == "ok" for o in outcomes) / len(outcomes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(
    plain: list[Pass], traced: list[tuple[Pass, Tracer, LayerCounts]], clock: Clock
) -> dict:
    """Times are medians over the traced passes; counts come from the first.

    Call it while the clock runs: it times LimitWord.concat.
    """
    total, own, cli_self = zip(*(tracer.durations() for _, tracer, _ in traced))

    def median_of(get) -> float:
        return statistics.median(get(index) for index in range(len(traced)))

    metrics = {
        "cli.self_ms.p50": median_of(
            lambda i: statistics.median(cli_self[i]) * 1000 if cli_self[i] else 0.0
        ),
        "monoid.decide_value1_self_s": median_of(lambda i: own[i].get("monoid.decide_value1", 0.0)),
    }
    for name in (
        "automaton.parse_automaton",
        "monoid.markov_monoid",
        "leaks.extended_markov_monoid",
        "leaks.find_leak_witness",
        "oracle.check_consistency",
        "oracle.brute_force_value",
        "reduction.reduce_full",
    ):
        metrics[f"{name}_s"] = median_of(lambda i: total[i].get(name, 0.0))
    for layer in ("cli", "automaton", "monoid", "leaks", "oracle", "reduction"):
        metrics[f"{layer}.self_s"] = median_of(
            lambda i: sum((t for name, t in own[i].items() if name.startswith(layer + ".")), 0.0)
        )

    first_pass, first_tracer, counts = traced[0]
    metrics.update(counts.counts)
    reports = counts.counts["oracle.reports"]
    metrics["oracle.conclusive_frac"] = (
        (reports - counts.counts["oracle.inconclusive"]) / reports if reports else 0.0
    )
    metrics["limitword.concat_ns"] = counts.concat_ns(clock)
    for layer in LAYERS:
        metrics[f"{layer}.timeouts"] = sum(
            o.status == "timeout" and o.detail == layer for o in first_pass.outcomes
        )
    traced_wall = statistics.median(run.wall for run, _, _ in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(run.wall for run in plain)
    metrics["trace.spans"] = len(first_tracer.spans)
    return metrics
