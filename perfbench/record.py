"""Record the expected answers of every workload at seed 0.

    python3 perfbench/record.py [workload ...]

Writes `perfbench/expected/<workload>.json`.  Recording runs each case once,
with no deadline; a value-1 witness that does not hold up stops it.  Record
again only when an answer is meant to change, and say why in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import WORK_DIR, WORKLOADS  # noqa: E402


def record(name: str) -> dict:
    work_dir = WORK_DIR / f"record-{name}"
    cases = workloads.build(name, 0, work_dir)
    answers = {
        case.id: workloads.answer(case, workloads.RUN[case.kind](case)) for case in cases
    }
    shutil.rmtree(work_dir, ignore_errors=True)
    return answers


def main(names: list[str]) -> int:
    for name in names or WORKLOADS:
        if name not in WORKLOADS:
            print(f"error: unknown workload {name!r}", file=sys.stderr)
            return 1
        answers = record(name)
        path = workloads.expected_path(name)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name}: {len(answers)} answers written to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
