"""The per-instance answers record, and the command that makes it anew.

    python3 perfbench/answers.py

answers every instance of every workload once for each recorded seed
and writes answers.json: workload -> seed -> operation (workload, rung
and index) -> verdict with a witness hash, or output count with an
output-set hash.  Each benchmark run prints how many of its answers
differ from this record.  The record is a report beside the
independent checks, never a substitute for them.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD = HERE / "answers.json"
RECORDED_SEEDS = range(1, 13)


def compare(workload: str, seed: int, summaries: dict) -> str:
    try:
        record = json.loads(RECORD.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return "answers record: none found"
    recorded = record.get(workload, {}).get(str(seed))
    if recorded is None:
        return f"answers record: seed {seed} not recorded (held-out seed)"
    differ = sorted(k for k in summaries.keys() | recorded.keys()
                    if summaries.get(k) != recorded.get(k))
    shown = "" if not differ else " (" + ", ".join(differ[:5]) + ")"
    return f"answers record: {len(differ)} of {len(summaries)} answers differ{shown}"


def main() -> int:
    record = {}
    for workload in ("saturate", "search", "transduce", "cli"):
        record[workload] = {}
        for seed in RECORDED_SEEDS:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "0", "--record"],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            record[workload][str(seed)] = json.loads(out.strip().splitlines()[-1])["answers"]
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
