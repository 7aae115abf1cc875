"""Append one row per workload to the checked-in trajectory ``BENCH_<workload>.json``.

    python3 benchmarks/append_trajectory.py [label]

Runs the command ``BENCHMARK.json`` declares once per workload (seed 0,
untraced, its ``run_seconds``) and appends ``{label, commit, dirty,
backfilled, runs, environment, metrics}`` — the ten end-to-end metrics — to
the workload's file at the repo root.  A speed-up or a regression is then a
diff of two rows of one file.  ``commit`` is HEAD when the run started;
``dirty`` says the working tree had changes on top of it (a PR measuring
itself before it is committed).  Rows with ``backfilled: true`` were copied
from the paired medians CHANGES.md records, not measured by this script.
The harness under ``benchmarks/perf`` is only run, never edited.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def measure(benchmark: dict, workload: str) -> dict:
    """One untraced run of ``workload`` (a failed audit exits non-zero and raises)."""
    command = benchmark["command"] + [
        "--workload", workload, "--seed", "0",
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = ROOT / "benchmarks" / "perf" / "out" / f"run-{workload}-seed0-trace0.json"
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    return {
        "environment": json.loads(record.read_text())["environment"],
        "metrics": {name: result["metrics"][name]["value"] for name in names},
    }


def main(label: str = "") -> None:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    dirty = bool(
        subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    )
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        measured = measure(benchmark, workload)
        row = {
            "label": label,
            "commit": measured["environment"]["commit"],
            "dirty": dirty,
            "backfilled": False,
            "runs": "1 run, seed 0",
            **measured,
        }
        path = ROOT / f"BENCH_{workload}.json"
        rows = json.loads(path.read_text()) if path.exists() else []
        path.write_text(json.dumps(rows + [row], indent=1) + "\n")
        print(f"{path.name}: row {len(rows) + 1}", row["metrics"])


if __name__ == "__main__":
    main(*sys.argv[1:2])
