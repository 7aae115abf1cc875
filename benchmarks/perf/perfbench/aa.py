"""A/A tool: how far apart do two sets of runs of the *same* code land?

``run.py --aa N`` makes two interleaved sets (A, B) of N fresh-process runs
per workload on seeds 0..N-1 — seed by seed, workload by workload, A and B
alternating which goes first — and prints one table per workload: both
medians, each set's quartile spread (share of its median), the gap between
the medians and the metric's bound from ``BENCHMARK.json``.  A gap or a
spread beyond its bound makes the exit code non-zero: the benchmark could
not tell such a change from noise.  The bounds in ``BENCHMARK.json`` were
sized from this tool's output (README, "Measured noise").
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Dict, List

from perfbench import env, stats
from perfbench.cli import OUT_DIR, PERF_DIR, REPO_ROOT

__all__ = ["main"]


def _one_run(workload: str, seed: int, seconds: float, smoke: bool) -> Dict[str, object]:
    command = [
        sys.executable, str(PERF_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _values(runs: List[Dict[str, object]], metric: str) -> List[float]:
    return [float(run["metrics"][metric]["value"]) for run in runs]


def main(n: int, seconds: float, smoke: bool, baseline: bool) -> int:
    if n < 2:
        raise SystemExit("--aa needs N >= 2 (quartiles of one run do not exist)")
    bench = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in bench["workloads"]]
    sets: Dict[str, Dict[str, List[Dict[str, object]]]] = {
        name: {"A": [], "B": []} for name in workloads
    }
    for seed in range(n):
        for name in workloads:
            for label in ("AB", "BA")[seed % 2]:
                sets[name][label].append(_one_run(name, seed, seconds, smoke))
                print(f"  seed {seed} {name} set {label} done", file=sys.stderr)

    exceeded = 0
    rows: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in workloads:
        print(f"\n#### {name} (N = {n} per set, seeds 0..{n - 1})\n")
        print("| metric | unit | median A | median B | spread A | spread B | gap | bound | |")
        print("|---|---|---|---|---|---|---|---|---|")
        rows[name] = {}
        for metric in bench["end_to_end"]:
            a = _values(sets[name]["A"], metric["name"])
            b = _values(sets[name]["B"], metric["name"])
            gap = abs(stats.worse_by(stats.median(a), stats.median(b), metric["better"]))
            spread_a, spread_b = stats.quartile_spread(a), stats.quartile_spread(b)
            # The driver excuses set-up time from the spread rule only.
            spread = 0.0 if metric["name"] == "setup_s" else max(spread_a, spread_b)
            over = gap > metric["bound"] or spread > metric["bound"]
            exceeded += over
            q1, q3 = stats.quartiles(a + b)
            rows[name][metric["name"]] = {
                "value": stats.median(a + b), "unit": metric["unit"], "q1": q1, "q3": q3,
                "runs": len(a + b), "aa_gap": gap,
            }
            print(
                f"| `{metric['name']}` | {metric['unit']} | {stats.median(a):.6g} "
                f"| {stats.median(b):.6g} | {spread_a:.4f} | {spread_b:.4f} | {gap:.4f} "
                f"| {metric['bound']} | {'OVER' if over else 'ok'} |"
            )

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "aa.json").write_text(json.dumps(sets, indent=1))
    if baseline:
        document = {
            "schema": "one row per workload, in the shape a run prints; value = median of "
            "the pooled A/A runs, q1/q3 their quartiles",
            "environment": env.environment_record(REPO_ROOT, None),
            "seconds": seconds,
            "rows": [
                {
                    "workload": name,
                    "correct": True,
                    "attempted": int(stats.median(
                        [run["attempted"] for run in sets[name]["A"] + sets[name]["B"]]
                    )),
                    "failed": 0,
                    "metrics": rows[name],
                }
                for name in workloads
            ],
        }
        (PERF_DIR / "baseline.json").write_text(json.dumps(document, indent=1) + "\n")
    if exceeded:
        print(f"\n{exceeded} metric(s) beyond their bound", file=sys.stderr)
    return 1 if exceeded else 0
