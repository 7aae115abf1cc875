"""Print the refresh cycle's stage budget and the train step's work counts.

    python3 benchmarks/refresh_budget.py [--workload refresh-loop] [--seed 5] [--full]

Runs one traced ``benchmarks/perf`` workload in this process (smoke-sized
unless ``--full``), writes its JSON line to
``benchmarks/artifacts/refresh_smoke.json`` (``refresh_full.json``) and
prints the ``online.*`` stage seconds, ``core.train_step_ms_p50`` /
``core.steps`` / ``online.train_rows`` and the trainer's ``train_positions_total`` /
``train_padded_positions_total`` counters.  The harness itself is a fixed
instrument and does not report those two counters; its trainer registry is
local to ``driver.run``, so this script hands the driver a registry class
that remembers its instances.  A reading for the CI summary, not a gate.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "benchmarks" / "perf"), str(ROOT / "src")]

from perfbench.env import pin_threads  # noqa: E402

pin_threads()  # before numpy is imported, as benchmarks/perf/run.py does

from perfbench import cli, driver  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="refresh-loop")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--full", action="store_true", help="full-size run, not --smoke")
    args = parser.parse_args()

    registries = []

    class RecordingRegistry(driver.MetricsRegistry):
        def __init__(self) -> None:
            super().__init__()
            registries.append(self)

    driver.MetricsRegistry = RecordingRegistry
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--trace", "1"]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv if args.full else [*argv, "--smoke"])
    if code:
        return code
    line = captured.getvalue().splitlines()[-1]
    artifacts = ROOT / "benchmarks" / "artifacts"
    artifacts.mkdir(parents=True, exist_ok=True)
    (artifacts / f"refresh_{'full' if args.full else 'smoke'}.json").write_text(line + "\n")

    metrics = json.loads(line)["metrics"]
    for stage in ("read_build", "train", "register", "canary", "load", "swap"):
        print(f"online.{stage}_s: {metrics[f'online.{stage}_s']['value']:.4f} s")
    print(f"core.train_step_ms_p50: {metrics['core.train_step_ms_p50']['value']:.2f} ms")
    for name in ("core.steps", "online.train_rows"):
        print(f"{name}: {metrics[name]['value']:.0f}")
    (trainer,) = registries
    positions = trainer.counter("train_positions_total").value
    padded = trainer.counter("train_padded_positions_total").value
    print(f"train_positions_total: {positions}")
    print(f"train_padded_positions_total: {padded} (occupancy {positions / padded:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
