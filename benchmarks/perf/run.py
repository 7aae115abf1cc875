"""Entry point of the repo benchmark; see ``benchmarks/perf/README.md``.

    python3 benchmarks/perf/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmarks/perf/run.py --aa 5

Each run is a fresh interpreter: the BLAS thread count is pinned here,
before numpy (and therefore ``repro``) is imported.
"""

import sys
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    source = here.parents[1] / "src"
    if not (source / "repro").is_dir():
        print(f"{source}/repro not found: the benchmark measures the program in "
              "this checkout and builds nothing without it", file=sys.stderr)
        return 2
    sys.path.insert(0, str(here))
    from perfbench.env import pin_threads

    pin_threads()
    sys.path.insert(0, str(source))
    from perfbench.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
