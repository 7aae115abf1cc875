"""Which ``src/repro`` functions does only ``tests/`` enter?

Runs ``pytest benchmarks --benchmark-disable`` (paper benchmarks, drills, the
perf harness's smoke runs), the six ``examples/*.py`` and ``pytest tests``,
each under a call-entry tracer (``sys.settrace`` / ``threading.settrace``)
that a generated ``sitecustomize`` installs in every interpreter on this
``PYTHONPATH``, subprocesses included.  Prints per module the functions
entered only by ``tests/`` and those never entered, with line totals (first
decorator to last statement; nested functions count with their parent).

``--benchmark-disable`` is required: pytest-benchmark's
``PauseInstrumentation`` clears ``sys.settrace`` during timed calls, so what a
benchmark times would look test-only.  Forked fleet workers leave through
``os._exit`` and never report.  ≈ 4 min on 2 cores:
``python3 benchmarks/surface_census.py``.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "repro"

SITECUSTOMIZE = """
import atexit, json, os, sys, tempfile, threading
_codes = set()
def _trace(frame, event, arg, _add=_codes.add):
    _add(frame.f_code)
def _dump():
    sys.settrace(None)
    prefix = os.environ["CENSUS_SRC"]
    hits = sorted({(c.co_filename, c.co_firstlineno) for c in _codes if c.co_filename.startswith(prefix)})
    fd, _ = tempfile.mkstemp(suffix=".json", dir=os.environ["CENSUS_OUT"])
    with os.fdopen(fd, "w") as f:
        json.dump(hits, f)
sys.settrace(_trace)
threading.settrace(_trace)
atexit.register(_dump)
"""

PHASES = {
    "benchmarks": [["-m", "pytest", "benchmarks", "-q", "--benchmark-disable"]],
    "examples": [[str(path)] for path in sorted((ROOT / "examples").glob("*.py"))],
    "tests": [["-m", "pytest", "tests", "-q"]],
}


def run_phase(name, commands, work: Path) -> set:
    """Run ``commands`` traced; return the ``(file, line)`` keys entered."""
    out = work / name
    out.mkdir()
    env = dict(os.environ, CENSUS_OUT=str(out), CENSUS_SRC=str(PKG))
    env["PYTHONPATH"] = os.pathsep.join([str(work), str(PKG.parent), env.get("PYTHONPATH", "")])
    for command in commands:
        if subprocess.run([sys.executable, *command], cwd=ROOT, env=env).returncode:
            print(f"warning: {' '.join(command)} failed", file=sys.stderr)
    return {tuple(hit) for dump in out.glob("*.json") for hit in json.loads(dump.read_text())}


def functions() -> dict:
    """``(file, first line) -> (module, name, lines)`` for every top-level
    function and method of ``src/repro``."""
    found = {}
    for path in sorted(PKG.rglob("*.py")):
        module = path.relative_to(PKG.parent).with_suffix("").as_posix().replace("/", ".")
        pending = [(node, "") for node in ast.parse(path.read_text()).body]
        while pending:
            node, prefix = pending.pop()
            if isinstance(node, ast.ClassDef):
                pending += [(child, f"{prefix}{node.name}.") for child in node.body]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(str(path), first)] = (module, prefix + node.name, node.end_lineno - first + 1)
    return found


def report(title: str, keys, table) -> None:
    by_module = defaultdict(list)
    for key in keys:
        by_module[table[key][0]].append(table[key][1:])
    print(f"\n== {title}: {len(keys)} functions / {sum(table[k][2] for k in keys)} lines")
    for module, entries in sorted(by_module.items()):
        names = ", ".join(f"{name} ({lines})" for name, lines in sorted(entries))
        print(f"{module} [{sum(lines for _, lines in entries)}]: {names}")


if __name__ == "__main__":
    table = functions()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sitecustomize.py").write_text(SITECUSTOMIZE)
        entered = {name: run_phase(name, cmds, Path(tmp)) for name, cmds in PHASES.items()}
    elsewhere = entered["benchmarks"] | entered["examples"]
    report("entered only by tests/", sorted(set(table) & entered["tests"] - elsewhere), table)
    report("never entered", sorted(set(table) - entered["tests"] - elsewhere), table)
