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

``--knobs`` is a static AST pass instead (seconds, nothing runs): every
defaulted dataclass field and ``__init__`` keyword of ``src/repro``, by
class, tagged with where a call sets it — ``src``, ``benchmarks/examples``,
``tests`` only, or ``nowhere``.  Calls are matched by callee name (keyword
and positional arguments; ``cls(...)`` inside the class) plus the keywords
of any ``replace(...)`` call, which count for every dataclass with a field
of that name.
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


KNOB_SCOPES = {
    "src": [PKG],
    "benchmarks/examples": [ROOT / "benchmarks", ROOT / "examples"],
    "tests": [ROOT / "tests"],
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _class_params(node: ast.ClassDef):
    """``(parameter names in positional order, the defaulted ones)``."""
    if _is_dataclass(node):
        names, defaulted = [], set()
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
                continue
            if "ClassVar" in ast.unparse(stmt.annotation):
                continue
            value = stmt.value
            if isinstance(value, ast.Call) and any(
                k.arg == "init" and isinstance(k.value, ast.Constant) and not k.value.value
                for k in value.keywords
            ):
                continue
            names.append(stmt.target.id)
            if value is not None:
                defaulted.add(stmt.target.id)
        return names, defaulted
    inits = [s for s in node.body if isinstance(s, ast.FunctionDef) and s.name == "__init__"]
    if not inits:
        return [], set()
    args = inits[0].args
    positional = [a.arg for a in args.posonlyargs + args.args][1:]
    defaulted = set(positional[len(positional) - len(args.defaults) :])
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    return positional, defaulted


def settable_values() -> dict:
    """``class name -> [(module.Class, positional names, defaulted names)]``."""
    classes = defaultdict(list)
    for path in sorted(PKG.rglob("*.py")):
        module = path.relative_to(PKG.parent).with_suffix("").as_posix().replace("/", ".")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                positional, defaulted = _class_params(node)
                if defaulted:
                    classes[node.name].append((f"{module}.{node.name}", positional, defaulted))
    return classes


def _calls(tree: ast.AST):
    """``(callee name, call)`` for every call; ``cls(...)`` names its class."""
    pending = [(tree, None)]
    while pending:
        node, owner = pending.pop()
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield (owner if func.id == "cls" else func.id), node
            elif isinstance(func, ast.Attribute):
                yield func.attr, node
        pending += [(child, owner) for child in ast.iter_child_nodes(node)]


def knob_census() -> None:
    classes = settable_values()
    by_field = defaultdict(list)
    for entries in classes.values():
        for qualname, _, defaulted in entries:
            for name in defaulted:
                by_field[name].append(qualname)
    set_in = defaultdict(set)  # (module.Class, name) -> scopes
    for scope, roots in KNOB_SCOPES.items():
        for path in sorted(p for root in roots for p in root.rglob("*.py")):
            for callee, call in _calls(ast.parse(path.read_text())):
                if callee == "replace":
                    for kw in call.keywords:
                        for qualname in by_field.get(kw.arg, ()):
                            set_in[(qualname, kw.arg)].add(scope)
                for qualname, positional, defaulted in classes.get(callee, ()):
                    named = [kw.arg for kw in call.keywords if kw.arg is not None]
                    for i, arg in enumerate(call.args):
                        if isinstance(arg, ast.Starred):
                            break
                        if i < len(positional):
                            named.append(positional[i])
                    for name in set(named) & defaulted:
                        set_in[(qualname, name)].add(scope)
    totals = defaultdict(int)
    lines = []
    for qualname, positional, defaulted in sorted(e for es in classes.values() for e in es):
        tags = []
        for name in [n for n in positional if n in defaulted] + sorted(defaulted - set(positional)):
            where = next((s for s in KNOB_SCOPES if s in set_in[(qualname, name)]), "nowhere")
            totals[where] += 1
            tags.append(f"{name} [{where}]")
        lines.append(f"{qualname}: {', '.join(tags)}")
    summary = ", ".join(f"{where} {totals[where]}" for where in (*KNOB_SCOPES, "nowhere"))
    print(f"== settable values: {sum(totals.values())} ({summary})")
    print("\n".join(lines))


if __name__ == "__main__":
    if "--knobs" in sys.argv[1:]:
        knob_census()
        sys.exit()
    table = functions()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sitecustomize.py").write_text(SITECUSTOMIZE)
        entered = {name: run_phase(name, cmds, Path(tmp)) for name, cmds in PHASES.items()}
    elsewhere = entered["benchmarks"] | entered["examples"]
    report("entered only by tests/", sorted(set(table) & entered["tests"] - elsewhere), table)
    report("never entered", sorted(set(table) - entered["tests"] - elsewhere), table)
