"""``repro`` needs nothing beyond the standard library and its declared
dependencies.

``pyproject.toml`` declares numpy alone.  A module that imported anything
else would work only where that package happens to be installed, and would
load it into every serving process.  Two checks: a fresh interpreter that
imports every ``repro`` module gains no top-level module outside the
standard library, numpy and ``repro`` over one that imports numpy alone
(the diff drops whatever ``site`` and ``.pth`` files inject into both); and
every ``import`` statement under ``src/repro`` names the standard library,
``repro`` or a declared dependency, including imports a run never reaches.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__path__[0]).parent
PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"

_TOP_LEVEL_MODULES = (
    "import json, sys\n"
    "{imports}\n"
    "print(json.dumps(sorted({{name.partition('.')[0] for name in sys.modules}})))\n"
)
_EVERY_REPRO_MODULE = (
    "import importlib, pkgutil, repro\n"
    "for info in pkgutil.walk_packages(repro.__path__, prefix='repro.'):\n"
    "    importlib.import_module(info.name)"
)


def _top_level_modules(imports):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", _TOP_LEVEL_MODULES.format(imports=imports)],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(json.loads(result.stdout))


def _declared_dependencies():
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", PYPROJECT.read_text(), re.M | re.S)
    specs = re.findall(r"""["']([^"']+)["']""", block.group(1))
    return {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0].replace("-", "_") for spec in specs}


def test_importing_every_module_loads_only_stdlib_and_numpy():
    baseline = _top_level_modules("import numpy")
    loaded = _top_level_modules(_EVERY_REPRO_MODULE)
    assert "repro" in loaded
    # multiprocessing registers __main__ a second time as "__mp_main__".
    stdlib = set(sys.stdlib_module_names) | {"__mp_main__"}
    foreign = loaded - baseline - stdlib - {"numpy", "repro"}
    assert not foreign, f"importing repro loads modules outside stdlib + numpy: {sorted(foreign)}"


def test_every_import_statement_names_stdlib_repro_or_a_declared_dependency():
    allowed = set(sys.stdlib_module_names) | {"repro"} | _declared_dependencies()
    assert "numpy" in allowed
    offenders = []
    for path in sorted(SRC.joinpath("repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [
                f"{path.relative_to(SRC)}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert not offenders, f"imports outside stdlib, repro and pyproject dependencies: {offenders}"
