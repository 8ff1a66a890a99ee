"""Every name a module under src/metaplot imports is used in that module.

No linter is a test dependency, so this walks each module's syntax tree. A
use is any load of the name, in code or in an annotation (a string
annotation is parsed too), or its listing in the module's __all__.
`from __future__` imports are exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metaplot

MODULES = sorted(Path(metaplot.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses (name: line): {unused}"


def test_an_unused_import_is_caught():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport json\nfrom typing import Any, Sequence\n"
        "from .a import b as c, d\n"
        "__all__ = ['d']\n"
        "def f(x: 'Sequence[int]') -> None:\n    return os.sep\n"
    )
    used = _used(tree)
    assert sorted(n for n in _imported(tree) if n not in used) == ["Any", "c", "json"]


def test_importing_the_cli_and_ingest_loads_neither_numpy_nor_pickle():
    # numpy is for simulate only, and pickle for a run that calls forked;
    # the benchmark's setup_s times a fresh import of metaplot.cli
    src = str(Path(metaplot.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import metaplot.cli, metaplot.ingest, sys; "
            "print(sorted({'numpy', 'pickle'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
