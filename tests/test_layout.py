"""Layout guard: every module-level definition in ``src/corrsynth`` is reached.

A function or class defined at module level in the package is *reached* when
one of these names it:

* the console-script entry in ``pyproject.toml``;
* a module-level statement of the package other than an import (a dispatch
  table such as ``cli._HANDLERS`` or ``harness._NAMED_INSTANCES``);
* any name, attribute or dotted string in ``bench/*.py`` (the benchmark's
  calls and the tracer targets it patches by name);
* ``tests/test_acceptance.py``;
* the body of a reached definition.

Names are matched by identifier, not by module, so a reference may reach a
homonym too; the guard errs towards keeping code.  What nothing reaches is
either deleted or, when unit tests compare ``src`` against it, kept in
``tests/_oracles.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "corrsynth"


def _names(node: ast.AST) -> set[str]:
    """Every identifier ``node`` mentions: names, attributes and dotted strings."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", sub.value):
                found.update(sub.value.split("."))
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unreached_definitions() -> list[str]:
    """``module.name`` of every module-level def or class no root reaches."""
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    roots: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((path.stem, stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _names(stmt)
    entry = re.search(r'^corrsynth\s*=\s*"corrsynth\.\w+:(\w+)"',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert entry, "pyproject.toml declares no corrsynth console script"
    roots.add(entry.group(1))
    for path in sorted((ROOT / "bench").glob("*.py")):
        roots |= _names(_parse(path))
    roots |= _names(_parse(ROOT / "tests" / "test_acceptance.py"))

    reached: set[str] = set()
    frontier = [name for name in roots if name in defs]
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in defs[name]:
            frontier.extend(n for n in _names(node) if n in defs and n not in reached)
    return sorted(f"{module}.{name}" for name, where in defs.items()
                  if name not in reached for module, _ in where)


def test_every_src_definition_is_reached():
    unreached = unreached_definitions()
    assert not unreached, (
        f"{len(unreached)} definitions in src/corrsynth are reached only by unit "
        "tests or by nothing; delete them or move the test references to "
        "tests/_oracles.py:\n  " + "\n  ".join(unreached))
