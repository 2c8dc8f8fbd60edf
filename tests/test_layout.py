"""Layout guard: every definition in ``src/corrsynth`` is reached.

A definition is a function or class at module level, or a method (property,
classmethod, ...) of such a class.  It is *reached* when one of these names
it:

* the console-script entry in ``pyproject.toml``;
* a module-level statement of the package other than an import (a dispatch
  table such as ``cli._COMMANDS`` or ``harness._NAMED_INSTANCES``);
* any name, attribute or dotted string in ``bench/*.py`` (the benchmark's
  calls and the tracer targets it patches by name);
* ``tests/test_acceptance.py``;
* the body of a reached definition.

A class's own body (its decorators, bases, fields and dunder methods such as
``__post_init__``, which Python calls for it) is reached with the class; each
other method is reached only when it is named itself.  Names are matched by
identifier, not by module or class, so a reference may reach a homonym too;
the guard errs towards keeping code.  What nothing reaches is either deleted
or, when unit tests compare ``src`` against it, kept in ``tests/_oracles.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "corrsynth"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(*nodes: ast.AST) -> set[str]:
    """Every identifier ``nodes`` mention: names, attributes and dotted strings."""
    found = set()
    for sub in (s for node in nodes for s in ast.walk(node)):
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


def _is_method(stmt: ast.stmt) -> bool:
    return isinstance(stmt, _FUNCTIONS) and not re.fullmatch(r"__\w+__", stmt.name)


def _definitions(stmt: ast.stmt, module: str):
    """(identifier, qualified name, names it reaches) of a def or class and its methods."""
    if isinstance(stmt, _FUNCTIONS):
        yield stmt.name, f"{module}.{stmt.name}", _names(stmt)
    elif isinstance(stmt, ast.ClassDef):
        own = [s for s in stmt.body if not _is_method(s)]
        yield stmt.name, f"{module}.{stmt.name}", _names(
            *stmt.decorator_list, *stmt.bases, *stmt.keywords, *own
        )
        for method in filter(_is_method, stmt.body):
            yield method.name, f"{module}.{stmt.name}.{method.name}", _names(method)


def unreached_definitions() -> list[str]:
    """Qualified name of every def, class or method no root reaches."""
    defs: dict[str, list[tuple[str, set[str]]]] = {}
    roots: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
                for name, qualified, reaches in _definitions(stmt, path.stem):
                    defs.setdefault(name, []).append((qualified, reaches))
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
        for _, reaches in defs[name]:
            frontier.extend(n for n in reaches if n in defs and n not in reached)
    return sorted(qualified for name, where in defs.items()
                  if name not in reached for qualified, _ in where)


def test_every_src_definition_is_reached():
    unreached = unreached_definitions()
    assert not unreached, (
        f"{len(unreached)} definitions in src/corrsynth are reached only by unit "
        "tests or by nothing; delete them or move the test references to "
        "tests/_oracles.py:\n  " + "\n  ".join(unreached))
