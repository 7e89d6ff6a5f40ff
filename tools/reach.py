"""List the functions of the package that no CLI run reaches.

    python3 tools/reach.py

Runs every case of ``tools/same_reports.py`` in this interpreter, at seed
42, in CSV and in JSON, on the package under this checkout's ``src/``.
A tracer set with ``sys.settrace`` and ``threading.settrace`` (so the
fuzzer's worker threads are traced too) records every call of a function
of the package.  Every function and lambda of the package, found with
``ast``, that was never called is then printed, one a line, as
``file:line name (n lines)``, and last the totals, where a line of a
nested function counts once.  Lambdas are told apart
by their first line, so two lambdas on one line are reached together.

Run it in a fresh interpreter: a ``functools.cache`` hit calls no Python
code, so a function cached before the run reads as unreached.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
import threading
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SEED = 42
FORMATS = ("csv", "json")


class Function(NamedTuple):
    path: Path
    line: int  # the first line: its first decorator's, if it has any
    name: str  # dotted: module, then each enclosing class and function
    lines: int


def functions(package: Path) -> list[Function]:
    """Every function, method and lambda defined in the modules of ``package``.

    A lambda is named after the one name its statement assigns, if any, as
    ``_Rule.points.<lambda>``; a name that repeats gets a count, as
    ``f.<lambda 2>``."""
    found, seen = [], {}

    def add(node, path, name):
        seen[name] = seen.get(name, 0) + 1
        if seen[name] > 1:
            name = f"{name[:-1]} {seen[name]}>" if name.endswith(">") else f"{name} {seen[name]}"
        line = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        found.append(Function(path, line, name, node.end_lineno - line + 1))
        visit(node, path, name)

    def visit(node, path, scope, owner=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{scope}.{child.name}")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(child, path, f"{scope}.{child.name}")
            elif isinstance(child, ast.Lambda):
                add(child, path, f"{owner or scope}.<lambda>")
            elif isinstance(child, ast.Assign) and [type(t) for t in child.targets] == [ast.Name]:
                visit(child, path, scope, f"{scope}.{child.targets[0].id}")
            else:
                visit(child, path, scope, owner)

    for path in sorted(package.glob("*.py")):
        module = package.name if path.stem == "__init__" else f"{package.name}.{path.stem}"
        visit(ast.parse(path.read_text(encoding="utf-8")), path, module)
    return found


def reached(package: Path) -> set[tuple[str, int]]:
    """(file, first line) of every function of ``package`` that the matrix calls."""
    from same_reports import matrix
    from strathardy.cli import main

    prefix = str(package)
    calls: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            calls.add((code.co_filename, code.co_firstlineno))
        # no per-line tracing inside the frame

    with tempfile.TemporaryDirectory() as tmp:
        argvs = []
        for case in matrix():
            argv = [case.command, "--seed", str(SEED)]
            if case.config is not None:
                path = Path(tmp) / f"{case.label.replace(':', '_')}.json"
                path.write_text(json.dumps(case.config))
                argv += ["--config", str(path)]
            argvs += [argv + ["--format", fmt] for fmt in FORMATS]
        sys.settrace(trace)
        threading.settrace(trace)
        try:
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    main(argv)
        finally:
            sys.settrace(None)
            threading.settrace(None)
    return calls


def unreached() -> list[Function]:
    """The functions of this checkout's package that no case of the matrix calls."""
    import strathardy

    package = Path(strathardy.__file__).parent
    calls = reached(package)
    return [f for f in functions(package) if (str(f.path), f.line) not in calls]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]
    missed = unreached()
    for f in missed:
        print(f"{f.path.relative_to(ROOT)}:{f.line} {f.name} ({f.lines} lines)")
    lines = {(f.path, line) for f in missed for line in range(f.line, f.line + f.lines)}
    print(f"{len(missed)} functions, {len(lines)} lines, never called")
    return 0


if __name__ == "__main__":
    sys.exit(main())
