#!/usr/bin/env python3
"""Report imported names that a module never reads, and private
definitions under src/ that no module reads.

    python3 tools/unused_imports.py

Each .py file under src/, tests/ and tools/ of the repository is parsed
with the standard library's ast, and every name an import statement binds
is looked up among the names the module loads anywhere, at any depth; a
name only assigned or deleted is not read.  `from __future__` imports are
exempt, and so is a package's __init__.py, whose imports are its
re-exports.  Each unused name is printed as path:line: name.

A private definition is a top-level function or class under src/ whose
name starts with one underscore.  It is read when a file under src/,
tests/ or tools/ loads its name, reads it as an attribute or imports it;
each unread one is printed as path:line: name (unread private
definition).  The exit status is 1 when anything is printed and 0
otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ("src", "tests", "tools")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the module's imports bind and it never
    reads, in source order."""
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names
                      if a.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted((line, name) for line, name in bound if name not in read)


def private_definitions(source: str) -> tuple[list[tuple[int, str]], set]:
    """(line, name) of each top-level function or class of the module
    whose name starts with one underscore, and every name the module
    reads: loads, attribute reads and imported names."""
    tree = ast.parse(source)
    private = [(node.lineno, node.name) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return private, read


def main() -> int:
    found = 0
    private, read = [], set()
    for d in DEFAULT_PATHS:
        for file in sorted((ROOT / d).rglob("*.py")):
            source = file.read_text()
            defs, names = private_definitions(source)
            read |= names
            if d == "src":
                private += [(file, line, name) for line, name in defs]
            if file.name == "__init__.py":
                continue
            for line, name in unused_imports(source):
                print(f"{file}:{line}: {name}")
                found += 1
    for file, line, name in private:
        if name not in read:
            print(f"{file}:{line}: {name} (unread private definition)")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
