"""Audit that every module of a package has an importer.

A module is *reached* when a module other than its own package's
``__init__`` imports it — ``import pkg.mod``, ``from pkg import mod``,
``from pkg.mod import name``, absolute or relative, at module level or
inside a function — or imports from its package a name that the
package's ``__init__`` re-exports from it (``from pkg import name``
where ``pkg/__init__.py`` says ``from pkg.mod import name``; chains of
re-exporting ``__init__`` files are followed).  ``cli`` and ``__main__``
modules are roots: a command line reaches them.  ``__init__`` files are
not audited themselves, and importers outside the audited package
(tests, benchmarks) do not count — a module only its own ``__init__``
and its tests import serves no run.

    python scripts/reach.py src/repro      # exit 1 naming each unreached module

There is no allowlist: an unreached module is deleted, or gains its
caller, in the same PR.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOTS = frozenset({"cli", "__main__"})


def _modules(package_dir: Path) -> dict[str, Path]:
    """Dotted module name -> file, for every ``.py`` under the package
    (an ``__init__.py`` is named after its package)."""
    found = {}
    for path in sorted(package_dir.rglob("*.py")):
        parts = (package_dir.name, *path.relative_to(package_dir).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def _imports(tree: ast.AST, package: str):
    """Every ``(module, name-or-None)`` a source file imports;
    ``package`` (the importer's own) anchors relative imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join([*anchor, base] if base else anchor)
            for alias in node.names:
                yield base, alias.name


def unreached(package_dir: Path) -> list[str]:
    """The audited modules of ``package_dir`` that nothing reaches."""
    modules = _modules(package_dir)
    packages = {
        name for name, path in modules.items() if path.name == "__init__.py"
    }
    imports = {}
    for name, path in modules.items():
        own_package = name if name in packages else name.rpartition(".")[0]
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports[name] = list(_imports(tree, own_package))
    # What each package's __init__ re-exports: name -> the module it came from.
    reexports = {
        package: {
            name: module
            for module, name in imports[package]
            if name is not None and module in modules
        }
        for package in packages
    }

    def resolve(module: str, name: str | None) -> str | None:
        """The audited module an import lands on, if any."""
        if name is None:
            return module if module in modules else None
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        if module in packages:
            source = reexports[module].get(name)
            if source in packages:
                return resolve(source, name)
            return source
        return module if module in modules else None

    reached = set()
    for importer, found in imports.items():
        for module, name in found:
            target = resolve(module, name)
            if target is None or target == importer:
                continue
            if importer in packages and target.rpartition(".")[0] == importer:
                continue            # a package's own __init__ is not a caller
            reached.add(target)
    return sorted(
        name
        for name in modules
        if name not in packages
        and name.rpartition(".")[2] not in ROOTS
        and name not in reached
    )


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print(__doc__, file=sys.stderr)
        return 2
    package_dir = Path(argv[0])
    missing = unreached(package_dir)
    for name in missing:
        print(name)
    if missing:
        print(
            f"{len(missing)} module(s) are imported only by their own package "
            "__init__ (or by nothing); delete them or give them a caller",
            file=sys.stderr,
        )
        return 1
    print(f"every module under {package_dir} is reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
