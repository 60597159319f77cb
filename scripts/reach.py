"""Audit that every module and every name of a package has a reader.

One run makes two audits of ``src/<package>``; both must pass.

*Modules.*  A module is *reached* when a module other than its own
package's ``__init__`` imports it — ``import pkg.mod``, ``from pkg
import mod``, ``from pkg.mod import name``, absolute or relative, at
module level or inside a function — or imports from its package a name
that the package's ``__init__`` re-exports from it (``from pkg import
name`` where ``pkg/__init__.py`` says ``from pkg.mod import name``;
chains of re-exporting ``__init__`` files are followed).  ``cli`` and
``__main__`` modules are roots: a command line reaches them.
``__init__`` files are not audited themselves, and importers outside the
audited package do not count.

*Names.*  Audited are every top-level ``def``/``class`` of the package,
every public method of a top-level class and every ``__all__`` entry.
The readers are the ``.py`` files under ``src/``, ``examples/``,
``benchmarks/`` and ``scripts/`` next to the package's ``src/``; test
files (``tests/``, ``test_*.py``, ``conftest.py``) are not readers.  A
read is a ``Name`` load or an ``Attribute`` anywhere, an import by a
file that is not an ``__init__`` of the package, or a string constant
equal to the name that is neither a docstring nor an ``__all__`` entry.
A bare ``Name`` or an import never reads a method.  Reads inside the
definition's own body do not count.  Dunders, functions decorated by a
``.register(...)`` call, and methods that override one a base class
from outside the package has (``do_GET``, ``run``, ``default``) are
always reached; an override of a package method is audited like any
other method.  A component registered as ``X.register("name",
...)`` is reached only when ``"name"`` appears as a non-docstring string
constant outside that call, or quoted in a ``.toml``/``.json`` file of
the readers.  Names match by identifier and are not resolved, so a
same-named read anywhere reaches a definition: the audit can miss dead
code but never flags live code.

    python scripts/reach.py src/repro      # exit 1 naming each unreached module or name

There is no allowlist: an unreached module or name is deleted, or gains
its caller, in the same PR.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import sys
from pathlib import Path

ROOTS = frozenset({"cli", "__main__"})
READERS = ("examples", "benchmarks", "scripts")


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


# -- the name audit ---------------------------------------------------------


def _is_test(path: Path) -> bool:
    return (
        "tests" in path.parts
        or path.name.startswith("test_")
        or path.name == "conftest.py"
    )


def _readers(package_dir: Path) -> list[Path]:
    """Every non-test file whose reads count: ``src/`` (the package's
    parent) and the reader directories beside it."""
    root = package_dir.resolve().parent
    found = sorted(root.rglob("*.py"))
    for directory in READERS:
        base = root.parent / directory
        if base.is_dir():
            found.extend(
                sorted(p for p in base.rglob("*") if p.suffix in {".py", ".toml", ".json"})
            )
    return [path for path in found if not _is_test(path.relative_to(root.parent))]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def _registration(node: ast.AST) -> str | None:
    """The name a ``X.register("name", ...)`` call registers, if it is one."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "register"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        return node.args[0].value
    return None


class _Reads(ast.NodeVisitor):
    """One file's reads, each with the audited definitions (node ids) it
    sits inside; a string also with the registration call it sits in."""

    def __init__(self, audited: set[int], counts_imports: bool) -> None:
        self.audited = audited
        self.counts_imports = counts_imports
        self.names: list[tuple[str, frozenset]] = []       # Name loads, imports
        self.attributes: list[tuple[str, frozenset]] = []
        self.strings: list[tuple[str, frozenset, int | None]] = []
        self._inside: frozenset = frozenset()
        self._call: int | None = None
        self._skip: set[int] = set()        # docstrings, __all__ entries

    def _scoped(self, node) -> None:
        if ast.get_docstring(node, clean=False) is not None:
            self._skip.add(id(node.body[0].value))
        saved = self._inside
        if id(node) in self.audited:
            self._inside = saved | {id(node)}
        self.generic_visit(node)
        self._inside = saved

    visit_Module = visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_all(node):
            self._skip.update(id(sub) for sub in ast.walk(node.value))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        saved = self._call
        if _registration(node) is not None:
            self._call = id(node)
        self.generic_visit(node)
        self._call = saved

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.names.append((node.id, self._inside))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.attributes.append((node.attr, self._inside))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.counts_imports:
            self.names.extend((alias.name, self._inside) for alias in node.names)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and id(node) not in self._skip:
            self.strings.append((node.value, self._inside, self._call))


def _external_class(tree: ast.Module, base: ast.expr) -> type | None:
    """The class a base expression names through the module's own
    absolute imports (or the builtins), or ``None`` when unresolvable."""
    parts = []
    while isinstance(base, ast.Attribute):
        parts.insert(0, base.attr)
        base = base.value
    if not isinstance(base, ast.Name):
        return None
    source = None
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if (alias.asname or alias.name.partition(".")[0]) == base.id:
                    source = (alias.name if alias.asname else base.id, None)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                if (alias.asname or alias.name) == base.id:
                    source = (node.module, alias.name)
    try:
        if source is None:
            found = getattr(builtins, base.id, None)
        else:
            found = importlib.import_module(source[0])
            if source[1] is not None:
                found = getattr(found, source[1], None)
    except ImportError:
        return None
    for part in parts:
        found = getattr(found, part, None)
    return found if isinstance(found, type) else None


def unread(package_dir: Path) -> list[str]:
    """The audited names of ``package_dir`` that nothing reads."""
    modules = _modules(package_dir)
    trees = {name: ast.parse(path.read_text(encoding="utf-8")) for name, path in modules.items()}

    definitions = []                # (label, identifier, node, (class, module) or None)
    exported = []                   # (label, identifier)
    registered = []                 # (label, lower-cased string, call id, factory ids)
    classes: dict[str, list[tuple[ast.ClassDef, str]]] = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((f"{module}.{node.name}", node.name, node, None))
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append((node, module))
                definitions.extend(
                    (f"{module}.{node.name}.{item.name}", item.name, item, (node, module))
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                )
            if _is_all(node):
                exported.extend(
                    (f"{module}.__all__[{entry.value!r}]", entry.value)
                    for entry in getattr(node.value, "elts", ())
                    if isinstance(entry, ast.Constant)
                )
    defined: dict[str, set[int]] = {}   # identifier -> the definitions of that name
    for _, name, node, _ in definitions:
        defined.setdefault(name, set()).add(id(node))
    for module, tree in trees.items():
        for node in ast.walk(tree):
            # X.register("name")(factory) or @X.register("name") def factory
            calls = []
            if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Name):
                calls.append((node.func, defined.get(node.args[0].id, set())))
            calls.extend((d, {id(node)}) for d in getattr(node, "decorator_list", ()))
            for call, factories in calls:
                name = _registration(call)
                if name is not None:
                    label = f"{module}: {ast.unparse(call.func)}({name!r})"
                    registered.append((label, name.lower(), id(call), factories))

    def inherited(owner: ast.ClassDef, module: str, seen: frozenset) -> set:
        """What ``owner`` inherits from classes outside the package (through
        its package bases); ``"*"`` when such a base cannot be resolved."""
        found = set()
        for base in owner.bases:
            if isinstance(base, ast.Subscript):
                base = base.value
            name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            if name in classes and name not in seen:
                for node, where in classes[name]:
                    found |= inherited(node, where, seen | {name})
                continue
            target = _external_class(trees[module], base)
            found |= set(dir(target)) if target is not None else {"*"}
        return found

    audited = {id(node) for _, _, node, _ in definitions}
    names: dict[str, list[frozenset]] = {}
    attributes: dict[str, list[frozenset]] = {}
    strings: dict[str, list[tuple[frozenset, int | None]]] = {}
    package_inits = {path.resolve() for path in modules.values() if path.name == "__init__.py"}
    own = {path.resolve(): module for module, path in modules.items()}
    for path in _readers(package_dir):
        if path.suffix != ".py":
            text = path.read_text(encoding="utf-8").lower()
            for _, name, _, _ in registered:
                if f'"{name}"' in text or f"'{name}'" in text:
                    strings.setdefault(name, []).append((frozenset(), None))
            continue
        resolved = path.resolve()
        if resolved in own:
            tree = trees[own[resolved]]
        else:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = _Reads(audited, counts_imports=resolved not in package_inits)
        reads.visit(tree)
        for name, inside in reads.names:
            names.setdefault(name, []).append(inside)
        for name, inside in reads.attributes:
            attributes.setdefault(name, []).append(inside)
        for value, inside, call in reads.strings:
            strings.setdefault(value, []).append((inside, call))
            if value.lower() != value:
                strings.setdefault(value.lower(), []).append((inside, call))

    def reads_of(name: str, bare: bool) -> list[frozenset]:
        """Where ``name`` is read; ``bare`` adds ``Name`` loads and imports."""
        found = [*attributes.get(name, []), *(inside for inside, _ in strings.get(name, []))]
        return [*found, *names.get(name, [])] if bare else found

    missing = []
    for label, name, node, owner in definitions:
        if _is_dunder(name) or any(
            _registration(d) is not None for d in getattr(node, "decorator_list", ())
        ):
            continue
        if owner is not None:
            overridden = inherited(*owner, frozenset({owner[0].name}))
            if name in overridden or "*" in overridden:
                continue
        if all(id(node) in inside for inside in reads_of(name, bare=owner is None)):
            missing.append(label)
    for label, name in exported:
        if all(defined.get(name, set()) & inside for inside in reads_of(name, bare=True)):
            missing.append(label)
    for label, name, call, factories in registered:
        if all(
            where == call or factories & inside for inside, where in strings.get(name, [])
        ):
            missing.append(label)
    return sorted(missing)


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
    unread_names = unread(package_dir)
    for name in unread_names:
        print(name)
    if unread_names:
        print(
            f"{len(unread_names)} name(s) are read only by their own definition, "
            "an __init__ re-export or tests; delete them or give them a caller",
            file=sys.stderr,
        )
    if missing or unread_names:
        return 1
    print(f"every module and name under {package_dir} is reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
