"""Audit that every module, name and parameter of a package has a reader.

One run makes three audits of ``src/<package>``; all must pass.

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

*Properties* (``@property`` and ``@cached_property`` getters of a
top-level class, private ones included) are audited with a narrower
read: an ``Attribute`` load (not a store) or a string constant passed to
a call (``getattr(obj, "name")``; not a dict key).  A load whose
receiver has a known class is not a read of another class's property
when that class binds the name itself — as a method, a class-level or
dataclass field, or a ``self.<name> = ...`` assignment — and is neither
the property's class nor derived from it.  A receiver's class is known
for ``self`` (the enclosing class), for a parameter annotated with a
class, and for ``self.<attr>`` assigned such a parameter in the
enclosing class.

*Parameters.*  Audited is every parameter with a default (positional or
keyword-only) of a top-level function or of a method of a top-level
class (``__init__`` and ``__call__`` included), and every defaulted
field of a ``@dataclass``.  The readers are the name audit's, plus the
keys of their ``.toml``/``.json`` files.  A parameter is *set* when a
reader calls its callable by identifier and passes it by keyword or far
enough by position; an ``__init__`` parameter or a dataclass field is
also set through a call of the class's name, of a subclass's name, of
``cls(...)`` inside the class, of ``super().__init__(...)`` inside a
subclass, and through ``dataclasses.replace(..., name=)``.  A string
constant or a config key equal to the parameter's name sets it too.
Every parameter of a callable counts as set when a reader reads the
callable other than as a call's callee (passes it as a value, registers
or stores it — annotations, ``isinstance`` and base-class lists aside),
when a decorator other than the standard transparent ones wraps it, and
when a call of it splats ``*args`` or ``**kwargs``; an instance call
cannot be named, so every call sets ``__call__``.  Like the name audit
this matches identifiers and resolves nothing: it can miss a dead knob
(a registry that splats its options, e.g. ``ENGINES.create(name,
**params)``, hides every parameter of what it builds) but never flags a
live one.

    python scripts/reach.py src/repro      # exit 1 naming each unreached module, name or parameter

There is no allowlist: an unreached module, name or parameter is
deleted (a parameter may instead become a constant with its default), or
gains its caller, in the same change.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import re
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


def _is_property(node: ast.AST) -> bool:
    return any(
        _identifier(d) in {"property", "cached_property"}
        for d in getattr(node, "decorator_list", ())
    )


def _annotated(function) -> dict[str, str]:
    """Each parameter annotated with a plain class name -> that name."""
    found = {}
    args = function.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        annotation = arg.annotation
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                continue
        if isinstance(annotation, (ast.Name, ast.Attribute)):
            found[arg.arg] = _identifier(annotation)
    return found


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _binds(node: ast.ClassDef) -> tuple[frozenset, dict[str, str]]:
    """The names a class gives its instances itself — its methods and
    properties, its class-level and dataclass fields, every
    ``self.<name> = ...`` in its body — and the class of each
    ``self.<name>`` assigned an annotated parameter."""
    found, types = set(), {}
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.add(item.name)
            annotated = _annotated(item)
            for sub in ast.walk(item):
                if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Name):
                    types.update(
                        (t.attr, annotated[sub.value.id]) for t in sub.targets
                        if isinstance(t, ast.Attribute) and _is_self(t.value)
                        and sub.value.id in annotated
                    )
        targets = item.targets if isinstance(item, ast.Assign) else [getattr(item, "target", None)]
        found.update(t.id for t in targets if isinstance(t, ast.Name))
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and _is_self(sub.value):
            if not isinstance(sub.ctx, ast.Load):
                found.add(sub.attr)
    return frozenset(found), types


class _Reads(ast.NodeVisitor):
    """One file's reads, each with the audited definitions (node ids) it
    sits inside; a string also with the registration call it sits in; an
    attribute load also with the class whose own binding it reads, if it
    has a known class (the property audit's rules)."""

    def __init__(self, audited: set[int], counts_imports: bool) -> None:
        self.audited = audited
        self.counts_imports = counts_imports
        self.names: list[tuple[str, frozenset]] = []       # Name loads, imports
        self.attributes: list[tuple[str, frozenset]] = []
        self.loads: list[tuple[str, frozenset, str | None]] = []
        self.call_strings: list[tuple[str, frozenset]] = []
        self._classes: list[tuple[str, dict[str, str]]] = []
        self._parameters: list[dict[str, str]] = [{}]
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

    visit_Module = _scoped

    def visit_FunctionDef(self, node) -> None:
        self._parameters.append(_annotated(node))
        self._scoped(node)
        self._parameters.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append((node.name, _binds(node)[1]))
        self._scoped(node)
        self._classes.pop()

    def _receiver(self, node: ast.expr) -> str | None:
        """The class of an attribute's receiver, when it is known."""
        if _is_self(node):
            return self._classes[-1][0] if self._classes else None
        if isinstance(node, ast.Name):
            return self._parameters[-1].get(node.id)
        if isinstance(node, ast.Attribute) and _is_self(node.value) and self._classes:
            return self._classes[-1][1].get(node.attr)
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_all(node):
            self._skip.update(id(sub) for sub in ast.walk(node.value))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self.call_strings.extend(
            (arg.value, self._inside) for arg in (*node.args, *(k.value for k in node.keywords))
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        )
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
        if isinstance(node.ctx, ast.Load):
            self.loads.append((node.attr, self._inside, self._receiver(node.value)))
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
                    and (not item.name.startswith("_") or _is_property(item))
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
    loads: dict[str, list[tuple[frozenset, str | None]]] = {}
    call_strings: dict[str, list[frozenset]] = {}
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
        for name, inside, receiver in reads.loads:
            loads.setdefault(name, []).append((inside, receiver))
        for value, inside in reads.call_strings:
            call_strings.setdefault(value, []).append(inside)
        for value, inside, call in reads.strings:
            strings.setdefault(value, []).append((inside, call))
            if value.lower() != value:
                strings.setdefault(value.lower(), []).append((inside, call))

    def reads_of(name: str, bare: bool) -> list[frozenset]:
        """Where ``name`` is read; ``bare`` adds ``Name`` loads and imports."""
        found = [*attributes.get(name, []), *(inside for inside, _ in strings.get(name, []))]
        return [*found, *names.get(name, [])] if bare else found

    binds = {}                      # class name -> what every class so named binds
    for name, defined_as in classes.items():
        binds[name] = frozenset.intersection(*(_binds(node)[0] for node, _ in defined_as))

    def derives(name: str, base: str, seen: frozenset = frozenset()) -> bool:
        return name == base or any(
            derives(_identifier(parent), base, seen | {name})
            for node, _ in classes.get(name, ()) if name not in seen
            for parent in node.bases if isinstance(parent, (ast.Name, ast.Attribute))
        )

    def property_reads(name: str, owner: str) -> list[frozenset]:
        """Where property ``owner.name`` may be read (see the docstring)."""
        found = [
            inside for inside, receiver in loads.get(name, [])
            if receiver is None or name not in binds.get(receiver, ())
            or derives(receiver, owner)
        ]
        return [*found, *call_strings.get(name, [])]

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
        if owner is not None and _is_property(node):
            found = property_reads(name, owner[0].name)
        else:
            found = reads_of(name, bare=owner is None)
        if all(id(node) in inside for inside in found):
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


# -- the parameter audit ----------------------------------------------------


TRANSPARENT = frozenset({
    "staticmethod", "classmethod", "property", "abstractmethod", "lru_cache",
    "cache", "cached_property", "contextmanager",
})


def _identifier(node: ast.expr) -> str | None:
    """The identifier a name or attribute ends in (for a call, its callee's)."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_identifier(d) == "dataclass" for d in node.decorator_list)


def _defaulted(args: ast.arguments, skip: int) -> list[tuple[str, int | None]]:
    """``(name, position)`` of every defaulted parameter; ``skip`` leading
    positional parameters (``self``/``cls``) are not counted in positions,
    and a keyword-only parameter has none."""
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    found = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    found.extend(
        (a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    return found


def _fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """``(name, defaulted)`` for each ``__init__`` field a dataclass body
    declares, in order (``ClassVar`` and ``field(init=False)`` excluded)."""
    found = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and _identifier(value) == "field" and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and not k.value.value
            for k in value.keywords
        ):
            continue
        found.append((item.target.id, value is not None))
    return found


class _Sets(ast.NodeVisitor):
    """One file's calls, the identifiers it reads as values (not as a
    call's callee), and its non-docstring string constants."""

    def __init__(self) -> None:
        # (kind, identifier, n positional, keywords, splat, enclosing class)
        self.calls: list[tuple[str, str, int, frozenset, bool, str | None]] = []
        self.values: list[tuple[str, bool]] = []        # (identifier, bare Name)
        self.strings: set[str] = set()
        self._classes: list[str] = []
        self._skip: set[int] = set()
        self._quiet = 0             # inside a type position: loads are not values

    def visit(self, node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Module)):
            if ast.get_docstring(node, clean=False) is not None:
                self._skip.add(id(node.body[0].value))
        return super().visit(node)

    def _quietly(self, nodes) -> None:
        self._quiet += 1
        for node in nodes:
            if node is not None:
                self.visit(node)
        self._quiet -= 1

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._quietly([*node.bases, *node.keywords])
        for decorator in node.decorator_list:
            self.visit(decorator)
        self._classes.append(node.name)
        for item in node.body:
            self.visit(item)
        self._classes.pop()

    def visit_FunctionDef(self, node) -> None:
        arguments = node.args
        every = [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                 arguments.vararg, arguments.kwarg]
        self._quietly([a.annotation for a in every if a is not None] + [node.returns])
        for child in [*node.decorator_list, *arguments.defaults,
                      *[d for d in arguments.kw_defaults if d is not None], *node.body]:
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._quietly([node.annotation])
        for child in (node.target, node.value):
            if child is not None:
                self.visit(child)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        self._quietly([node.type])
        for child in node.body:
            self.visit(child)

    def visit_Compare(self, node: ast.Compare) -> None:
        self._quietly([node.left, *node.comparators])

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        self._skip.add(id(func))
        splat = any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        )
        keywords = frozenset(k.arg for k in node.keywords if k.arg is not None)
        enclosing = self._classes[-1] if self._classes else None
        if isinstance(func, ast.Name):
            kind, name = ("cls" if func.id == "cls" else "name"), func.id
        elif isinstance(func, ast.Attribute):
            kind, name = "attr", func.attr
            if func.attr == "__init__" and isinstance(func.value, ast.Call) and (
                _identifier(func.value) == "super"
            ):
                kind = "super"
            elif func.attr == "__class__":
                kind = "cls"
        elif isinstance(func, ast.Call) and _identifier(func) == "type":
            kind, name = "cls", "type"
        else:
            kind, name = "other", ""
        self.calls.append((kind, name, len(node.args), keywords, splat, enclosing))
        if _identifier(node) in {"isinstance", "issubclass"}:
            self.visit(func)
            self._quietly([*node.args[1:], *node.keywords])
            if node.args:
                self.visit(node.args[0])
            return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and not self._quiet and id(node) not in self._skip:
            self.values.append((node.id, True))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and not self._quiet and id(node) not in self._skip:
            self.values.append((node.attr, False))
        # The object an attribute is looked up on is not passed anywhere.
        self._skip.add(id(node.value))
        self.visit(node.value)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # A callable imported under another name is called by that name.
        self.values.extend((a.name, True) for a in node.names if a.asname)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and id(node) not in self._skip:
            self.strings.add(node.value)


def unset(package_dir: Path) -> list[str]:
    """The defaulted parameters of ``package_dir`` that no reader sets."""
    modules = _modules(package_dir)
    trees = {name: ast.parse(path.read_text(encoding="utf-8")) for name, path in modules.items()}

    # One entry per audited callable: its label, how a call reaches it
    # (``kind`` and identifier), its defaulted (parameter, position)s and
    # its definition.
    entries: list[tuple[str, str, str, list[tuple[str, int | None]], ast.AST]] = []
    bases: dict[str, set[str]] = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                entries.append((f"{module}.{node.name}", "function", node.name,
                                _defaulted(node.args, 0), node))
            if not isinstance(node, ast.ClassDef):
                continue
            bases.setdefault(node.name, set()).update(
                _identifier(b.value if isinstance(b, ast.Subscript) else b) for b in node.bases
            )
            if _is_dataclass(node):
                fields = _fields(node)
                kw_only = any(
                    k.arg == "kw_only" and getattr(k.value, "value", False) is True
                    for d in node.decorator_list if isinstance(d, ast.Call)
                    for k in d.keywords
                )
                entries.append((f"{module}.{node.name}", "init", node.name, [
                    (name, None if kw_only else position)
                    for position, (name, defaulted) in enumerate(fields) if defaulted
                ], node))
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                static = any(_identifier(d) == "staticmethod" for d in item.decorator_list)
                kind = {"__init__": "init", "__call__": "any"}.get(item.name, "method")
                entries.append((
                    f"{module}.{node.name}.{item.name}", kind,
                    node.name if kind == "init" else item.name,
                    _defaulted(item.args, 0 if static else 1), item,
                ))

    def ancestors(name: str, seen: frozenset = frozenset()) -> set[str]:
        found = set()
        for base in bases.get(name, ()):
            if base in bases and base not in seen:
                found |= {base} | ancestors(base, seen | {base})
        return found

    descendants: dict[str, set[str]] = {}
    for name in bases:
        for base in ancestors(name):
            descendants.setdefault(base, set()).add(name)

    own = {path.resolve(): module for module, path in modules.items()}
    calls, values, strings, config = [], set(), set(), ""
    for path in _readers(package_dir):
        text = path.read_text(encoding="utf-8")
        if path.suffix != ".py":
            config += text + "\n"
            continue
        module = own.get(path.resolve())
        sets = _Sets()
        sets.visit(trees[module] if module is not None else ast.parse(text))
        calls.extend(sets.calls)
        values.update(sets.values)
        strings |= sets.strings

    by_callee: dict[str, list] = {}
    by_class: dict[str, list] = {}      # cls(...) and super().__init__(...)
    for kind, callee, n_args, keywords, splat, enclosing in calls:
        setting = (n_args, keywords, splat)
        if kind in {"name", "attr"}:
            by_callee.setdefault(callee, []).append((kind, setting))
        elif kind == "cls" and enclosing is not None:
            for owner in {enclosing} | ancestors(enclosing) | descendants.get(enclosing, set()):
                by_class.setdefault(owner, []).append(setting)
        elif kind == "super" and enclosing is not None:
            for owner in ancestors(enclosing):
                by_class.setdefault(owner, []).append(setting)
    replaced = {k for kind, callee, _, keywords, _, _ in calls if callee == "replace" for k in keywords}

    missing = []
    for label, kind, name, params, node in entries:
        if kind == "any":
            matching = [(n, k, s) for _, _, n, k, s, _ in calls]
        elif kind == "init":
            matching = list(by_class.get(name, []))
            for sub in {name} | descendants.get(name, set()):
                matching.extend(setting for _, setting in by_callee.get(sub, []))
        else:
            matching = [
                setting for call_kind, setting in by_callee.get(name, [])
                if kind == "function" or call_kind == "attr"
            ]
        names = {name} | (descendants.get(name, set()) if kind == "init" else set())
        read = any(
            (n, False) in values or (kind != "method" and (n, True) in values) for n in names
        ) or any(
            _identifier(d) not in TRANSPARENT | {"dataclass"}
            for d in getattr(node, "decorator_list", ())
        )
        for param, position in params:
            if read or param in strings or _config_key(config, param):
                continue
            if isinstance(node, ast.ClassDef) and param in replaced:
                continue
            if not any(
                splat or param in keywords or (position is not None and position < n_args)
                for n_args, keywords, splat in matching
            ):
                missing.append(f"{label}({param}=)")
    return sorted(missing)


def _config_key(text: str, name: str) -> bool:
    """Whether ``name`` is a key in the ``.toml``/``.json`` text."""
    return re.search(rf"(?m)(^|[{{,\s])[\"']?{re.escape(name)}[\"']?\s*[=:]", text) is not None


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
    unset_parameters = unset(package_dir)
    for name in unset_parameters:
        print(name)
    if unset_parameters:
        print(
            f"{len(unset_parameters)} parameter(s) keep a default that only tests "
            "override; make each a constant or delete it, or give it a caller",
            file=sys.stderr,
        )
    if missing or unread_names or unset_parameters:
        return 1
    print(f"every module, name and parameter under {package_dir} is reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
