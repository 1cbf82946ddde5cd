"""Every public name of the library has a caller in the library or the benchmark.

A function, class or method that only its own tests call is dead weight: it
is kept working for no program.  The scan parses ``src/ecsim`` and
``perfbench`` (their test files excepted) and collects every name that is
read: a function or class counts as used when it is read as a bare name or
as an attribute, a method only as an attribute (a local variable of the same
name is not a call).  Re-exports in ``ecsim/__init__`` do not count as a
use.  A reference that the tests need belongs in the tests.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ecsim"
CALLER_DIRS = (PACKAGE, ROOT / "perfbench")

# The paper's single-shot teleportation scheme, kept as the library's
# statement of the protocol that the exact average and the Monte Carlo compute.
ALLOWED = {"protocols.teleport"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _public(name: str) -> bool:
    return not name.startswith("_")


def _defined() -> tuple[set[str], set[str]]:
    """``module.name`` for each public top-level function and class, and
    ``module.Class.method`` for each public method of a public class."""
    names, methods = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            names.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                methods.update(
                    f"{module}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and _public(item.name)
                )
    return names, methods


def _read() -> tuple[set[str], set[str]]:
    """The names read as ``name`` and those read as ``x.name``, outside the
    tests and ``__init__``."""
    bare, attrs = set(), set()
    for folder in CALLER_DIRS:
        for path in sorted(folder.glob("*.py")):
            if path.name == "__init__.py" or path.name.startswith("test_"):
                continue
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    bare.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attrs.add(node.attr)
    return bare, attrs


def _last(name: str) -> str:
    return name.rsplit(".", 1)[1]


def test_every_public_name_has_a_library_or_benchmark_caller():
    names, methods = _defined()
    bare, attrs = _read()
    unused = sorted(
        [n for n in names - ALLOWED if _last(n) not in bare | attrs]
        + [m for m in methods - ALLOWED if _last(m) not in attrs]
    )
    assert not unused, f"public names that only tests use: {unused}"


def test_allowlist_names_existing_definitions():
    names, methods = _defined()
    assert ALLOWED <= names | methods
