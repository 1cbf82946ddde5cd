"""Every public name of the library has a caller in the library or the benchmark,
and every parameter default of the library's layers is overridden by one.

A function, class or method that only its own tests call is dead weight: it
is kept working for no program.  The scan parses ``src/ecsim`` and
``perfbench`` (their test files excepted) and collects every name that is
read: a function or class counts as used when it is read as a bare name or
as an attribute, a method only as an attribute (a local variable of the same
name is not a call).  Re-exports in ``ecsim/__init__`` do not count as a
use.  A reference that the tests need belongs in the tests.

Likewise a parameter with a default that no program call passes is a knob
with one value in use: the other values are code kept for the tests alone.
"""
import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ecsim"
CALLER_DIRS = (PACKAGE, ROOT / "perfbench")

# Public names kept without a program caller; none at present.
ALLOWED: set[str] = set()
# The layers whose parameter defaults must each be passed by some program call.
LAYERS = ("coherent_states", "qubit_encoding", "decoherence", "entanglement_metrics",
          "protocols")


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


def _program_nodes():
    """Every AST node of ``src/ecsim`` and ``perfbench``, outside the tests
    and ``__init__``."""
    for folder in CALLER_DIRS:
        for path in sorted(folder.glob("*.py")):
            if path.name == "__init__.py" or path.name.startswith("test_"):
                continue
            yield from ast.walk(_parse(path))


def _read() -> tuple[set[str], set[str]]:
    """The names read as ``name`` and those read as ``x.name``."""
    bare, attrs = set(), set()
    for node in _program_nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
    return bare, attrs


def _defaults() -> list[tuple[str, str, int | None]]:
    """(qualified name, parameter, call position) for each parameter with a
    default of a public function or method of LAYERS; the position counts
    the arguments a call passes (no ``self`` or ``cls``), and is None for a
    keyword-only parameter."""
    out = []
    for module in LAYERS:
        for node in _parse(PACKAGE / f"{module}.py").body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                funcs = [(f"{module}.{node.name}", node, 0)]
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                funcs = [(f"{module}.{node.name}.{item.name}", item, 1) for item in node.body
                         if isinstance(item, ast.FunctionDef) and _public(item.name)]
            else:
                continue
            for name, fn, bound in funcs:
                args = fn.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                out += [(name, arg.arg, i - bound)
                        for i, arg in enumerate(positional[first:], first)]
                out += [(name, arg.arg, None)
                        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None]
    return out


def _calls() -> dict[str, list[ast.Call]]:
    """The program's calls, by the called name (``f(...)`` or ``x.f(...)``)."""
    calls = defaultdict(list)
    for node in _program_nodes():
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                calls[func.id].append(node)
            elif isinstance(func, ast.Attribute):
                calls[func.attr].append(node)
    return calls


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` passes ``param``: by keyword (or ``**``), or by
    position at or past ``position`` (or a ``*`` there)."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args[: position + 1])


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


def test_every_layer_default_is_passed_by_a_program_call():
    calls = _calls()
    fixed = sorted(
        f"{name}({param})" for name, param, position in _defaults()
        if not any(_passes(call, param, position) for call in calls[_last(name)])
    )
    assert not fixed, f"parameter defaults that no program call overrides: {fixed}"


def test_allowlist_names_existing_definitions():
    names, methods = _defined()
    assert ALLOWED <= names | methods
