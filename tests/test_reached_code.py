"""Every function and method defined in ``src/ecsim`` is entered by a command.

``test_public_surface.py`` asks whether any program text names a function;
this asks whether running the program enters it.  A subprocess installs
``sys.setprofile`` before it imports ``ecsim``, so that calls made at import
time count, and then runs ``cli.main`` on:

- each table command in CSV and in JSON, at small sizes;
- ``report --property-cases 20``;
- an argparse error;
- each numeric guard a command can trip: a degenerate basis, a density that
  fails its checks, and a Fock cutoff too small for its amplitude;
- an I/O error.

It prints the file and first line of each code object that a call entered,
which the test maps to qualified names read from the source (``co_qualname``
exists only from Python 3.11).  A function that no command enters has no work
to measure and no user, and the test fails on it.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ecsim"

# Defined but entered by no command: perfbench's algebra workload builds its
# states with ``ket`` and ``+``.  ROADMAP item 1, the benchmark change that
# drops those calls, removes both and empties this list.
ALLOWED = {"coherent_states.CoherentSuperposition.ket",
           "coherent_states.CoherentSuperposition.__add__"}

SIZES = {"fig2a": ["--alphas", "1", "--r-steps", "3"],
         "fig2b": ["--alphas", "1", "--r-steps", "3"],
         "fig3": ["--alphas", "1", "--r-steps", "3"],
         "teleport-mc": ["--alphas", "1", "--r-steps", "3", "--samples", "20"],
         "bellmeas": ["--alphas", "1"],
         "concentrate": ["--alphas", "1", "--etas", "0.5"],
         "cv": ["--ar-steps", "5"]}
# (argv, the exit codes it may return)
RUNS = ([([command, *sizes, "--format", fmt], {0})
         for command, sizes in SIZES.items() for fmt in ("csv", "json")]
        + [(["report", "--property-cases", "20"], {0, 1}),  # 1 while check 8.2 fails
           (["fig2a", "--no-such-flag"], {2}),
           (["fig2a", "--alphas", "1e-7"], {3}),  # DegenerateBasisError
           (["fig2a", "--alphas", "2e-4", "--r-steps", "50"], {3}),  # DensityError
           (["bellmeas", "--alphas", "2", "--cutoff", "3"], {3})])  # CutoffError

SCRIPT = """
import contextlib, io, json, sys
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)
sys.setprofile(profile)
from ecsim import cli
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes,
                  "entered": sorted({(c.co_filename, c.co_firstlineno) for c in entered})}))
"""


def _defined() -> dict[tuple[str, int], str]:
    """``module.qualname`` of every function and method in the package, nested
    ones as ``outer.<locals>.inner`` (the ``co_qualname`` of their code), by
    module and the first line of their code: the first decorator's, if any."""
    names = {}

    def walk(body, module, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                names[module, first] = f"{module}.{prefix}{node.name}"
                walk(node.body, module, f"{prefix}{node.name}.<locals>.")
            elif isinstance(node, ast.ClassDef):
                walk(node.body, module, f"{prefix}{node.name}.")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()).body, path.stem, "")
    return names


def _entered(tmp_path, defined) -> set[str]:
    """``module.qualname`` of every package function a call entered."""
    runs = RUNS + [(["cv", "--ar-steps", "5", "--output", str(tmp_path / "no" / "out")], {4})]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps([argv for argv, _ in runs])],
                          capture_output=True, text=True, env=env, check=True)
    record = json.loads(proc.stdout)
    for (argv, codes), code in zip(runs, record["codes"]):
        assert code in codes, f"{argv} exited {code}"
    modules = {path.resolve(): path.stem for path in PACKAGE.glob("*.py")}
    keys = {(modules.get(Path(file).resolve()), line) for file, line in record["entered"]}
    return {defined[key] for key in keys if key in defined}


def test_every_library_function_is_entered_by_a_command(tmp_path):
    names = _defined()
    defined, entered = set(names.values()), _entered(tmp_path, names)
    assert ALLOWED <= defined, f"allowed but not defined: {sorted(ALLOWED - defined)}"
    assert not ALLOWED & entered, f"entered, so no longer allowed: {sorted(ALLOWED & entered)}"
    missing = defined - entered - ALLOWED
    assert not missing, f"defined in src/ecsim but entered by no command: {sorted(missing)}"
