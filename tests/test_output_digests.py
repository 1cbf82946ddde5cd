"""Byte-identity record: the sha256 of every listed CLI output, and of the
concatenated outputs of the benchmark's seed-401/402 request lists, against
the digests pinned in ``output_digests.json``.

The bits of these outputs depend on numpy and on the CPU's SIMD paths, so the
file also records the numpy version and the machine it was pinned on; under
another one the test fails saying so, without comparing.  A change that moves
an output on purpose re-pins the file with

    python tests/test_output_digests.py --write

and states which digests moved, and by how much each moved column shifted.
That shift is measured against another tree, such as a checkout of the parent
commit, with

    python tests/test_output_digests.py --against <that tree's src directory>

which renders every pinned output with both trees and prints, for each output
that moved, the largest absolute and relative shift in each column (the
relative one over nonzero old values; moves away from an exact 0 are counted
apart).
"""
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "perfbench"), str(HERE.parent / "src")]

from ecsim import cli  # noqa: E402

import workloads as wl  # noqa: E402

RECORD = HERE / "output_digests.json"
COMMANDS = [
    "fig2a", "fig2b", "fig3", "bellmeas", "concentrate", "cv",
    "teleport-mc --samples 200",
    "fig2a --alphas 0.3 1 2.5 --r-steps 1200 --r-max 0.999",
    "fig3 --alphas 1e-3 13.4 1e6 --r-steps 50",
    "bellmeas --alphas 0.3 1 2 3",
    "concentrate --alphas 0.4 1.3 2.6 --etas 0.2 0.7 1.3",
]
# name -> the argv of one CLI output, or the (workload, seed) of a request list
RENDERS = {f"{command} {fmt}": command.split() + ["--format", fmt]
           for command in COMMANDS for fmt in ("csv", "json")}
RENDERS.update({f"{w} {seed} requests": (w, seed)
                for w in ("sweep", "teleport") for seed in (401, 402)})
SECONDS = 20  # the benchmark's run length, which sets the number of requests


def _argvs(name: str) -> list[list[str]]:
    """The CLI calls whose concatenated outputs make up one pinned output."""
    spec = RENDERS[name]
    if isinstance(spec, tuple):
        return [req["argv"] for req in wl.build_requests(*spec, SECONDS)]
    return [spec]


def _digest(name: str) -> str:
    text = "".join(cli.render(argv) for argv in _argvs(name))
    return hashlib.sha256(text.encode()).hexdigest()


def _environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def _pinned() -> dict:
    """The pinned digests; fails when they were pinned under another environment."""
    pinned = json.loads(RECORD.read_text())
    env = {k: pinned[k] for k in ("numpy", "machine")}
    if env != _environment():
        pytest.fail(f"the environment changed, not the program: the digests were pinned "
                    f"under {env}, this run has {_environment()}; check the outputs by "
                    f"other means, then re-pin with --write")
    return pinned["digests"]


def test_record_lists_every_render():
    assert sorted(_pinned()) == sorted(RENDERS)


@pytest.mark.parametrize("name", list(RENDERS))
def test_output_is_byte_identical(name):
    assert _digest(name) == _pinned()[name], f"the output of {name!r} changed"


def test_other_environment_is_named_not_compared(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "_environment",
                        lambda: {"numpy": "0.0", "machine": "other"})
    with pytest.raises(pytest.fail.Exception, match="the environment changed, not the program"):
        _pinned()


def test_shifts_count_moves_from_zero_apart():
    old, new = ["x,y\n0,1\n0.5,2\n"], ["x,y\n1e-16,1.0000000000000002\n0.5,2\n"]
    assert _shifts(old, new) == {
        "x": "1 of 2 values moved, largest shift 1e-16 absolute, 1 from 0",
        "y": "1 of 2 values moved, largest shift 2.22e-16 absolute, 2.22e-16 relative"}
    assert _shifts(old, old) == {}


# Renders the argv lists read from stdin with the ecsim on the path, as JSON.
_RENDER_ELSEWHERE = ("import json, sys; from ecsim import cli; "
                     "print(json.dumps([cli.render(argv) for argv in json.load(sys.stdin)]))")


def _columns(text: str) -> dict[str, list[float]]:
    """The columns of one CSV or JSON render, by header name."""
    if text.startswith("["):
        rows = json.loads(text)
        return {key: [float(row[key]) for row in rows] for key in rows[0]} if rows else {}
    header, *rows = [line.split(",") for line in text.splitlines()]
    return {key: [float(row[k]) for row in rows] for k, key in enumerate(header)}


def _shifts(old: list[str], new: list[str]) -> dict[str, str]:
    """Per column, the values that moved between two lists of renders, their
    largest absolute shift and their largest shift relative to a nonzero old
    value; a move away from an exact 0, which has no relative shift, is
    counted apart."""
    moved: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, int] = {}
    for before, after in zip(old, new):
        if before == after:
            for key, values in _columns(after).items():
                counts[key] = counts.get(key, 0) + len(values)
            continue
        cols_before, cols_after = _columns(before), _columns(after)
        if cols_before.keys() != cols_after.keys():
            return {"(header)": f"{list(cols_before)} -> {list(cols_after)}"}
        for key, values in cols_after.items():
            if len(values) != len(cols_before[key]):
                return {key: f"{len(cols_before[key])} -> {len(values)} values"}
            counts[key] = counts.get(key, 0) + len(values)
            moved.setdefault(key, []).extend(
                (a, b) for a, b in zip(cols_before[key], values) if a != b)
    out = {}
    for key, pairs in moved.items():
        if pairs:
            rel = [abs(b - a) / abs(a) for a, b in pairs if a]
            what = f"largest shift {max(abs(b - a) for a, b in pairs):.3g} absolute"
            if rel:
                what += f", {max(rel):.3g} relative"
            if len(rel) < len(pairs):
                what += f", {len(pairs) - len(rel)} from 0"
            out[key] = f"{len(pairs)} of {counts[key]} values moved, {what}"
    return out


def compare(other_src: Path) -> str:
    """Each pinned output rendered by this tree and by the ecsim under
    ``other_src``, and the shift of every column of each output that moved."""
    argvs = {name: _argvs(name) for name in RENDERS}
    flat = [argv for name in RENDERS for argv in argvs[name]]
    env = {**os.environ, "PYTHONPATH": str(other_src.resolve())}
    done = subprocess.run([sys.executable, "-c", _RENDER_ELSEWHERE], input=json.dumps(flat),
                          capture_output=True, text=True, env=env, cwd=other_src, check=True)
    theirs = iter(json.loads(done.stdout))
    lines, same = [], 0
    for name in RENDERS:
        old = [next(theirs) for _ in argvs[name]]
        new = [cli.render(argv) for argv in argvs[name]]
        if old == new:
            same += 1
            continue
        lines.append(f"{name}: moved")
        lines += [f"  {key}: {what}" for key, what in _shifts(old, new).items()]
    lines.append(f"{same} of {len(RENDERS)} outputs unchanged")
    return "\n".join(lines)


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        RECORD.write_text(json.dumps(
            {**_environment(), "digests": {name: _digest(name) for name in RENDERS}},
            indent=1) + "\n")
        print(f"pinned {len(RENDERS)} digests to {RECORD.name}")
    elif len(sys.argv) == 3 and sys.argv[1] == "--against":
        print(compare(Path(sys.argv[2])))
    else:
        sys.exit("usage: python tests/test_output_digests.py --write | --against <src directory>")
