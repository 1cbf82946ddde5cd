"""Byte-identity record: the sha256 of every listed CLI output, and of the
concatenated outputs of the benchmark's seed-401/402 request lists, against
the digests pinned in ``output_digests.json``.

The bits of these outputs depend on numpy and on the CPU's SIMD paths, so the
file also records the numpy version and the machine it was pinned on; under
another one the test fails saying so, without comparing.  A change that moves
an output on purpose re-pins the file with

    python tests/test_output_digests.py --write

and states which digests moved, and by how much each moved column shifted.
"""
import hashlib
import json
import platform
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


def _digest(name: str) -> str:
    spec = RENDERS[name]
    if isinstance(spec, tuple):
        text = "".join(cli.render(req["argv"]) for req in wl.build_requests(*spec, SECONDS))
    else:
        text = cli.render(spec)
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_output_digests.py --write")
    RECORD.write_text(json.dumps(
        {**_environment(), "digests": {name: _digest(name) for name in RENDERS}},
        indent=1) + "\n")
    print(f"pinned {len(RENDERS)} digests to {RECORD.name}")
