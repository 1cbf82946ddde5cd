"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ecsim  # noqa: E402
import ecsim.cli  # noqa: E402

import workloads as wl  # noqa: E402
from child import _snapshot, run_pass  # noqa: E402
from run import END_TO_END_UNITS, IMPORT_MODULES, layer_unit  # noqa: E402
from tracer import Tracer  # noqa: E402


def _smallest_per_kind(workload, seed=5):
    def size(req):
        if workload == "sweep":
            return req["r_steps"] * len(req["alphas"])
        if workload == "teleport":
            return req["samples"]
        return req.get("terms", 0)

    best = {}
    for req in wl.build_requests(workload, seed, 1):
        if req["kind"] not in best or size(req) < size(best[req["kind"]]):
            best[req["kind"]] = req
    return list(best.values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_request_list_is_a_function_of_the_seed(workload):
    first = wl.build_requests(workload, 7, 20)
    assert first == wl.build_requests(workload, 7, 20)
    assert first != wl.build_requests(workload, 8, 20)
    assert json.loads(json.dumps(first)) == first
    assert len(first) >= wl.MIN_REQUESTS


def test_traced_run_restores_every_attribute():
    reqs = [r for w in wl.WORKLOADS for r in _smallest_per_kind(w)]
    before = _snapshot()
    original = ecsim.decoherence.dyad_from_pure
    with Tracer() as tracer:
        assert ecsim.decoherence.dyad_from_pure is not original
        assert ecsim.coherent_states.dyad_from_pure is not original
        result = run_pass(reqs, ecsim, tracer)
    after = _snapshot()
    assert result["failures"] == []
    assert all(after[k] is v for k, v in before.items())
    layers = tracer.layer_metrics()
    for layer in ("coherent_states", "qubit_encoding", "decoherence",
                  "entanglement_metrics", "protocols", "cli"):
        assert layers[f"{layer}.calls"] > 0
        assert layers[f"{layer}.errors"] == 0
    assert layers["protocols.shots"] == sum(
        r["samples"] * r["r_steps"] for r in reqs if r["kind"] == "teleport-mc")


def _perturb_rows(text, fmt, column, delta):
    if fmt == "json":
        rows = json.loads(text)
        rows[len(rows) // 2][column] += delta
        return json.dumps(rows)
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[len(rows) // 2][column] = repr(float(rows[len(rows) // 2][column]) + delta)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _perturb_algebra(req, out):
    kind = req["kind"]
    if kind == "bell":
        # extra mass on a label the input should not (or should rarely) produce
        outcome = out.outcomes[0][0]
        labels = type(outcome.label)
        wrong = labels.B3 if req["bell"] == 1 else labels.B1
        extra = (type(outcome)(wrong, (0, 2)), 0.01)
        return dataclasses.replace(out, outcomes=(*out.outcomes, extra))
    if kind == "fock":
        return dict(out, fock=dataclasses.replace(out["fock"], amps=out["fock"].amps * 1.001))
    key = next(iter(out))
    return dict(out, **{key: out[key] * (1 + 1e-6) + 1e-6})


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_perturbed_outputs_are_failures(workload):
    column = {"fig2a": "e_numeric", "fig2b": "f_closed", "fig3": "s_numeric",
              "teleport-mc": "f_mc"}
    for req in _smallest_per_kind(workload):
        inp = None if "argv" in req else wl.prepare_algebra(req, ecsim.coherent_states)
        out = wl.execute(req, inp, ecsim)
        assert wl.check(req, inp, out) is None, req
        if "argv" in req:
            bad = _perturb_rows(out, req["fmt"], column[req["kind"]],
                                1e-6 if workload == "sweep" else 0.5)
            truncated = out.rsplit("\n", 2)[0] + "\n" if req["fmt"] == "csv" else None
        else:
            bad, truncated = _perturb_algebra(req, out), None
        assert wl.check(req, inp, bad) is not None, req
        if truncated is not None:
            assert wl.check(req, inp, truncated) is not None, req


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    names = [*tracer.layer_metrics(), "trace.overhead_frac",
             *(f"{m.removeprefix('ecsim.')}.import_s" for m in IMPORT_MODULES)]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: layer_unit(n) for n in names}
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
