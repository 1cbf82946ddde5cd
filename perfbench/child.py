"""Run one workload in a fresh interpreter and print its figures as one JSON line.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP pinned
to one thread.  The untimed part of each request (building algebra inputs,
checking the output, probing the CPU speed) happens outside the request's
timer.  ``wall_s`` is the sum of the request times, scaled to the reference
CPU speed of ``speed.py``: the time ecsim needs to serve the list.  With
``--trace 1`` the list runs once plain and then again under the tracer.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import workloads as wl
from speed import SAMPLE_AFTER_S, Pace
from tracer import Tracer

WARMUP_SEED = 20_011  # inputs of the untimed warm-up requests


def _snapshot(package: str = "ecsim") -> dict:
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
            for attr, value in vars(module).items()}


def run_pass(reqs, ecsim, tracer=None) -> dict:
    """Serve every request once in a closed loop; time and check each.

    Latencies are returned raw and scaled to the reference CPU speed.
    """
    pace = Pace()
    starts, raw, failures = [], [], []
    max_cutoff, worst_tail = 0, 0.0
    for req in reqs:
        pace.sample_if_due()
        inp = (wl.prepare_algebra(req, ecsim.coherent_states)
               if "argv" not in req else None)
        if tracer is not None:
            tracer.request = req["id"]
        t0 = time.perf_counter()
        try:
            out, error = wl.execute(req, inp, ecsim), None
        except Exception as exc:  # a request that raises counts as failed
            out, error = None, exc
        starts.append(t0)
        raw.append(time.perf_counter() - t0)
        pace.sample_if_due(SAMPLE_AFTER_S)
        if error is not None:
            failures.append(f"request {req['id']} ({req['kind']}) raised {error!r}")
            continue
        try:
            reason = wl.check(req, inp, out)
            cutoff, tail = wl.fock_stats(req, out)
        except Exception as exc:  # malformed output counts as failed
            reason, cutoff, tail = f"output could not be checked: {exc!r}", 0, 0.0
        if reason is not None:
            failures.append(f"request {req['id']} ({req['kind']}): {reason}")
        max_cutoff, worst_tail = max(max_cutoff, cutoff), max(worst_tail, tail)
    pace.sample()
    scaled = [d * pace.scale(t + d / 2) for t, d in zip(starts, raw)]
    return {"latencies": scaled, "raw_latencies": raw, "failures": failures,
            "kernel_s": pace.kernels,
            "max_fock_cutoff": max_cutoff, "worst_tail_bound": worst_tail}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, required=True)
    args = ap.parse_args()

    import scipy

    import ecsim
    import ecsim.cli

    src = (args.root / "src").resolve()
    if src not in Path(ecsim.__file__).resolve().parents:
        print(f"child: ecsim imported from {ecsim.__file__}, not from {src}", file=sys.stderr)
        return 3

    reqs = wl.build_requests(args.workload, args.seed, args.seconds)
    first_of_kind = {}
    for req in wl.build_requests(args.workload, WARMUP_SEED, 0):
        first_of_kind.setdefault(req["kind"], req)
    run_pass(list(first_of_kind.values()), ecsim)

    plain = run_pass(reqs, ecsim)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat_ms = np.array(plain["latencies"]) * 1e3
    result = {
        "wall_s": float(lat_ms.sum() / 1e3),
        "request_p50_ms": float(np.percentile(lat_ms, 50)),
        "request_p90_ms": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(reqs),
        "failed": len(plain["failures"]),
        "failures": plain["failures"][:20],
        "latencies_ms": lat_ms.tolist(),
        "raw_latencies_ms": (np.array(plain["raw_latencies"]) * 1e3).tolist(),
        "raw_wall_s": sum(plain["raw_latencies"]),
        "kernel_ms": (np.array(plain["kernel_s"]) * 1e3).tolist(),
        "requests_by_kind": dict(Counter(r["kind"] for r in reqs)),
        "max_fock_cutoff": plain["max_fock_cutoff"],
        "worst_tail_bound": plain["worst_tail_bound"],
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        before = _snapshot()
        with Tracer() as tracer:
            traced = run_pass(reqs, ecsim, tracer)
        after = _snapshot()
        restored = all(after.get(k) is v for k, v in before.items())
        traced_wall = sum(traced["latencies"])
        scale = [s / r if r > 0 else 1.0
                 for s, r in zip(traced["latencies"], traced["raw_latencies"])]
        layers = tracer.layer_metrics(scale)
        layers["trace.overhead_frac"] = traced_wall / result["wall_s"] - 1.0
        out_dir = args.root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        result.update({
            "layers": layers,
            "traced_wall_s": traced_wall,
            "trace_restored": restored,
            "spans": tracer.write_spans(spans_path),
            "spans_path": str(spans_path.relative_to(args.root)),
        })
        result["attempted"] += len(reqs)
        result["failed"] += len(traced["failures"]) + (not restored)
        result["failures"] += traced["failures"][:20]
        if not restored:
            result["failures"].append("tracer left a patched attribute behind")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
