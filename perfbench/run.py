"""ecsim benchmark: one seeded workload, its end-to-end or per-layer figures.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of an ecsim source tree.  ``--trace 0`` measures set-up
(fresh interpreters importing ``ecsim.cli`` and answering one tiny request)
and then serves the workload's request list in a child interpreter, with
tracing off.  ``--trace 1`` serves the same list once plain and once traced
and reports per-layer figures instead.  Times are scaled to a reference CPU
speed (``speed.py``).  Every output is checked; the last line of stdout is
the result as JSON, and the exit code is 1 when any request failed.  See
``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0
SETUP_RUNS = 5  # measured, after one discarded run that fills __pycache__
IMPORTTIME_RUNS = 3
# Set-up runs from spawn until the first answer is ready.  The fresh
# interpreter probes its CPU speed right before importing ecsim and right
# after answering; the probes themselves are left out of the time.
SETUP_CODE = """\
import sys, time
t_start = time.perf_counter()
sys.path.insert(0, {here!r})
import speed
s_before = speed.py_scale()
t_import = time.perf_counter()
import ecsim.cli as cli
cli.render(['fig2a', '--alphas', '1', '--r-steps', '2'])
t_ready = time.perf_counter()
print(t_start, t_import, t_ready, s_before, speed.py_scale())
"""
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_MODULES = ("ecsim", "ecsim.coherent_states", "ecsim.qubit_encoding",
                  "ecsim.decoherence", "ecsim.entanglement_metrics",
                  "ecsim.protocols", "ecsim.cli")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "request_p50_ms": "ms",
                    "request_p90_ms": "ms", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith((".kept_ratio", ".tail_bound_max", ".overhead_frac")):
        return "1"
    return "count"


class BenchError(RuntimeError):
    pass


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_ENV:
        env[var] = "1"
    return env


def _run(cmd, env, root, deadline) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time limit reached before {cmd[1:3]}")
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} did not finish within the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def measure_setup(env, root, deadline) -> tuple[list[float], list[float]]:
    """Raw and speed-scaled times from spawning a fresh interpreter until it
    has imported ``ecsim.cli`` and answered one tiny request."""
    code = SETUP_CODE.format(here=str(HERE))
    raw, scaled = [], []
    for _ in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
        proc = _run([sys.executable, "-c", code], env, root, deadline)
        t_start, t_import, t_ready, s0, s1 = (float(x) for x in proc.stdout.split())
        raw.append((t_start - t0) + (t_ready - t_import))
        scaled.append(raw[-1] * (s0 + s1) / 2)
    return raw[1:], scaled[1:]


def measure_import_times(env, root, deadline) -> dict[str, float]:
    """Median cumulative import time of each module, from ``-X importtime``."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_RUNS):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import ecsim.cli"],
                    env, root, deadline)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                name = parts[2].strip()
                if name in samples and parts[1].strip().isdigit():
                    samples[name].append(int(parts[1]) * 1e-6)
    return {f"{m.removeprefix('ecsim.')}.import_s": statistics.median(v) if v else 0.0
            for m, v in samples.items()}


def _git_sha(root: Path) -> str | None:
    """HEAD's commit from ``.git`` in ``root`` itself, without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd().resolve()
    if not (root / "src" / "ecsim" / "__init__.py").is_file():
        print(f"perfbench: no ecsim source tree at {root / 'src' / 'ecsim'}", file=sys.stderr)
        return 2
    env = _child_env(root)
    try:
        setup_raw, setup = ([], []) if args.trace else measure_setup(env, root, deadline)
        proc = _run([sys.executable, str(HERE / "child.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--root", str(root)], env, root, deadline)
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        imports = measure_import_times(env, root, deadline) if args.trace else {}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    if args.trace:
        values = {**child["layers"], **imports}
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = {"setup_s": statistics.median(setup),
                  **{k: child[k] for k in END_TO_END_UNITS if k != "setup_s"}}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    error_rate = child["failed"] / child["attempted"]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(root), **child["versions"],
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: env[v] for v in THREAD_ENV},
        "requests": child["attempted"], "requests_by_kind": child["requests_by_kind"],
        "max_fock_cutoff": child["max_fock_cutoff"],
        "worst_tail_bound": child["worst_tail_bound"],
        "error_rate": error_rate, "failures": child["failures"],
        "raw": {"setup_s": setup, "unscaled_setup_s": setup_raw,
                "latencies_ms": child["latencies_ms"],
                "unscaled_latencies_ms": child["raw_latencies_ms"],
                "wall_s": child["wall_s"], "unscaled_wall_s": child["raw_wall_s"],
                "speed_kernel_ms": child["kernel_ms"],
                "traced_wall_s": child.get("traced_wall_s"),
                "spans": child.get("spans"), "spans_path": child.get("spans_path")},
    }
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "metrics": metrics}, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:45s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:9s} {'error_rate':45s} {error_rate:.6g} "
          f"({child['failed']} of {child['attempted']} requests failed)")
    for failure in child["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"run_metadata": {k: v for k, v in meta.items() if k != "raw"}}))
    print(json.dumps({"correct": child["failed"] == 0, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0 if child["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
