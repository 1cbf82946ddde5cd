"""Span tracing of calls into ecsim's modules, installed from outside.

``Tracer.install`` replaces each traced public function with a timing
wrapper in every ecsim namespace that binds it, so a call is seen wherever
the caller looks the name up: ``cli`` calls ``em.closed_form_e`` through
the module, while ``decoherence`` calls its own imported binding of
``dyad_from_pure``.  ``uninstall`` puts every original object back.

Spans (id, name, start, end, parent id, request id) are kept in flat
arrays and written out once, after the run; ids number spans in the order
they open.  Self time is a span's duration minus the
time its child spans cover.
"""
from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter_ns

# Public functions timed per layer.  Leaf helpers called inside the O(T^2)
# loops (log_overlap, logical_coords) are left out: wrapping them would cost
# more than the work they do.
TRACED = {
    "coherent_states": (
        "inner", "norm", "normalized", "tensor", "consolidate", "beam_split",
        "phase_shift", "project_modes", "dyad_from_pure", "operator_trace",
        "to_fock", "photon_distribution",
    ),
    "qubit_encoding": (
        "make_basis", "psi_plus", "psi_minus", "bell_state",
        "project_to_density", "pauli_decompose",
    ),
    "decoherence": ("decohere", "channel_rho4", "decayed_basis", "closed_form_vst"),
    "entanglement_metrics": (
        "negativity_e", "singlet_fraction", "optimal_fidelity", "linear_entropy",
        "vn_entropy", "closed_form_e", "closed_form_f", "closed_form_s",
    ),
    "protocols": (
        "bell_measure_distribution", "teleport_average_mc", "average_fidelity",
        "concentrate_exact", "concentration_success_closed_form",
        "misid_probability_closed", "partial_pair_state",
    ),
    "cli": ("render",),
}
LAYERS = tuple(TRACED)
NUMERIC_METRICS = ("negativity_e", "singlet_fraction", "optimal_fidelity",
                   "linear_entropy", "vn_entropy")
CLOSED_METRICS = ("closed_form_e", "closed_form_f", "closed_form_s")
MC_BRANCH_BYTES_PER_SHOT = 4 * 2 * 2 * 16  # (4, 2, 2) complex128 per shot


def _terms(state) -> int:
    """Term count of a coherent superposition, tuple- or array-backed."""
    terms = getattr(state, "terms", None)
    return len(terms) if terms is not None else len(state.coeffs)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Timing wrappers around ecsim's public functions, with derived counts."""

    def __init__(self):
        self.names: list[str] = []
        self.errors: list[int] = []
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_self = array("q")
        self._child_ns: list[int] = []
        self._stack: list[int] = []
        self.request = -1
        self.counts = {
            "overlap_evals": 0, "consolidate_in": 0, "consolidate_out": 0,
            "fock_cells": 0, "fock_tail_max": 0.0, "shots": 0,
            "mc_bytes_sum": 0, "mc_bytes_max": 0, "output_bytes": 0,
        }
        self._patches: list[tuple[object, str, object]] = []

    # -- counts derived from call arguments and results ---------------------

    def _count(self, name, args, kwargs, result):
        c = self.counts
        if name == "coherent_states.inner":
            a, b = args[0], args[1]
            c["overlap_evals"] += _terms(a) * _terms(b) * a.modes
        elif name == "coherent_states.consolidate":
            c["consolidate_in"] += _terms(args[0])
            c["consolidate_out"] += _terms(result)
        elif name == "coherent_states.to_fock":
            c["fock_cells"] += _terms(args[0]) * (result.cutoff + 1) ** result.modes
            c["fock_tail_max"] = max(c["fock_tail_max"], result.tail_bound)
        elif name == "protocols.teleport_average_mc":
            samples = int(_arg(args, kwargs, 1, "samples"))
            nbytes = samples * MC_BRANCH_BYTES_PER_SHOT
            c["shots"] += samples
            c["mc_bytes_sum"] += nbytes
            c["mc_bytes_max"] = max(c["mc_bytes_max"], nbytes)
        elif name == "cli.render":
            c["output_bytes"] += len(result.encode())

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, fid: int, name: str):
        counted = name in {
            "coherent_states.inner", "coherent_states.consolidate",
            "coherent_states.to_fock", "protocols.teleport_average_mc", "cli.render",
        }
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(self._child_ns)
            self._child_ns.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[fid] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self._close(fid, idx, parent, t0, t1)
            if counted:
                self._count(name, args, kwargs, result)
            return result

        return traced

    def _close(self, fid, idx, parent, t0, t1):
        dur = t1 - t0
        self.span_self.append(dur - self._child_ns[idx])
        if parent >= 0:
            self._child_ns[parent] += dur
        self.span_id.append(idx)
        self.span_name.append(fid)
        self.span_start.append(t0)
        self.span_end.append(t1)
        self.span_parent.append(parent)
        self.span_request.append(self.request)

    def install(self, package: str = "ecsim") -> None:
        """Wrap every traced function in every loaded ``package`` namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrappers = {}
        for layer, funcs in TRACED.items():
            home = sys.modules[f"{package}.{layer}"]
            for func in funcs:
                original = getattr(home, func, None)
                if original is None:
                    continue
                fid = len(self.names)
                name = f"{layer}.{func}"
                self.names.append(name)
                self.errors.append(0)
                wrappers[id(original)] = (original, self._wrap(original, fid, name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def layer_metrics(self, scale=None) -> dict[str, float]:
        """Per-layer calls, self time and errors plus the named per-function
        metrics; a function absent from the program reads as zero.

        ``scale[r]`` multiplies the times of request ``r``'s spans, to put
        them on the same CPU-speed scale as the end-to-end times.
        """
        n = len(self.names)
        calls, self_s, incl_s = [0] * n, [0.0] * n, [0.0] * n
        for fid, req, t0, t1, own in zip(self.span_name, self.span_request,
                                         self.span_start, self.span_end, self.span_self):
            f = 1e-9 * (scale[req] if scale is not None and req >= 0 else 1.0)
            calls[fid] += 1
            self_s[fid] += own * f
            incl_s[fid] += (t1 - t0) * f

        def total(values, names):
            return sum(values[i] for i, name in enumerate(self.names) if name in names)

        out: dict[str, float] = {}
        for layer in LAYERS:
            names = {name for name in self.names if name.startswith(layer + ".")}
            out[f"{layer}.calls"] = total(calls, names)
            out[f"{layer}.self_s"] = total(self_s, names)
            out[f"{layer}.errors"] = total(self.errors, names)
        for name in (
            "decoherence.channel_rho4", "decoherence.decohere",
            "qubit_encoding.project_to_density", "qubit_encoding.pauli_decompose",
            "coherent_states.dyad_from_pure", "coherent_states.inner",
            "coherent_states.consolidate", "coherent_states.project_modes",
            "coherent_states.to_fock", "cli.render",
            "protocols.teleport_average_mc", "protocols.average_fidelity",
            "protocols.bell_measure_distribution", "protocols.concentrate_exact",
        ):
            out[f"{name}.self_s"] = total(self_s, {name})
        out["decoherence.channel_rho4.calls"] = total(calls, {"decoherence.channel_rho4"})
        out["qubit_encoding.make_basis.calls"] = total(calls, {"qubit_encoding.make_basis"})
        out["entanglement_metrics.numeric.self_s"] = total(
            self_s, {f"entanglement_metrics.{f}" for f in NUMERIC_METRICS})
        out["entanglement_metrics.closed.self_s"] = total(
            self_s, {f"entanglement_metrics.{f}" for f in CLOSED_METRICS})
        c = self.counts
        mc_s = total(incl_s, {"protocols.teleport_average_mc"})
        out["cli.output_bytes"] = c["output_bytes"]
        out["protocols.shots"] = c["shots"]
        out["protocols.shots_per_s"] = c["shots"] / mc_s if mc_s > 0 else 0.0
        out["protocols.mc_branch_bytes.sum"] = c["mc_bytes_sum"]
        out["protocols.mc_branch_bytes.max"] = c["mc_bytes_max"]
        out["coherent_states.overlap_evals"] = c["overlap_evals"]
        out["coherent_states.consolidate.kept_ratio"] = (
            c["consolidate_out"] / c["consolidate_in"] if c["consolidate_in"] else 0.0)
        out["coherent_states.to_fock.cells"] = c["fock_cells"]
        out["coherent_states.to_fock.tail_bound_max"] = c["fock_tail_max"]
        return out

    def write_spans(self, path) -> int:
        """Write the spans as gzipped CSV; returns the number written."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_ns,end_ns,parent,request\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.span_id[i]},{self.names[self.span_name[i]]},{self.span_start[i]},"
                         f"{self.span_end[i]},{self.span_parent[i]},{self.span_request[i]}\n")
        return len(self.span_name)
