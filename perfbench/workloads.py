"""Seeded request lists for the benchmark workloads, and their output checks.

A workload is a list of requests built from ``(workload, seed, seconds)``
alone; ``build_requests`` never touches ecsim, so the program only ever sees
the generated inputs.  ``execute`` sends one request through ecsim's public
API and ``check`` verifies what came back against references computed here
with plain math and numpy, independently of the library.

Request sizes are drawn by stratified sampling: a workload of ``n`` requests
takes one size from each of ``n`` equal-probability strata of its
log-uniform size range, so the total work, the latency quantiles and the
largest request hardly move between seeds while every individual request
still does.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

WORKLOADS = ("sweep", "teleport", "algebra")

# Requests per second of ``--seconds``, fixed so that a list takes about
# ``--seconds`` on the seed code of a 2-core x86 container.  They are
# constants, not measured at run time, so every commit serves the same list.
REQUESTS_PER_SECOND = {"sweep": 8.0, "teleport": 5.0, "algebra": 200.0}
MIN_REQUESTS = 100  # p90 then has at least ten samples beyond it
TELEPORT_SAMPLES = (300, 30_000)

SWEEP_KINDS = ("fig2a", "fig2b", "fig3")
SWEEP_COLUMNS = {
    "fig2a": ("alpha", "r", "e_closed", "e_numeric"),
    "fig2b": ("alpha", "r", "f_closed", "f_numeric", "classical_limit"),
    "fig3": ("alpha", "r", "s_closed", "s_numeric"),
}
TELEPORT_COLUMNS = ("alpha", "r", "f_analytic", "f_mc", "stderr", "samples")
ALGEBRA_KINDS = (
    "gram", "optics", "decohere", "tensor_project", "fock", "bell", "concentrate",
)

SWEEP_TOL = 1e-9  # numeric route vs closed form, per row
ALGEBRA_TOL = 1e-10  # relative to the natural scale of each quantity
CONCENTRATE_TOL = 1e-12
MC_SIGMAS = 5.0


def request_count(workload: str, seconds: float) -> int:
    return max(MIN_REQUESTS, round(REQUESTS_PER_SECOND[workload] * seconds))


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _log_strata(rng, n, lo, hi) -> np.ndarray:
    """One log-uniform draw in [lo, hi] from each of n strata, ascending."""
    u = (np.arange(n) + rng.uniform(size=n)) / n
    return lo * (hi / lo) ** u


def _cycled(n, choices) -> list:
    """``choices`` repeated along the n ascending strata.

    Each choice is then paired with sizes spread evenly over the range; a
    fixed phase keeps the largest requests, and so p90, alike across seeds.
    """
    return [choices[i % len(choices)] for i in range(n)]


def _split(n: int, kinds) -> dict:
    return {k: n // len(kinds) + (i < n % len(kinds)) for i, k in enumerate(kinds)}


def _sweep_shapes(rng, n):
    shapes = []
    for kind, m in _split(n, SWEEP_KINDS).items():
        steps = np.rint(_log_strata(rng, m, 2, 400)).astype(int)
        for r_steps, k, fmt in zip(steps, _cycled(m, (1, 2, 3)),
                                   _cycled(m, ("csv", "json"))):
            shapes.append({"kind": kind, "r_steps": int(r_steps), "n_alphas": k, "fmt": fmt})
    return shapes


def _sweep_values(rng, shape):
    alphas = [float(a) for a in rng.uniform(0.1, 2.5, shape["n_alphas"])]
    r_max = float(rng.uniform(0.5, 0.995))
    argv = [shape["kind"], "--alphas", *map(repr, alphas), "--r-max", repr(r_max),
            "--r-steps", str(shape["r_steps"]), "--format", shape["fmt"]]
    return {"argv": argv, "alphas": alphas, "r_min": 0.0, "r_max": r_max}


def _teleport_shapes(rng, n):
    samples = np.rint(_log_strata(rng, n, *TELEPORT_SAMPLES)).astype(int)
    return [{"kind": "teleport-mc", "samples": int(s), "points": p, "r_steps": max(p, 2),
             "fmt": fmt}
            for s, p, fmt in zip(samples, _cycled(n, (1, 2, 3)),
                                 _cycled(n, ("csv", "json")))]


def _teleport_values(rng, shape):
    alpha = float(rng.uniform(0.3, 2.5))
    # the CLI needs --r-steps >= 2, so one point is sent as r_min == r_max
    r_lo, r_hi = sorted(float(x) for x in rng.uniform(0.0, 0.95, 2))
    if shape["points"] == 1:
        r_hi = r_lo
    seed = int(rng.integers(0, 2**31 - 1))
    argv = ["teleport-mc", "--alphas", repr(alpha), "--r-min", repr(r_lo),
            "--r-max", repr(r_hi), "--r-steps", str(shape["r_steps"]),
            "--samples", str(shape["samples"]), "--seed", str(seed),
            "--format", shape["fmt"]]
    return {"argv": argv, "alphas": [alpha], "r_min": r_lo, "r_max": r_hi}


def _algebra_shapes(rng, n):
    shapes = []
    for kind, m in _split(n, ALGEBRA_KINDS).items():
        if kind == "bell":
            # the Fock cutoff, and so the cost, grows with alpha
            alphas = _log_strata(rng, m, 0.3, 3.0)
            shapes += [{"kind": kind, "alpha": float(a), "bell": k}
                       for a, k in zip(alphas, _cycled(m, (1, 2, 3, 4)))]
            continue
        if kind == "concentrate":
            shapes += [{"kind": kind}] * m
            continue
        modes = {"fock": (1, 2), "tensor_project": (2, 3, 4)}.get(kind, (1, 2, 3, 4))
        terms = np.rint(_log_strata(rng, m, 1, 64)).astype(int)
        shapes += [{"kind": kind, "terms": int(t), "modes": mo}
                   for t, mo in zip(terms, _cycled(m, modes))]
    return shapes


def _algebra_values(rng, shape):
    if shape["kind"] == "bell":
        return {"alpha": shape["alpha"] * float(rng.uniform(0.99, 1.01))}
    if shape["kind"] == "concentrate":
        return {"alpha": float(rng.uniform(0.3, 3.0)),
                "eta": float(rng.uniform(0.05, math.pi / 2 - 0.05))}
    return {"seed": int(rng.integers(0, 2**31 - 1))}


_SHAPES = {"sweep": _sweep_shapes, "teleport": _teleport_shapes,
           "algebra": _algebra_shapes}
_VALUES = {"sweep": _sweep_values, "teleport": _teleport_values,
           "algebra": _algebra_values}


def build_requests(workload: str, seed: int, seconds: float) -> list[dict]:
    """The workload's request list; the same arguments give the same list.

    Shapes (kind and size) are drawn first, stratified; values come next.
    """
    rng = _rng(workload, seed)
    shapes = _SHAPES[workload](rng, request_count(workload, seconds))
    shapes = [shapes[i] for i in rng.permutation(len(shapes))]
    return [{**shape, **_VALUES[workload](rng, shape), "id": i}
            for i, shape in enumerate(shapes)]


# ---------------------------------------------------------------------------
# algebra inputs: random superpositions, as numpy arrays and as ecsim states


def random_terms(rng, terms: int, modes: int, max_amp: float = 3.0):
    """Coefficients (T,) and amplitudes (T, M) with |amp| <= max_amp."""
    rad = max_amp * np.sqrt(rng.uniform(size=(terms, modes)))
    amps = rad * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (terms, modes)))
    coeffs = rng.uniform(-1.0, 1.0, terms) + 1j * rng.uniform(-1.0, 1.0, terms)
    return coeffs, amps


def to_state(cs, coeffs, amps):
    """Build the ecsim superposition through the public ket/sum API."""
    state = None
    for c, row in zip(coeffs, amps):
        ket = cs.CoherentSuperposition.ket(*(complex(a) for a in row), coeff=complex(c))
        state = ket if state is None else state + ket
    return state


def ref_inner(ca, aa, cb, ab) -> complex:
    """<a|b> from the coherent Gram matrix, vectorized."""
    lo = (-0.5 * np.abs(aa[:, None, :]) ** 2 - 0.5 * np.abs(ab[None, :, :]) ** 2
          + aa.conj()[:, None, :] * ab[None, :, :]).sum(axis=2)
    return complex(ca.conj() @ np.exp(lo) @ cb)


def _scale(*coeff_arrays) -> float:
    """Upper bound on |<a|b>|-type sums: product of the coefficient 1-norms."""
    return max(1.0, math.prod(float(np.abs(c).sum()) for c in coeff_arrays))


def _optics_chain(rng, modes: int):
    ops = []
    for _ in range(int(rng.integers(1, 5))):
        if modes >= 2 and rng.uniform() < 0.5:
            i, j = (int(x) for x in rng.choice(modes, 2, replace=False))
            ops.append(("bs", i, j))
        else:
            ops.append(("ps", int(rng.integers(modes)), float(rng.uniform(0, 2 * math.pi))))
    return ops


def _apply_chain_ref(amps, ops):
    amps = amps.copy()
    for op in ops:
        if op[0] == "bs":
            _, i, j = op
            bi, bj = amps[:, i].copy(), amps[:, j].copy()
            amps[:, i] = (bi + bj) / math.sqrt(2.0)
            amps[:, j] = (bi - bj) / math.sqrt(2.0)
        else:
            amps[:, op[1]] *= np.exp(1j * op[2])
    return amps


def prepare_algebra(req: dict, cs) -> dict:
    """Everything a task needs before the timed call: numpy refs and states."""
    kind = req["kind"]
    inp: dict = {}
    if kind in ("bell", "concentrate"):
        return inp
    rng = np.random.default_rng(req["seed"])
    t, m = req["terms"], req["modes"]
    if kind == "tensor_project":
        m2 = int(rng.integers(1, m))
        t2 = int(rng.integers(1, 5))
        inp["a"] = random_terms(rng, t, m - m2)
        inp["b"] = random_terms(rng, t2, m2)
        inp["b_first"] = bool(rng.integers(2))
    else:
        inp["a"] = random_terms(rng, t, m)
    if kind == "gram":
        inp["b"] = random_terms(rng, t, m)
    elif kind == "optics":
        inp["ops"] = _optics_chain(rng, m)
        inp["a_out"] = (inp["a"][0], _apply_chain_ref(inp["a"][1], inp["ops"]))
    elif kind == "decohere":
        inp["r"] = float(rng.uniform(0.0, 0.99))
    inp["states"] = {k: to_state(cs, *inp[k]) for k in ("a", "b", "a_out") if k in inp}
    return inp


# ---------------------------------------------------------------------------
# execution


def execute(req: dict, inp: dict | None, ecsim):
    """Run one request through ecsim's public API and return its raw output."""
    kind = req["kind"]
    if "argv" in req:
        return ecsim.cli.render(req["argv"])
    cs, pr, qe = ecsim.coherent_states, ecsim.protocols, ecsim.qubit_encoding
    st = inp.get("states", {})
    if kind == "gram":
        a, b = st["a"], st["b"]
        return {"ab": cs.inner(a, b), "ba": cs.inner(b, a),
                "aa": cs.inner(a, a), "bb": cs.inner(b, b)}
    if kind == "optics":
        s = st["a"]
        for op in inp["ops"]:
            s = cs.beam_split(s, op[1], op[2]) if op[0] == "bs" else cs.phase_shift(s, op[1], op[2])
        back = s
        for op in reversed(inp["ops"]):
            back = (cs.beam_split(back, op[1], op[2]) if op[0] == "bs"
                    else cs.phase_shift(back, op[1], -op[2]))
        return {"n_out": cs.inner(s, s), "cross": cs.inner(st["a_out"], s),
                "back": cs.inner(st["a"], back)}
    if kind == "decohere":
        clock = ecsim.decoherence.DecayClock.from_r(inp["r"])
        rho = ecsim.decoherence.decohere(cs.dyad_from_pure(st["a"]), clock)
        return {"trace": cs.operator_trace(rho)}
    if kind == "tensor_project":
        a, b = st["a"], st["b"]
        ma, mb = a.modes, b.modes
        if inp["b_first"]:
            joint, proj = cs.tensor(b, a), tuple(range(mb))
        else:
            joint, proj = cs.tensor(a, b), tuple(range(ma, ma + mb))
        chi = cs.project_modes(joint, proj, b)
        return {"cc": cs.inner(chi, chi), "ac": cs.inner(a, chi)}
    if kind == "fock":
        s = st["a"]
        return {"fock": cs.to_fock(s), "dist": cs.photon_distribution(cs.normalized(s))}
    if kind == "bell":
        basis = qe.make_basis(req["alpha"], 1.0)
        return pr.bell_measure_distribution(qe.bell_state(req["bell"], basis))
    if kind == "concentrate":
        res = pr.concentrate_exact(req["alpha"], req["eta"])
        return {"p": res.success_probability, "nrm": cs.inner(res.state, res.state)}
    raise ValueError(f"unknown request kind {kind!r}")


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else a reason


def _parse_rows(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return [{k: float(v) for k, v in row.items()} for row in json.loads(text)]
    rows = list(csv.DictReader(io.StringIO(text)))
    return [{k: float(v) for k, v in row.items()} for row in rows]


def _grid_mismatch(req, rows, columns) -> str | None:
    want = len(req["alphas"]) * req["r_steps"]
    if len(rows) != want:
        return f"{len(rows)} rows, expected {want}"
    if rows and tuple(rows[0]) != columns:
        return f"columns {tuple(rows[0])}, expected {columns}"
    grid = np.linspace(req["r_min"], req["r_max"], req["r_steps"])
    for i, row in enumerate(rows):
        alpha = req["alphas"][i // req["r_steps"]]
        r = float(grid[i % req["r_steps"]])
        if row["alpha"] != alpha or abs(row["r"] - r) > 1e-15:
            return f"row {i} at (alpha={row['alpha']}, r={row['r']}), expected ({alpha}, {r})"
    return None


def closed_forms(alpha: float, r: float) -> dict:
    """Independent closed forms of the damped channel's E, F and S."""
    a2 = alpha * alpha
    t2 = 1.0 - r * r
    n_theta = -math.expm1(-4.0 * a2)
    g = math.exp(-4.0 * (1.0 - t2) * a2)
    w = math.exp(-4.0 * t2 * a2)
    a_c, b_c = (1.0 - g) * w, (1.0 - g) * math.sqrt(w)
    c_c, d_c = 2.0 - (1.0 + g) * w, -2.0 * g + (1.0 + g) * w
    e = (math.sqrt(16.0 * b_c**2 + (c_c - d_c) ** 2) - (2.0 * a_c + c_c + d_c)) / (4.0 * n_theta)
    e4a, e4t, e4r = math.exp(4 * a2), math.exp(4 * t2 * a2), math.exp(4 * (1 - t2) * a2)
    f = max(1.0 + (e4a - e4t) / (e4a - 1.0), (e4t - e4r + 2.0 * e4a - 2.0) / (e4a - 1.0)) / 3.0
    s = math.expm1(8 * r * r * a2) * math.expm1(8 * t2 * a2) / (2.0 * math.expm1(4 * a2) ** 2)
    return {"e": e, "f": f, "s": s}


def _check_sweep(req, text) -> str | None:
    rows = _parse_rows(text, req["fmt"])
    bad = _grid_mismatch(req, rows, SWEEP_COLUMNS[req["kind"]])
    if bad:
        return bad
    key = {"fig2a": "e", "fig2b": "f", "fig3": "s"}[req["kind"]]
    for i, row in enumerate(rows):
        ref = closed_forms(row["alpha"], row["r"])[key]
        closed, numeric = row[f"{key}_closed"], row[f"{key}_numeric"]
        if not (abs(numeric - closed) <= SWEEP_TOL and abs(closed - ref) <= SWEEP_TOL):
            return f"row {i}: {key} closed {closed!r}, numeric {numeric!r}, reference {ref!r}"
        if req["kind"] == "fig2b" and row["classical_limit"] != 2.0 / 3.0:
            return f"row {i}: classical_limit {row['classical_limit']!r}"
    return None


def _check_teleport(req, text) -> str | None:
    rows = _parse_rows(text, req["fmt"])
    bad = _grid_mismatch(req, rows, TELEPORT_COLUMNS)
    if bad:
        return bad
    for i, row in enumerate(rows):
        if row["samples"] != req["samples"]:
            return f"row {i}: samples {row['samples']!r}, expected {req['samples']}"
        if not (0.0 <= row["f_analytic"] <= 1.0 + 1e-12 and row["stderr"] >= 0.0):
            return f"row {i}: f_analytic {row['f_analytic']!r}, stderr {row['stderr']!r}"
        tol = max(MC_SIGMAS * row["stderr"], 1e-12)
        if not abs(row["f_mc"] - row["f_analytic"]) <= tol:
            return f"row {i}: |f_mc - f_analytic| = {abs(row['f_mc'] - row['f_analytic']):.3e} > {tol:.3e}"
    return None


def _close(x, ref, scale, tol=ALGEBRA_TOL) -> bool:
    return abs(complex(x) - complex(ref)) <= tol * scale


def _fock_amplitude(coeffs, amps, index) -> complex:
    """<n_0, n_1, ...|s> for a superposition of coherent product kets."""
    total = 0.0j
    for c, row in zip(coeffs, amps):
        term = complex(c)
        for a, n in zip(row, index):
            a = complex(a)
            term *= math.exp(-0.5 * abs(a) ** 2 - 0.5 * math.lgamma(n + 1)) * a**n
        total += term
    return total


def _check_algebra(req, inp, out) -> str | None:
    kind = req["kind"]
    if kind == "bell":
        mass = dict.fromkeys(("B1", "B2", "B3", "B4", "AMBIGUOUS"), 0.0)
        for outcome, p in out.outcomes:
            mass[outcome.label.name] += p
        tail = out.tail_bound
        alpha, k = req["alpha"], req["bell"]
        if k in (1, 3):
            right, wrong = (mass["B1"], mass["B3"]) if k == 1 else (mass["B3"], mass["B1"])
            misid = 0.5 * wrong / (wrong + right)
            closed = 1.0 / (2.0 * (1.0 + math.exp(4.0 * alpha**2)))
            if not abs(misid - closed) <= max(1e-6, tail):
                return f"misid {misid!r} vs closed {closed!r} at alpha {alpha}"
        else:
            own = "B2" if k == 2 else "B4"
            cross = sum(v for lab, v in mass.items() if lab != own)
            if cross > 1e-12 or not abs(mass[own] - 1.0) <= max(1e-9, tail):
                return f"B{k} input: own mass {mass[own]!r}, cross mass {cross!r}"
        return None
    if kind == "concentrate":
        alpha, eta = req["alpha"], req["eta"]
        u2 = math.exp(-4.0 * alpha**2)
        n_theta = -math.expm1(-4.0 * alpha**2)
        s2e = math.sin(2.0 * eta)
        closed = n_theta**2 * s2e**2 / (4.0 * (1.0 - u2 * s2e) ** 2)
        if not (abs(out["p"] - closed) <= CONCENTRATE_TOL and _close(out["nrm"], 1.0, 1.0)):
            return f"swap p {out['p']!r} vs closed {closed!r}, state norm^2 {out['nrm']!r}"
        return None
    ca, aa = inp["a"]
    naa = ref_inner(ca, aa, ca, aa)
    sa = _scale(ca, ca)
    if kind == "gram":
        cb, ab = inp["b"]
        sab = _scale(ca, cb)
        if not _close(out["ab"], out["ba"].conjugate(), sab):
            return f"<a|b> = {out['ab']!r} but conj <b|a> = {out['ba'].conjugate()!r}"
        refs = {"ab": (ref_inner(ca, aa, cb, ab), sab), "aa": (naa, sa),
                "bb": (ref_inner(cb, ab, cb, ab), _scale(cb, cb))}
        for key, (want, scale) in refs.items():
            if not _close(out[key], want, scale):
                return f"<{key[0]}|{key[1]}> = {out[key]!r}, reference {want!r}"
        return None
    if kind == "optics":
        for key in ("n_out", "cross", "back"):
            if not _close(out[key], naa, sa):
                return f"{key} = {out[key]!r}, expected norm^2 {naa!r}"
        return None
    if kind == "decohere":
        if not _close(out["trace"], naa, sa):
            return f"trace {out['trace']!r}, expected norm^2 {naa!r}"
        return None
    if kind == "tensor_project":
        cb, ab = inp["b"]
        nbb = ref_inner(cb, ab, cb, ab)
        sb = _scale(cb, cb)
        if not _close(out["cc"], nbb * nbb * naa, sb * sb * sa):
            return f"<chi|chi> = {out['cc']!r}, expected {nbb * nbb * naa!r}"
        if not _close(out["ac"], nbb * naa, sb * sa):
            return f"<a|chi> = {out['ac']!r}, expected {nbb * naa!r}"
        return None
    if kind == "fock":
        fv, dist = out["fock"], out["dist"]
        lost = naa.real - float(np.vdot(fv.amps, fv.amps).real)
        if not -ALGEBRA_TOL * sa <= lost <= fv.tail_bound + ALGEBRA_TOL * sa:
            return f"Fock norm^2 short by {lost!r}, tail bound {fv.tail_bound!r}"
        rng = np.random.default_rng([req["seed"], 1])
        for index in ((0,) * fv.modes, tuple(int(x) for x in rng.integers(0, 6, fv.modes))):
            want = _fock_amplitude(ca, aa, index)
            if not _close(fv.amps[index], want, max(1.0, float(np.abs(ca).sum()))):
                return f"Fock amplitude {index} = {fv.amps[index]!r}, reference {want!r}"
        total = float(dist.probs.sum())
        if not 1.0 - dist.tail_bound - ALGEBRA_TOL <= total <= 1.0 + ALGEBRA_TOL:
            return f"photon distribution sums to {total!r}, tail bound {dist.tail_bound!r}"
        vac = abs(_fock_amplitude(ca, aa, (0,) * fv.modes)) ** 2 / naa.real
        if not abs(dist.probs[(0,) * dist.modes] - vac) <= ALGEBRA_TOL * max(1.0, sa / naa.real):
            return f"vacuum probability {dist.probs[(0,) * dist.modes]!r}, reference {vac!r}"
        return None
    raise ValueError(f"unknown request kind {kind!r}")


def check(req: dict, inp: dict | None, out) -> str | None:
    """None when ``out`` is a correct answer to ``req``, else the reason."""
    if req["kind"] in SWEEP_KINDS:
        return _check_sweep(req, out)
    if req["kind"] == "teleport-mc":
        return _check_teleport(req, out)
    return _check_algebra(req, inp, out)


def fock_stats(req: dict, out) -> tuple[int, float]:
    """(effective Fock cutoff, tail bound) recorded by an algebra output."""
    if req["kind"] == "fock":
        return max(out["fock"].cutoff, out["dist"].cutoff), max(
            out["fock"].tail_bound, out["dist"].tail_bound)
    if req["kind"] == "bell":
        return max(max(o.counts) for o, _ in out.outcomes), out.tail_bound
    return 0, 0.0
