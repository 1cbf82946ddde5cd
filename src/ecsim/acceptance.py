"""Acceptance suite: every release gate as an executable check.

Each check returns ``(passed, detail)``; ``run_all`` runs all of them in
order, each timed, into one CheckResult per check.  A check that raises a
ValueError (every ``ecsim.errors`` class is one) is reported as that check's
failure, naming the error, and the remaining checks still run.  The CLI
``report`` command prints one pass/fail line per check and the pytest
acceptance module asserts each one.

Check 8.2 compares the exact swap construction against the closed-form
success probability as originally stated (single normalization power in the
denominator).  The exact construction, an independent truncated-Fock
computation, and the symmetric-pair special case (eta = pi/4, where the
swap probability is exactly 1/4 at every amplitude) all agree on the
squared denominator instead, so 8.2 documents a real discrepancy in the
stated target and is expected to fail; 8.1/8.3 and the corrected form are
verified elsewhere at much tighter tolerance.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import (
    coherent_states as cs,
    decoherence as dec,
    entanglement_metrics as em,
    protocols as pr,
    qubit_encoding as qe,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# criteria 1-9


def check_zero_time_entanglement() -> tuple[bool, str]:
    """At r = 0 the channel is maximally entangled for every amplitude."""
    alphas = np.array([0.1, 1.0, 2.0])
    e_num = em.negativity_e(dec.channel_rho4(alphas, 0.0))
    e_closed = em.closed_form_e(alphas, 0.0)
    worst = max(np.abs(e_num - 1.0).max(), np.abs(e_closed - 1.0).max())
    return worst <= 1e-10, f"max |E-1| = {worst:.3e}"


def check_oracle_grid() -> tuple[bool, str]:
    """Numeric channel construction matches every closed form on a grid:
    one batched density and one closed-form call on the (alpha, r) grid, as
    the CLI makes them."""
    start = time.perf_counter()
    alphas = np.linspace(0.1, 2.0, 20)
    r = np.linspace(0.0, 0.95, 20)
    rho = dec.channel_rho4(alphas, r)
    worst_e = np.abs(em.negativity_e(rho) - em.closed_form_e(alphas, r)).max()
    want = dec.closed_form_vst(alphas, r)
    worst_vst = np.abs(qe.pauli_decompose(rho) - want).max()
    elapsed = time.perf_counter() - start
    ok = worst_e <= 1e-9 and worst_vst <= 1e-10 and elapsed < 10.0
    return ok, f"|dE|={worst_e:.3e}, |dVST|={worst_vst:.3e}, {elapsed:.2f}s"


def check_characteristic_time() -> tuple[bool, str]:
    """Fidelity crosses 2/3 at r = 1/sqrt(2) for every amplitude, and the
    channel stays entangled while useless beyond it."""
    alphas = (0.1, 1.0, 2.0)
    worst = max(abs(em.characteristic_time(alpha) - SQRT_HALF) for alpha in alphas)
    r = np.array([0.75, 0.85, 0.95])
    f = em.closed_form_f(alphas, r)
    e = em.closed_form_e(alphas, r)
    beyond_ok = bool((f < 2.0 / 3.0).all() and (e > 0.0).all())
    ok = worst <= 1e-9 and beyond_ok
    return ok, f"max |r_c - 1/sqrt2| = {worst:.3e}, beyond-r_c behavior ok: {beyond_ok}"


def check_mixedness_peak() -> tuple[bool, str]:
    """Mixedness peaks at the characteristic time, by either entropy."""
    worst_lin = 0.0
    worst_vn = 0.0
    for alpha in (0.1, 1.0, 2.0):
        r_lin = em.mixedness_peak(alpha, "linear")
        r_vn = em.mixedness_peak(alpha, "vn")
        worst_lin = max(worst_lin, abs(r_lin - SQRT_HALF))
        worst_vn = max(worst_vn, abs(r_vn - r_lin))
    ok = worst_lin <= 1e-6 and worst_vn <= 1e-6
    return ok, f"linear argmax err {worst_lin:.3e}, vn vs linear {worst_vn:.3e}"


def check_entanglement_ordering() -> tuple[bool, str]:
    """Larger amplitudes decohere faster at fixed r."""
    alphas = np.array([2.0, 1.0, 0.1])
    vals_closed = em.closed_form_e(alphas, 0.5)
    vals_num = em.negativity_e(dec.channel_rho4(alphas, 0.5))
    ok = (np.diff(vals_closed) > 0).all() and (np.diff(vals_num) > 0).all()
    return ok, ("E(2) < E(1) < E(0.1): " + ", ".join(f"{v:.6f}" for v in vals_closed)
                + f"; numeric least gap {np.diff(vals_num).min():.1e}")


def check_bell_discrimination() -> tuple[bool, str]:
    """Photon-counting misidentification matches the closed form; odd-count
    channels are discriminated without cross-label mass."""
    worst = 0.0
    tol = 0.0
    cross_worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        basis = qe.make_basis(alpha, 1.0)
        meas1 = pr.bell_measure_distribution(qe.bell_state(1, basis))
        p_num = meas1.misidentification()
        worst = max(worst, abs(p_num - pr.misid_probability_closed(alpha)))
        tol = max(tol, max(1e-6, meas1.tail_bound))
        for k, own in ((2, pr.BellLabel.B2), (4, pr.BellLabel.B4)):
            meas = pr.bell_measure_distribution(qe.bell_state(k, basis))
            for label in pr.BellLabel:
                if label not in (own, pr.BellLabel.AMBIGUOUS):
                    cross_worst = max(cross_worst, meas.mass(label))
    ok = worst <= tol and cross_worst <= 1e-12
    return ok, f"|dP_i| = {worst:.3e} (tol {tol:.1e}), cross mass = {cross_worst:.3e}"


def check_teleportation_mc() -> tuple[bool, str]:
    """Seeded Monte Carlo agrees with the exact scheme average."""
    details = []
    ok = True
    for i, r in enumerate((0.0, 0.3, SQRT_HALF)):
        q = pr.bloch_transfer(dec.channel_rho4(1.0, r))
        analytic = pr.average_fidelity(q)
        mean, stderr = pr.teleport_average_mc(q, samples=100_000, seed=20_000 + i)
        err = abs(mean - analytic)
        tol = max(3.0 * stderr, 1e-12)
        ok = ok and err <= tol
        details.append(f"r={r:.3f}: |mc-exact|={err:.2e} (3se={3 * stderr:.2e})")
        if r == 0.0:
            ok = ok and abs(analytic - 1.0) <= 1e-12
            details[-1] += f", |f-1|={abs(analytic - 1.0):.2e}"
    return ok, "; ".join(details)


def check_concentration_ideal() -> tuple[bool, str]:
    """Four-qubit swap reproduces the maximally entangled outcome weights."""
    etas = np.array((math.pi / 8, math.pi / 6, math.pi / 3))
    cos_sin = np.cos(etas) * np.sin(etas)
    worst = float(np.abs(pr.concentrate_ideal(etas)[:, :2] - (cos_sin * cos_sin)[:, None]).max())
    return worst <= 1e-10, f"max |p - cos^2 sin^2| = {worst:.3e}"


def check_concentration_exact_printed_form() -> tuple[bool, str]:
    """Exact swap vs the stated closed form (single normalization power).

    Expected to fail: the exact construction carries one normalization
    factor per input pair, so the denominator is squared.  See the
    module docstring; the corrected form is held within eps (1/N_theta + 3)
    by the ``swap`` row of tests/test_accuracy.py.
    """
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        basis = qe.make_basis(alpha, 1.0)
        u2 = basis.sin2theta**2
        for eta in (math.pi / 8, math.pi / 4, math.pi / 3):
            swap = pr.concentrate_exact(alpha, eta).success_probability
            printed = (
                basis.n_theta**2
                * math.sin(2.0 * eta) ** 2
                / (4.0 * (1.0 - u2 * math.sin(2.0 * eta)))
            )
            worst = max(worst, abs(swap - printed))
    return worst <= 1e-9, f"max deviation = {worst:.3e} (single-power denominator)"


def check_concentration_limits() -> tuple[bool, str]:
    """Large- and small-amplitude limits of the exact swap probability."""
    ok = True
    details = []
    for eta in (math.pi / 8, math.pi / 6, math.pi / 3):
        big = pr.concentrate_exact(3.0, eta).success_probability
        cos_sin = math.cos(eta) * math.sin(eta)
        want = cos_sin * cos_sin
        ok = ok and abs(big - want) <= 1e-6
        small = pr.concentrate_exact(0.05, eta).success_probability
        ok = ok and small < 1e-3
        details.append(f"eta={eta:.3f}: large err {abs(big - want):.1e}, small {small:.1e}")
    return ok, "; ".join(details)


def check_cv_fidelity() -> tuple[bool, str]:
    """Continuous-variable fidelity: value at zero, global bound, maximum (the
    function peaks at ``cv_max``'s x*, within 4 eps of its f*)."""
    f0 = pr.cv_fidelity(0.0)
    xs = np.linspace(0.05, 4.0, 40)
    f = pr.cv_fidelity(np.concatenate([xs, -xs]))
    ok = f0 == 0.5 and bool((f > 0.5).all())
    # the closed-form maximum against the function on a grid of step 1e-6 about it
    x_star, f_star = pr.cv_max()
    excess = (pr.cv_fidelity(x_star + np.linspace(-1e-3, 1e-3, 2001)) - f_star) / EPS
    ok = ok and bool(excess.max() <= 4.0 and excess[1000] >= -4.0)
    return ok, (f"f(0)={f0}, min f-1/2={f.min() - 0.5:.1e}, max f={f_star:.6f} at {x_star:.6f}, "
                f"grid peak f* {excess.max():+.1f} eps")


# ---------------------------------------------------------------------------
# criterion 10: randomized property suites


def _random_superposition(rng, modes=None, max_terms=6):
    if modes is None:
        modes = int(rng.integers(1, 4))
    n_terms = int(rng.integers(1, max_terms + 1))
    coeffs = np.empty(n_terms, dtype=complex)
    amps = np.empty((n_terms, modes), dtype=complex)
    for t in range(n_terms):
        for m in range(modes):
            rad = 3.0 * math.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * math.pi)
            amps[t, m] = rad * complex(math.cos(ang), math.sin(ang))
        cr = rng.uniform(-1.0, 1.0)
        ci = rng.uniform(-1.0, 1.0)
        coeffs[t] = complex(cr, ci)
    return cs.CoherentSuperposition(coeffs, amps)


def _random_hermitian_operator(rng, modes):
    s1 = _random_superposition(rng, modes=modes, max_terms=3)
    s2 = _random_superposition(rng, modes=modes, max_terms=3)
    w = rng.uniform(0.1, 1.0)
    d1, d2 = cs.dyad_from_pure(s1), cs.dyad_from_pure(s2)  # d1 + w d2
    return cs.CoherentOperator(np.concatenate((d1.coeffs, complex(w) * d2.coeffs)),
                               np.concatenate((d1.kets, d2.kets)),
                               np.concatenate((d1.bras, d2.bras)))


def property_gram_positivity(cases):
    rng = np.random.default_rng(301)
    worst = math.inf
    for _ in range(cases):
        s = _random_superposition(rng)
        n2 = cs.inner(s, s)
        worst = min(worst, n2.real)
        if n2.real < -1e-12 or abs(n2.imag) > 1e-10:
            return False, f"norm^2 = {n2!r}"
    return True, f"min norm^2 = {worst:.3e} over {cases} states"


def property_linear_optics_norm(cases):
    rng = np.random.default_rng(302)
    worst = 0.0
    for _ in range(cases):
        s = _random_superposition(rng, modes=2)
        before = cs.inner(s, s).real
        split = cs.beam_split(s, 0, 1)
        shifted = cs.phase_shift(s, 1, rng.uniform(0, 2 * math.pi))
        after_bs = cs.inner(split, split).real
        after_ps = cs.inner(shifted, shifted).real
        worst = max(worst, abs(after_bs - before), abs(after_ps - before))
        if worst > 1e-12 * max(1.0, abs(before)):
            return False, f"norm drift {worst:.3e}"
    return True, f"max norm drift = {worst:.3e} over {cases} states"


def property_trace_preservation(cases):
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(cases):
        op = _random_hermitian_operator(rng, modes=int(rng.integers(1, 3)))
        clock = dec.DecayClock.from_r(rng.uniform(0.0, 0.99))
        before = cs.operator_trace(op)
        after = cs.operator_trace(dec.decohere(op, clock))
        worst = max(worst, abs(after - before))
        if worst > 1e-12 * max(1.0, abs(before)):
            return False, f"trace drift {worst:.3e}"
    return True, f"max trace drift = {worst:.3e} over {cases} operators"


def property_density_validity(cases):
    rng = np.random.default_rng(304)
    for _ in range(cases):
        alpha = rng.uniform(0.1, 2.0)
        r = rng.uniform(0.0, 0.97)
        # a DensityError from its constructor is this suite's failure line
        rho = dec.channel_rho4(alpha, r)
        m = rho.matrix
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            return False, "hermiticity violation"
        if abs(np.trace(m).real - 1.0) > 1e-10:
            return False, "trace violation"
        if np.linalg.eigvalsh(m).min() < -1e-10:
            return False, "negative eigenvalue"
    return True, f"{cases} channel densities validated"


def property_pauli_round_trip(cases):
    rng = np.random.default_rng(305)
    worst = 0.0
    for _ in range(cases):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        rho = qe.TwoQubitDensity(m / np.trace(m).real)
        c = qe.pauli_decompose(rho)
        back = qe.pauli_reconstruct(c)
        worst = max(worst, float(np.max(np.abs(back - rho.matrix))))
        if worst > 1e-10:
            return False, f"round-trip error {worst:.3e}"
        if np.linalg.norm(c[1:, 0]) > 1 + 1e-10 or np.linalg.norm(c[0, 1:]) > 1 + 1e-10:
            return False, "Bloch vector outside the ball"
    return True, f"max round-trip error = {worst:.3e} over {cases} densities"


def property_semigroup(cases):
    rng = np.random.default_rng(306)
    worst = 0.0
    for _ in range(cases):
        op = _random_hermitian_operator(rng, modes=int(rng.integers(1, 3)))
        # clocks at r1 and r2 compose to t1 t2, the clock at r12 = sqrt(1 - t1^2 t2^2)
        c1 = dec.DecayClock.from_r(rng.uniform(0.0, 0.98))
        c2 = dec.DecayClock.from_r(rng.uniform(0.0, 0.98))
        t12 = c1.t * c2.t
        two_step = dec.decohere(dec.decohere(op, c1), c2)
        one_step = dec.decohere(op, dec.DecayClock.from_r(math.sqrt((1.0 - t12) * (1.0 + t12))))
        n_two, n_one = len(two_step.coeffs), len(one_step.coeffs)
        if n_two != n_one:
            return False, f"term count {n_two} (two steps) vs {n_one} (one step)"
        for name in ("coeffs", "kets", "bras"):
            gap = np.abs(getattr(two_step, name) - getattr(one_step, name))
            worst = max(worst, float(gap.max(initial=0.0)))
        if worst > 1e-10:
            return False, f"semigroup defect {worst:.3e}"
    return True, f"max semigroup defect = {worst:.3e} over {cases} operators"


def property_cli_determinism(cases):
    from . import cli  # deferred: cli imports this module for `report`

    rng = np.random.default_rng(307)
    commands = ["fig2a", "fig2b", "fig3", "cv", "teleport-mc", "concentrate", "bellmeas"]
    for i in range(cases):
        cmd = commands[int(rng.integers(0, len(commands)))]
        alpha = f"{rng.uniform(0.4, 1.6):.3f}"
        if cmd in ("fig2a", "fig2b", "fig3"):
            argv = [cmd, "--alphas", alpha, "--r-steps", "2", "--r-max", "0.9"]
        elif cmd == "cv":
            argv = [cmd, "--ar-steps", "3"]
        elif cmd == "teleport-mc":
            argv = [
                cmd, "--alphas", "1.0", "--r-steps", "2", "--r-max", "0.6",
                "--samples", str(int(rng.integers(3, 20))),
                "--seed", str(int(rng.integers(0, 2**31))),
            ]
        elif cmd == "concentrate":
            argv = [cmd, "--alphas", alpha, "--etas", f"{rng.uniform(0.2, 1.3):.3f}"]
        else:
            argv = [cmd, "--alphas", alpha, "--cutoff", "40"]
        if rng.uniform() < 0.5:
            argv += ["--format", "json"]
        first = cli.render(argv)
        second = cli.render(argv)
        if first != second:
            return False, f"case {i}: {' '.join(argv)} not byte-identical"
    return True, f"{cases} randomized configs byte-identical on repeat"


_CHECKS = (
    ("1", "zero-time entanglement", check_zero_time_entanglement),
    ("2", "closed-form oracle equivalence (20x20 grid)", check_oracle_grid),
    ("3", "characteristic time r_c = 1/sqrt(2)", check_characteristic_time),
    ("4", "mixedness peak at r_c", check_mixedness_peak),
    ("5", "entanglement ordering at r = 0.5", check_entanglement_ordering),
    ("6", "beam-splitter Bell discrimination", check_bell_discrimination),
    ("7", "teleportation Monte Carlo", check_teleportation_mc),
    ("8.1", "ideal concentration probabilities", check_concentration_ideal),
    ("8.2", "exact concentration vs stated closed form", check_concentration_exact_printed_form),
    ("8.3", "concentration amplitude limits", check_concentration_limits),
    ("9", "continuous-variable fidelity", check_cv_fidelity),
)


_PROPERTY_CHECKS = (
    ("10.1", "gram positivity", property_gram_positivity),
    ("10.2", "linear-optics norm preservation", property_linear_optics_norm),
    ("10.3", "decoherence trace preservation", property_trace_preservation),
    ("10.4", "density hermiticity/positivity", property_density_validity),
    ("10.5", "Pauli round trip", property_pauli_round_trip),
    ("10.6", "decoherence semigroup law", property_semigroup),
    ("10.7", "CLI determinism", property_cli_determinism),
)


def _run(check_id, name, check, **kwargs) -> tuple[CheckResult, float]:
    """The check's result, its detail ending in its time, and that time in
    seconds; a ValueError raised inside the check is its failure."""
    start = time.perf_counter()
    try:
        passed, detail = check(**kwargs)
    except ValueError as exc:
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return CheckResult(check_id, name, bool(passed), f"{detail} [{elapsed:.1f}s]"), elapsed


def run_property_suite(cases):
    """Run all randomized suites; returns results plus total runtime check."""
    results, times = zip(*(_run(*check, cases=cases) for check in _PROPERTY_CHECKS))
    total = sum(times)
    runtime = CheckResult("10.8", "property-suite runtime", total < 60.0,
                          f"total {total:.1f}s for {cases} cases per suite")
    return [*results, runtime]


def run_all(property_cases) -> list[CheckResult]:
    """Evaluate every acceptance check in order; each detail ends in its time."""
    return [_run(*check)[0] for check in _CHECKS] + run_property_suite(cases=property_cases)
