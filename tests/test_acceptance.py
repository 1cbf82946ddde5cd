"""Acceptance gate: one test per release criterion, at stated tolerances.

Each check returns ``(passed, detail)``; each test prints a PASS/FAIL line
(visible with ``pytest -s`` and in the CLI ``report`` command, which runs
the same checks and reports a check that raises a ValueError as its
failure).

Check 8.2 is expected to fail: it holds the exact swap construction against
a closed-form target whose denominator carries a single normalization power,
while the construction itself, a truncated-Fock recomputation, and the
symmetric special case (eta = pi/4 gives exactly 1/4 at every amplitude)
all fix the squared power.  The corrected form is asserted at 1e-12 in
test_protocols.py.
"""
import itertools
import math
import re
import types

import numpy as np
import pytest

from ecsim import acceptance, cli
from ecsim import coherent_states as cs
from ecsim import decoherence as dec
from ecsim import entanglement_metrics as em
from ecsim import protocols as pr
from ecsim import qubit_encoding as qe
from reference import operator_sum


_CRITERIA = {check: (check_id, name) for check_id, name, check in acceptance._CHECKS}


def _check(check_id, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"{status} {check_id} {name}: {detail}")
    assert passed, f"[{check_id}] {name}: {detail}"


def _criterion(check):
    """Run one of criteria 1-9 and assert its (passed, detail)."""
    passed, detail = check()
    _check(*_CRITERIA[check], bool(passed), detail)


def test_criterion_01_zero_time_entanglement():
    _criterion(acceptance.check_zero_time_entanglement)


def test_criterion_02_closed_form_oracle_grid():
    _criterion(acceptance.check_oracle_grid)


def test_criterion_03_characteristic_time():
    _criterion(acceptance.check_characteristic_time)


def test_criterion_04_mixedness_peak():
    _criterion(acceptance.check_mixedness_peak)


def test_criterion_05_entanglement_ordering():
    _criterion(acceptance.check_entanglement_ordering)


def test_criterion_06_bell_discrimination():
    _criterion(acceptance.check_bell_discrimination)


def test_criterion_07_teleportation_mc():
    _criterion(acceptance.check_teleportation_mc)


def test_criterion_08_1_concentration_ideal():
    _criterion(acceptance.check_concentration_ideal)


def test_criterion_08_2_concentration_exact_vs_stated_form():
    # Known honest failure; see module docstring.
    _criterion(acceptance.check_concentration_exact_printed_form)


def test_criterion_08_3_concentration_limits():
    _criterion(acceptance.check_concentration_limits)


def test_criterion_09_cv_fidelity():
    _criterion(acceptance.check_cv_fidelity)


@pytest.fixture(scope="module")
def property_results():
    return {r.check_id: r for r in acceptance.run_property_suite(cases=1000)}


@pytest.mark.parametrize(
    "check_id",
    ["10.1", "10.2", "10.3", "10.4", "10.5", "10.6", "10.7", "10.8"],
)
def test_criterion_10_property_suites(property_results, check_id):
    res = property_results[check_id]
    _check(res.check_id, res.name, res.passed, res.detail)


def test_gram_positivity_reports_the_true_minimum():
    passed, detail = acceptance.property_gram_positivity(cases=20)
    assert passed
    rng = np.random.default_rng(301)
    states = [acceptance._random_superposition(rng) for _ in range(20)]
    want = min(cs.inner(s, s).real for s in states)
    reported = float(detail.split("=")[1].split()[0])
    assert reported == pytest.approx(want, rel=1e-3)


@pytest.mark.parametrize("modes,max_terms", [(None, 6), (2, 3)])
def test_random_superposition_follows_its_draws(modes, max_terms):
    # the property suites see exactly the states these draws, in this order,
    # define: one radius and angle per amplitude, then the coefficient
    rng, ref = np.random.default_rng(77), np.random.default_rng(77)
    for _ in range(50):
        s = acceptance._random_superposition(rng, modes=modes, max_terms=max_terms)
        m = int(ref.integers(1, 4)) if modes is None else modes
        want = []
        for _ in range(int(ref.integers(1, max_terms + 1))):
            amps = []
            for _ in range(m):
                rad = 3.0 * math.sqrt(ref.uniform())
                ang = ref.uniform(0.0, 2.0 * math.pi)
                amps.append(rad * complex(math.cos(ang), math.sin(ang)))
            cr = ref.uniform(-1.0, 1.0)
            ci = ref.uniform(-1.0, 1.0)
            want.append((complex(cr, ci), amps))
        assert list(zip(s.coeffs.tolist(), s.amps.tolist())) == want
    assert rng.random() == ref.random()


def test_semigroup_fails_on_term_count_mismatch(monkeypatch):
    # a decohere that appends a zero dyad per call: the two-step result then
    # has one more term than the one-step result, with equal leading terms
    real = acceptance.dec.decohere

    def padded(op, clock):
        out = real(op, clock)
        return operator_sum((1, out), (1, cs.CoherentOperator(
            np.zeros_like(out.coeffs[-1:]), out.kets[-1:], out.bras[-1:])))

    monkeypatch.setattr(acceptance.dec, "decohere", padded)
    passed, detail = acceptance.property_semigroup(cases=5)
    assert not passed
    assert "term count" in detail


def _scaled(factor):
    """A patch that multiplies the real call's result by ``factor``."""
    return lambda real: lambda *args: factor * real(*args)


def _scaled_operator(factor):
    """``_scaled`` for a call that returns an operator."""
    return lambda real: lambda *args: operator_sum((factor, real(*args)))


def _unchecked(matrix):
    """A patch whose call returns a stand-in density that skips every check."""
    return lambda real: lambda *args: types.SimpleNamespace(matrix=np.array(matrix))


def _renders_differ(real):
    count = itertools.count()
    return lambda argv: str(next(count))


# (suite, {(module, name): patch of the real call}, fragment of the detail):
# each patch breaks the property the suite reads off that call.  The Bloch
# ball case scales the coordinates by 1024 and the reconstruction back by
# 1/1024, both exact, so that only the Bloch vectors leave the ball.
PROPERTY_BREAKS = [
    ("property_gram_positivity", {(cs, "inner"): lambda real: lambda a, b: -1 + 0j},
     "norm^2 = "),
    ("property_linear_optics_norm", {(cs, "beam_split"): _scaled(2.0)}, "norm drift"),
    ("property_trace_preservation", {(dec, "decohere"): _scaled_operator(2.0)}, "trace drift"),
    ("property_density_validity", {(dec, "channel_rho4"): _unchecked(np.triu(np.ones((4, 4))) / 4)},
     "hermiticity violation"),
    ("property_density_validity", {(dec, "channel_rho4"): _unchecked(np.eye(4) / 2)},
     "trace violation"),
    ("property_density_validity", {(dec, "channel_rho4"): _unchecked(np.diag([0.5, 0.5, 0.5, -0.5]))},
     "negative eigenvalue"),
    ("property_pauli_round_trip", {(qe, "pauli_reconstruct"): _scaled(0.0)}, "round-trip error"),
    ("property_pauli_round_trip",
     {(qe, "pauli_decompose"): _scaled(1024.0), (qe, "pauli_reconstruct"): _scaled(1 / 1024)},
     "Bloch vector outside the ball"),
    ("property_semigroup", {(dec, "decohere"): _scaled_operator(2.0)}, "semigroup defect"),
    ("property_cli_determinism", {(cli, "render"): _renders_differ}, "not byte-identical"),
]


@pytest.mark.parametrize("suite,patches,fragment", PROPERTY_BREAKS,
                         ids=[f"{suite}-{fragment}" for suite, _, fragment in PROPERTY_BREAKS])
def test_property_suite_fails_when_its_property_breaks(monkeypatch, suite, patches, fragment):
    for (module, name), patch in patches.items():
        monkeypatch.setattr(module, name, patch(getattr(module, name)))
    passed, detail = getattr(acceptance, suite)(cases=5)
    assert not passed
    assert fragment in detail


def _beyond_r_c(value):
    """A patch that sets check 3's (alpha 1, r 0.75) entry of the real call to ``value``."""
    return lambda real: lambda *args: np.where(np.arange(9).reshape(3, 3) == 3, value, real(*args))


def _past_3_stderr(real):
    """A patch whose Monte Carlo mean lies just past 3 stderr from the exact average."""
    def mc(q, samples, seed):
        stderr = real(q, samples, seed)[1]
        return pr.average_fidelity(q) + 3.0 * (1.0 + 1e-6) * stderr, stderr
    return mc


def _past_exact_at_r0(real):
    """A patch that moves the exact average at r = 0 (1 within 1e-12) to just past 1e-12
    below 1.  Paired with a Monte Carlo that returns it, so only the exactness clause fails."""
    def exact(q):
        f = real(q)
        return 1.0 - 1.001e-12 if abs(f - 1.0) <= 1e-12 else f
    return exact


# (check, {(module, name): patch of the real call}, fragment of the detail), as
# PROPERTY_BREAKS for checks 1-9: a strict claim broken to its boundary, a
# tolerance to just past it, so that a loosened clause fails a row too.
CHECK_BREAKS = [
    ("check_characteristic_time", {(em, "closed_form_f"): _beyond_r_c(2.0 / 3.0)},
     "beyond-r_c behavior ok: False"),
    ("check_characteristic_time", {(em, "closed_form_e"): _beyond_r_c(0.0)},
     "beyond-r_c behavior ok: False"),
    ("check_teleportation_mc", {(pr, "teleport_average_mc"): _past_3_stderr}, "|mc-exact|="),
    ("check_teleportation_mc", {(pr, "average_fidelity"): _past_exact_at_r0,
                                (pr, "teleport_average_mc"): lambda real: lambda q, samples, seed: (
                                    pr.average_fidelity(q), 0.0)}, "|f-1|=1.00e-12"),
    ("check_cv_fidelity", {(pr, "cv_max"): lambda real: lambda: (
        real()[0], real()[1] - 5.0 * acceptance.EPS)}, "grid peak f* +5.0 eps"),
]


@pytest.mark.parametrize("check,patches,fragment", CHECK_BREAKS, ids=[
    f"{check}-{'-'.join(name for _, name in patches)}" for check, patches, _ in CHECK_BREAKS])
def test_check_fails_when_its_claim_breaks(monkeypatch, check, patches, fragment):
    for (module, name), patch in patches.items():
        monkeypatch.setattr(module, name, patch(getattr(module, name)))
    passed, detail = getattr(acceptance, check)()
    assert not passed
    assert fragment in detail


def test_density_error_from_the_constructor_is_the_suite_failure(monkeypatch):
    # the real TwoQubitDensity refuses the matrix before the suite looks at it
    monkeypatch.setattr(dec, "channel_rho4",
                        lambda alpha, r: qe.TwoQubitDensity(np.triu(np.ones((4, 4))) / 4))
    results = acceptance.run_property_suite(cases=3)
    assert [r.check_id for r in results] == [f"10.{k}" for k in range(1, 9)]
    res = results[3]
    assert not res.passed
    assert res.detail.startswith("DensityError: density matrix is not Hermitian")
    assert re.search(r" \[\d+\.\ds\]$", res.detail)


def test_a_type_error_in_a_check_propagates(monkeypatch):
    # only a ValueError is a check's failure; any other exception is a bug
    def broken(alpha, r):
        raise TypeError("not a numeric guard")

    monkeypatch.setattr(dec, "channel_rho4", broken)
    with pytest.raises(TypeError, match="not a numeric guard"):
        acceptance.run_all(property_cases=3)
