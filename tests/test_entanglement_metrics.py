"""Negativity, singlet fraction, fidelity, and entropy functionals."""
import itertools
import math

import numpy as np
import pytest

from ecsim import entanglement_metrics as em
from ecsim.decoherence import channel_rho4, closed_form_vst
from ecsim.errors import DegenerateBasisError
from ecsim.entanglement_metrics import (
    characteristic_time,
    closed_form_e,
    closed_form_f,
    closed_form_s,
    linear_entropy,
    max_rotation_trace,
    mixedness_peak,
    negativity_e,
    optimal_fidelity,
    partial_transpose,
    singlet_fraction,
    vn_entropy,
)
from ecsim.qubit_encoding import BELL_VECTORS, PAULIS, TwoQubitDensity, pauli_decompose
from test_protocols import _average_fidelity_reference

SQRT_HALF = 1.0 / math.sqrt(2.0)


def random_density(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    return TwoQubitDensity(m / np.trace(m).real)


def max_bell_projection(rho: TwoQubitDensity) -> float:
    """max_k <B_k| rho |B_k> over the four logical Bell vectors."""
    return float(
        max((b.conj() @ rho.matrix @ b).real for b in BELL_VECTORS)
    )


def max_rotation_trace_enumerated(m: np.ndarray) -> float:
    """max Tr(M O) over signed permutations O with determinant +1.

    Exhaustive (24 matrices); attains the rotation optimum whenever M is
    diagonal, which is the case for the damped channel.
    """
    m = np.asarray(m, dtype=float)
    best = -np.inf
    for perm in itertools.permutations(range(3)):
        p = np.zeros((3, 3))
        for i, j in enumerate(perm):
            p[i, j] = 1.0
        for signs in itertools.product((1.0, -1.0), repeat=3):
            o = p * np.array(signs)[:, None]
            if np.linalg.det(o) > 0:
                best = max(best, float(np.trace(m @ o)))
    return best


class TestNegativity:
    def test_pure_channel_is_maximal(self):
        for alpha in (0.1, 1.0, 2.0):
            assert negativity_e(channel_rho4(alpha, 0.0)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_maximally_mixed_is_separable(self):
        assert negativity_e(TwoQubitDensity(np.eye(4) / 4.0)) == 0.0

    def test_separable_reads_plus_zero(self):
        # every clamped eigenvalue zero: -2 times their sum would read -0.0
        e = negativity_e(TwoQubitDensity(np.eye(4) / 4.0))
        assert math.copysign(1.0, e) == 1.0
        batch = negativity_e(channel_rho4(np.array([3.0, 5.0, 10.0]), np.linspace(0.9, 0.995, 7)))
        assert np.all(batch == 0.0) and not np.signbit(batch).any()

    def test_entangled_past_characteristic_time(self):
        assert negativity_e(channel_rho4(1.0, 0.7)) > 0.0

    def test_peres_horodecki_consistency(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            if rng.uniform() < 0.5:
                rho = random_density(rng)
            else:
                rho = channel_rho4(rng.uniform(0.2, 2.0), rng.uniform(0.0, 0.95))
            min_eig = np.linalg.eigvalsh(partial_transpose(rho)).min()
            assert (negativity_e(rho) > 1e-12) == (min_eig < -1e-12)


class TestClosedFormE:
    def test_unit_at_zero_time(self):
        for alpha in (0.1, 1.0, 2.0):
            assert closed_form_e(alpha, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decrease_in_r(self):
        for alpha in (0.1, 1.0, 2.0):
            vals = [closed_form_e(alpha, r) for r in np.linspace(0.0, 0.95, 30)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_amplitude_ordering(self):
        e2, e1, e01 = (closed_form_e(a, 0.5) for a in (2.0, 1.0, 0.1))
        assert e2 < e1 < e01

    def test_never_separable(self):
        for alpha in (0.1, 0.5, 1.0, 2.0):
            for r in (0.3, 0.7, 0.9, 0.99):
                assert closed_form_e(alpha, r) > 0.0

    @pytest.mark.parametrize("alpha,r", [(0.4, 0.3), (1.0, 0.6), (1.7, 0.85)])
    def test_matches_numeric(self, alpha, r):
        assert closed_form_e(alpha, r) == pytest.approx(
            negativity_e(channel_rho4(alpha, r)), abs=1e-10
        )


class TestSingletFraction:
    def test_pure_channel(self):
        assert singlet_fraction(channel_rho4(0.8, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert singlet_fraction(TwoQubitDensity(np.eye(4) / 4.0)) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_equals_best_bell_projection(self):
        # for the channel's diagonal correlation matrix the optimum is
        # attained on the decayed Bell family
        for alpha in (0.3, 1.0, 2.0):
            for r in (0.0, 0.4, SQRT_HALF, 0.9):
                rho = channel_rho4(alpha, r)
                assert singlet_fraction(rho) == pytest.approx(
                    max_bell_projection(rho), abs=1e-9
                )

    def test_rotation_optimum_vs_enumeration(self):
        for alpha in (0.5, 1.0, 1.5):
            for r in (0.1, 0.6, 0.9):
                t = pauli_decompose(channel_rho4(alpha, r)).t_matrix
                assert max_rotation_trace(-t) == pytest.approx(
                    max_rotation_trace_enumerated(-t), abs=1e-12
                )


class TestOptimalFidelity:
    def test_linkage_is_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            rho = random_density(rng)
            assert optimal_fidelity(rho) == (singlet_fraction(rho) * 2 + 1.0) / 3.0

    def test_general_dimension_form(self):
        # (F N + 1)/(N + 1) at N = 2: a Bell state (F = 1) and the
        # maximally mixed state (F = 1/4)
        bell = TwoQubitDensity(np.outer(BELL_VECTORS[3], BELL_VECTORS[3]))
        assert optimal_fidelity(bell) == pytest.approx(1.0)
        assert optimal_fidelity(TwoQubitDensity(np.eye(4) / 4.0)) == pytest.approx(0.5)

    def test_perfect_at_zero_time(self):
        assert closed_form_f(1.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_classical_limit_at_characteristic_time(self):
        for alpha in (0.1, 1.0, 2.0):
            assert closed_form_f(alpha, SQRT_HALF) == pytest.approx(
                2.0 / 3.0, abs=1e-12
            )

    def test_useless_but_entangled_beyond(self):
        for alpha in (0.1, 1.0, 2.0):
            for r in (0.75, 0.9, 0.97):
                assert closed_form_f(alpha, r) < 2.0 / 3.0
                assert closed_form_e(alpha, r) > 0.0

    @pytest.mark.parametrize("alpha,r", [(0.2, 0.3), (1.0, 0.5), (1.8, 0.9)])
    def test_matches_numeric(self, alpha, r):
        assert closed_form_f(alpha, r) == pytest.approx(
            optimal_fidelity(channel_rho4(alpha, r)), abs=1e-9
        )

    def test_scheme_optimum_equals_lqcc_optimum(self):
        # max over correction remappings of the exact scheme average
        # reproduces the rotation-optimal fidelity at every decay time
        for alpha in (0.5, 1.0):
            for r in (0.2, 0.6, SQRT_HALF, 0.9):
                rho = channel_rho4(alpha, r)
                best = max(_average_fidelity_reference(rho, remap)
                           for remap in (np.eye(2, dtype=complex),) + PAULIS)
                assert best == pytest.approx(optimal_fidelity(rho), abs=1e-9)


class TestEntropy:
    def test_pure_state_zero(self):
        rho = channel_rho4(1.0, 0.0)
        assert linear_entropy(rho) == pytest.approx(0.0, abs=1e-12)
        assert vn_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed(self):
        rho = TwoQubitDensity(np.eye(4) / 4.0)
        assert linear_entropy(rho) == pytest.approx(0.75, abs=1e-14)
        assert vn_entropy(rho) == pytest.approx(2.0, abs=1e-12)

    def test_range_on_mixed_channel(self):
        rho = channel_rho4(1.0, 0.5)
        assert 0.0 <= linear_entropy(rho) <= 0.75
        assert vn_entropy(rho) >= 0.0

    @pytest.mark.parametrize("alpha,r", [(0.1, 0.4), (1.0, 0.5), (2.0, 0.8)])
    def test_closed_form_matches(self, alpha, r):
        assert closed_form_s(alpha, r) == pytest.approx(
            linear_entropy(channel_rho4(alpha, r)), abs=1e-9
        )

    def test_decays_to_zero_at_late_times(self):
        for alpha in (0.1, 1.0, 2.0):
            vals = [closed_form_s(alpha, r) for r in (SQRT_HALF, 0.8, 0.9, 0.97, 0.995)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert closed_form_s(alpha, 0.99999) < 1e-3

    def test_symmetric_about_characteristic_time(self):
        # closed form depends on r only through r^2 <-> 1 - r^2 symmetry
        for alpha in (0.3, 1.2):
            r = 0.35
            mirrored = math.sqrt(1.0 - r * r)
            assert closed_form_s(alpha, r) == pytest.approx(
                closed_form_s(alpha, mirrored), rel=1e-12
            )


class TestCharacteristicTime:
    @pytest.mark.parametrize("alpha", [0.1, 1.0, 2.0])
    def test_independent_of_alpha(self, alpha):
        assert characteristic_time(alpha) == pytest.approx(SQRT_HALF, abs=1e-9)

    def test_crossing_over_amplitudes(self):
        # past alpha ~ 2.9 f(0.9995) rounds to 2/3; the search brackets the
        # crossing on f - 2/3 in a form that does not cancel
        for alpha in np.linspace(0.05, 3.0, 60):
            r_c = characteristic_time(float(alpha))
            assert r_c == pytest.approx(SQRT_HALF, abs=1e-9)
            assert closed_form_f(float(alpha), r_c - 1e-6) > 2.0 / 3.0
            assert closed_form_f(float(alpha), r_c + 1e-6) < 2.0 / 3.0

    def test_margin_is_f_minus_two_thirds(self):
        r = np.linspace(1e-6, 0.9995, 101)
        for alpha in (0.05, 0.5, 1.0, 2.0, 3.0):
            margin = em._fidelity_margin(alpha, r)
            assert margin == pytest.approx(closed_form_f(alpha, r) - 2.0 / 3.0, abs=1e-14)
        # where f rounds to 2/3 the margin keeps its sign
        assert closed_form_f(3.0, 0.9995) == 2.0 / 3.0
        assert em._fidelity_margin(3.0, 0.9995) < 0.0


class TestMixednessPeak:
    def test_both_entropies_peak_together(self):
        # acceptance check 4's two errors, over more amplitudes than it takes
        for alpha in np.linspace(0.1, 2.0, 20):
            r_lin = mixedness_peak(float(alpha), "linear")
            r_vn = mixedness_peak(float(alpha), "vn")
            assert abs(r_lin - SQRT_HALF) < 1e-6, alpha
            assert abs(r_vn - r_lin) < 1e-6, alpha

    def test_unknown_measure(self):
        with pytest.raises(ValueError):
            mixedness_peak(1.0, "renyi")


def _closed_forms_one_amplitude(alpha: float, r: np.ndarray) -> dict:
    """E, f and S of one amplitude over an r grid, in the scalar float
    arithmetic of the closed forms: Python's alpha**2 (libm's pow) and
    math.expm1 per amplitude, numpy over the grid."""
    t = np.sqrt(1.0 - r * r)
    n = -math.expm1(-4.0 * alpha**2)
    t2 = t**2
    g, w = np.exp(-4.0 * (1.0 - t2) * alpha**2), np.exp(-4.0 * t2 * alpha**2)
    a, b = (1.0 - g) * w, (1.0 - g) * np.sqrt(w)
    c, d = 2.0 - (1.0 + g) * w, -2.0 * g + (1.0 + g) * w
    r2 = r * r
    return {
        closed_form_e: (np.sqrt(16.0 * b**2 + (c - d) ** 2) - (2.0 * a + c + d)) / (4.0 * n),
        closed_form_f: np.maximum(1.0 + (1.0 - g) / n, 2.0 + (g - w) / n) / 3.0,
        closed_form_s: np.expm1(-8.0 * r2 * alpha**2) * np.expm1(-8.0 * (1.0 - r2) * alpha**2)
        / (2.0 * n**2),
    }


METRICS = [negativity_e, singlet_fraction, optimal_fidelity, linear_entropy, vn_entropy]
CLOSED_FORMS = [(closed_form_e, negativity_e), (closed_form_f, optimal_fidelity),
                (closed_form_s, linear_entropy)]


class TestBatches:
    @pytest.mark.parametrize("metric", METRICS)
    def test_metric_matches_loop_over_slices(self, metric):
        rng = np.random.default_rng(44)
        mats = [random_density(rng).matrix for _ in range(5)]
        mats += list(channel_rho4(1.3, np.linspace(0.0, 0.99, 10)).matrix)
        batch = TwoQubitDensity(np.stack(mats).reshape(3, 5, 4, 4))
        got = metric(batch)
        assert got.shape == (3, 5)
        want = [metric(TwoQubitDensity(m)) for m in mats]
        assert all(type(w) is float for w in want)
        assert np.max(np.abs(got.reshape(-1) - want)) <= 1e-15

    @pytest.mark.parametrize("closed,numeric", CLOSED_FORMS)
    def test_closed_form_grid_is_bitwise_scalar(self, closed, numeric):
        for alpha in (0.1, 1.0, 2.5):
            r = np.linspace(0.0, 0.995, 57)
            got = closed(alpha, r)
            assert got.shape == r.shape
            assert list(got) == [closed(alpha, float(x)) for x in r]
            assert np.array_equal(closed(alpha, r[1:].reshape(7, 8)), got[1:].reshape(7, 8))

    @pytest.mark.parametrize("closed,numeric", CLOSED_FORMS)
    def test_alpha_column_is_bitwise_the_scalar_calls(self, closed, numeric):
        # Python's a**2 (libm's pow) and numpy's square differ on
        # 0.45641438732799167 and on the N_theta of 0.6367562934712789; the
        # rest span the CLI's range, then a random set
        rng = np.random.default_rng(45)
        alphas = np.concatenate(([0.45641438732799167, 0.6367562934712789, 0.15, 1e-3, 13.4, 1e6],
                                 rng.uniform(1e-3, 3.0, 40), 10.0 ** rng.uniform(-3.0, 6.0, 20)))
        r = np.linspace(0.0, 0.995, 31)
        got = closed(alphas[:, None], r)
        assert got.shape == (len(alphas), len(r))
        for alpha, row in zip(alphas.tolist(), got):
            assert row.tobytes() == closed(alpha, r).tobytes()
            assert row.tobytes() == _closed_forms_one_amplitude(alpha, r)[closed].tobytes()

    @pytest.mark.parametrize("closed,numeric", CLOSED_FORMS)
    def test_closed_form_grid_degeneracy_guard(self, closed, numeric):
        closed(1e-3, np.array([0.0, 0.5]))
        with pytest.raises(DegenerateBasisError):
            closed(1e-3, np.array([0.0, 0.5, 0.9999999]))

    @pytest.mark.parametrize("closed,numeric", CLOSED_FORMS)
    def test_large_amplitude(self, closed, numeric):
        # e^{4 alpha^2} overflows a double here; the closed forms never form it
        r = np.linspace(0.0, 0.99, 12)
        got = closed(14.0, r)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - numeric(channel_rho4(14.0, r)))) < 1e-9


# Accuracy envelope of the numeric route against the closed forms: max
# |numeric - closed| for E, f and S over 400 r in [0, 0.995], on a half-decade
# grid of alpha over the CLI's range.  Each band's bounds are under 3x the
# largest error the route showed in that band when they were set.  The error
# grows as ~alpha^-2 below alpha ~ 0.3 and, for E and S, rises again from
# alpha ~ 3 to 100.
ENVELOPE_ALPHAS = np.logspace(-3.0, 6.0, 19)
ENVELOPE_BANDS = [  # (alpha lo, alpha hi, bound on E, f, S)
    (1e-3, 1e-3, 3e-10, 8e-11, 3.5e-10),
    (3e-3, 1e-2, 3e-11, 9e-12, 3.3e-11),
    (3e-2, 0.1, 2.5e-13, 1e-13, 3.5e-13),
    (0.3, 2.0, 4e-15, 1.9e-15, 7e-15),
    (3.0, 100.0, 5e-12, 6e-16, 7e-12),
    (300.0, 400.0, 6e-16, 3e-16, 8e-13),
    (1e3, 1e6, 6e-16, 3e-16, 1.3e-15),
]


@pytest.mark.parametrize("lo,hi,e_tol,f_tol,s_tol", ENVELOPE_BANDS)
def test_numeric_route_accuracy_envelope(lo, hi, e_tol, f_tol, s_tol):
    # a little slack at each end: the grid's decades need not be exact
    alphas = ENVELOPE_ALPHAS[(ENVELOPE_ALPHAS >= lo * 0.999) & (ENVELOPE_ALPHAS <= hi * 1.001)]
    assert len(alphas) >= 1
    r = np.linspace(0.0, 0.995, 400)
    for alpha in alphas:
        rho = channel_rho4(float(alpha), r)
        tols = (e_tol, f_tol, s_tol)
        for (closed, numeric), tol in zip(CLOSED_FORMS, tols):
            err = np.max(np.abs(numeric(rho) - closed(float(alpha), r)))
            assert err <= tol, (closed.__name__, alpha, err)


# The same envelope for the Pauli coefficients: max |numeric - closed| of
# pauli_decompose(channel_rho4) against closed_form_vst, over the same grid,
# one batched channel_rho4 call per band.  Each bound is under 3x the largest
# error in the band when it was set; past alpha ~ 300 both v and s are 0.
PAULI_BANDS = [  # (alpha lo, alpha hi, bound on v and s, bound on T)
    (1e-3, 1e-3, 2.5e-10, 3.5e-10),
    (3e-3, 1e-2, 2.9e-11, 3.2e-11),
    (3e-2, 0.1, 2.3e-13, 2.7e-13),
    (0.3, 2.0, 3.3e-15, 4.6e-15),
    (3.0, 100.0, 6.6e-16, 1.6e-15),
    (300.0, 1e6, 0.0, 6.6e-16),
]


@pytest.mark.parametrize("lo,hi,vs_tol,t_tol", PAULI_BANDS)
def test_pauli_coefficients_accuracy_envelope(lo, hi, vs_tol, t_tol):
    alphas = ENVELOPE_ALPHAS[(ENVELOPE_ALPHAS >= lo * 0.999) & (ENVELOPE_ALPHAS <= hi * 1.001)]
    assert len(alphas) >= 1
    r = np.linspace(0.0, 0.995, 400)
    got = pauli_decompose(channel_rho4(alphas, r))
    for a, alpha in enumerate(alphas.tolist()):
        want = closed_form_vst(alpha, r)
        for name, tol in (("v", vs_tol), ("s", vs_tol), ("t_matrix", t_tol)):
            err = np.max(np.abs(getattr(got, name)[a] - getattr(want, name)))
            assert err <= tol, (name, alpha, err)
