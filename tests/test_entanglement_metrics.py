"""Negativity, singlet fraction, fidelity, and entropy functionals."""
import functools
import itertools
import math
import sys

import numpy as np
import pytest

from ecsim import cli
from ecsim import decoherence as dec
from ecsim import entanglement_metrics as em
from ecsim import protocols as pr
from ecsim.decoherence import channel_rho4, closed_form_vst
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
from ecsim.qubit_encoding import (
    BELL_VECTORS,
    PAULIS,
    TwoQubitDensity,
    bell_state,
    make_basis,
    pauli_decompose,
)
from reference import (ERROR_C, ERROR_K, LOG_ALPHAS, S_ERROR_C, S_ERROR_K,
                       average_fidelity_reference, decimal_channel, random_density,
                       real_densities)

SQRT_HALF = 1.0 / math.sqrt(2.0)
EPS = np.finfo(float).eps


def random_separable(rng, n: int, terms: int, real: bool) -> np.ndarray:
    """n separable densities, each a mixture of one to ``terms`` random pure
    product states with random weights, as an (n, 4, 4) array."""
    rho = np.zeros((n, 4, 4), float if real else complex)
    k = rng.integers(1, terms + 1, n)
    w = rng.dirichlet(np.ones(terms), n) * (np.arange(terms) < k[:, None])
    w /= w.sum(axis=-1, keepdims=True)
    for j in range(terms):
        v = rng.standard_normal((2, n, 2))
        if not real:
            v = v + 1j * rng.standard_normal((2, n, 2))
        a, b = v / np.linalg.norm(v, axis=-1, keepdims=True)
        psi = (a[:, :, None] * b[:, None, :]).reshape(n, 4)
        rho += w[:, j, None, None] * (psi[:, :, None] * psi[:, None, :].conj())
    return rho


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
        # a zero lambda_min would read -0.0 as -2 lambda_min
        e = negativity_e(TwoQubitDensity(np.eye(4) / 4.0))
        assert math.copysign(1.0, e) == 1.0
        # E is under 1e-35 here, far below the eigenvalues' rounding
        batch = negativity_e(channel_rho4(np.array([5.0, 10.0]), np.linspace(0.9, 0.995, 7)))
        assert np.all(batch == 0.0) and not np.signbit(batch).any()

    def test_entangled_past_characteristic_time(self):
        assert negativity_e(channel_rho4(1.0, 0.7)) > 0.0

    def test_peres_horodecki_consistency(self):
        # E > 0 exactly where lambda_min is below the rounding scale: on random
        # densities, on separable ones and on the channel out to where E is
        # 1e-17 (alpha = 3, r = 0.995)
        rng = np.random.default_rng(41)
        channel = channel_rho4(np.array([0.2, 1.0, 2.0, 3.0]), np.linspace(0.0, 0.995, 200))
        rho = TwoQubitDensity(np.concatenate((random_density(rng, (200,)).matrix,
                                              random_separable(rng, 200, 4, real=False),
                                              channel.matrix.reshape(-1, 4, 4))))
        eigs = np.linalg.eigvalsh(partial_transpose(rho))
        entangled = eigs[:, 0] < -4.0 * EPS * eigs[:, -1]
        assert ((negativity_e(rho) > 0.0) == entangled).all()
        assert 100 < entangled.sum() < len(entangled) - 100

    def test_reads_lambda_min_against_its_rounding_scale(self, monkeypatch):
        # sorted spectra with lambda_min at and around +-4 eps lambda_max, at
        # +-0 and subnormals: -2 lambda_min where it is below -4 eps lambda_max,
        # else +0, whatever the two middle eigenvalues
        tiny, spectra = 5e-324, []
        for top in (1.0, 0.5, 0.3, 0.25):
            z = 4.0 * EPS * top
            for low in (-z, z, np.nextafter(-z, 0.0), np.nextafter(-z, -1.0), -2.0 * z,
                        0.0, -0.0, tiny, -tiny, -2.2e-308, 2.2e-308, -1e-13, -0.3, -0.5):
                for mid in (max(low, 0.0), top / 2.0):
                    spectra.append((low, mid, top / 2.0, top))
        eigs = np.array(spectra)
        want = np.array([0.0 - 2.0 * low if low < -4.0 * EPS * top else 0.0
                         for low, _, _, top in spectra])
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigs)
        got = negativity_e(TwoQubitDensity(np.broadcast_to(np.eye(4) / 4.0, (len(eigs), 4, 4))))
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got).any() and (got > 0.0).sum() == 4 * 2 * 5

    def test_separable_rounding_is_within_the_scale(self):
        # The partial transposes of random separable densities: lambda_min reads
        # down to -2.7 eps lambda_max (640 000 densities), and the rule's zero
        # is 4 eps lambda_max.  Here 12 000, real and complex, one to eight terms.
        rng = np.random.default_rng(39)
        worst = 0.0
        for real in (True, False):
            for terms in (1, 2, 8):
                rho = TwoQubitDensity(random_separable(rng, 2000, terms, real))
                eigs = np.linalg.eigvalsh(partial_transpose(rho))
                worst = min(worst, (eigs[:, 0] / (EPS * eigs[:, -1])).min())
                e = negativity_e(rho)
                assert (e == 0.0).all() and not np.signbit(e).any()
        assert -3.0 < worst < -1.0


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

    # log alpha in [1e-2, 20] by r in (0, 1); at alpha = 3 and beyond the
    # stated difference of two numbers near 2 read -1.1e-16 or 0 where E was
    # 1e-16 to 1e-63
    GRID = (np.geomspace(1e-2, 20.0, 400), np.concatenate(([0.0], np.linspace(1e-3, 0.999, 500))))

    def test_positive_until_the_decoherence_functional_underflows(self):
        alpha, r = self.GRID
        e = closed_form_e(alpha, r)
        assert (e >= 0.0).all()
        gamma = np.exp(-4.0 * np.square(np.multiply.outer(alpha, r)))
        assert (e[gamma > 0.0] > 0.0).all()
        assert (e[gamma == 0.0] == 0.0).all()

    def test_non_increasing_in_alpha(self):
        alpha, r = self.GRID
        e = closed_form_e(alpha, r)
        assert (e[1:] <= e[:-1] * (1.0 + 4.0 * np.finfo(float).eps)).all()

    def test_matches_a_decimal_evaluation_of_the_stated_form(self):
        points = [(a, r) for a in (0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0)
                  for r in (0.05, 0.5, 0.99)]
        checked = 0
        for alpha, r in points:
            want = decimal_channel(alpha, r).e
            if want < 1e-300:  # E underflows in floats
                continue
            assert abs(closed_form_e(alpha, r) - float(want)) <= 1e-12 * float(want), (alpha, r)
            checked += 1
        assert checked >= 20
        assert float(decimal_channel(3.0, 0.99).e) == pytest.approx(8.35e-17, rel=1e-3)


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
                t = pauli_decompose(channel_rho4(alpha, r))[1:, 1:]
                assert max_rotation_trace(-t) == pytest.approx(
                    max_rotation_trace_enumerated(-t), abs=1e-12
                )


def _rotation_trace_by_lu(m: np.ndarray) -> np.ndarray:
    """max_rotation_trace by singular values, with the sign of det M from
    LAPACK's LU: s1 + s2 + sgn(det M) s3."""
    sv = np.linalg.svd(m, compute_uv=False)
    return sv[..., 0] + sv[..., 1] + np.where(np.linalg.det(m) >= 0, sv[..., 2], -sv[..., 2])


def _exact_det(m: np.ndarray) -> int:
    """The determinant of a 3x3 matrix of integers, in integer arithmetic."""
    (a, b, c), (d, e, f), (g, h, i) = m.astype(int).tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


HORN_EPS = 16  # the stated bound, in eps (s1 + s2 + s3)


def _within_horn_bound(m: np.ndarray, want: np.ndarray) -> None:
    """Horn's eigenvalue is within HORN_EPS eps (s1 + s2 + s3) of ``want``."""
    scale = np.linalg.svd(m, compute_uv=False).sum(axis=-1) * np.finfo(float).eps
    assert (np.abs(max_rotation_trace(m) - want) <= HORN_EPS * scale).all()


class TestHornEigenvalue:
    """``max_rotation_trace`` is the largest eigenvalue of Horn's 4x4 K(M):
    within its stated bound of the singular values with the sign of det M
    from LU, and exact on integer diagonal and signed-permutation matrices."""

    def test_k_is_the_rotation_trace_as_a_quadratic_form(self):
        # q^T K(M) q = tr(M R(q)) for unit quaternions q = (w, x, y, z), and
        # K is symmetric (eigvalsh reads one triangle)
        rng = np.random.default_rng(54)
        assert (em._HORN == em._HORN.swapaxes(-1, -2)).all()
        for _ in range(50):
            m = rng.standard_normal((3, 3))
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            w, x, y, z = q
            rot = np.array([[w*w + x*x - y*y - z*z, 2*(x*y - w*z), 2*(x*z + w*y)],
                            [2*(x*y + w*z), w*w - x*x + y*y - z*z, 2*(y*z - w*x)],
                            [2*(x*z - w*y), 2*(y*z + w*x), w*w - x*x - y*y + z*z]])
            k = np.einsum("i,iab->ab", m.reshape(9), em._HORN)
            assert q @ k @ q == pytest.approx(np.trace(m @ rot), abs=1e-13)

    def test_random(self):
        m = np.random.default_rng(47).standard_normal((2000, 3, 3))
        _within_horn_bound(m, _rotation_trace_by_lu(m))

    def test_singular(self):
        rng = np.random.default_rng(48)
        zero_column = rng.standard_normal((200, 3, 3))
        zero_column[:, :, 1] = 0.0
        u, v = rng.standard_normal((2, 200, 3))
        rank_one = u[:, :, None] * v[:, None, :]
        for m in (zero_column, rank_one, np.zeros((2, 3, 3))):
            _within_horn_bound(m, _rotation_trace_by_lu(m))
        assert (max_rotation_trace(np.zeros((2, 3, 3))) == 0.0).all()

    def test_near_singular(self):
        rng = np.random.default_rng(49)
        cases = []
        for tiny in (1e-16, -1e-16, 1e-8, -1e-100):
            for perm in itertools.permutations(range(3)):
                for signs in itertools.product((1.0, -1.0), repeat=3):
                    cases.append(np.diag(np.array([1.0, 0.5, tiny]) * signs)[list(perm)])
        rank_two = rng.standard_normal((400, 3, 2)) @ rng.standard_normal((400, 2, 3))
        for m in (np.array(cases), rank_two + 1e-9 * rng.standard_normal((400, 3, 3)),
                  rank_two + 1e-13 * rng.standard_normal((400, 3, 3))):
            _within_horn_bound(m, _rotation_trace_by_lu(m))

    def test_channel_at_the_characteristic_time(self):
        # T is diagonal up to rounding, and its first entry is ~1e-16 here
        t = pauli_decompose(channel_rho4(np.array([0.1, 0.5, 1.0, 2.0, 3.0]), SQRT_HALF))
        t = t[..., 1:, 1:]
        assert abs(t[2, 0, 0]) < 1e-15
        _within_horn_bound(-t, _rotation_trace_by_lu(-t))

    def test_integer_matrices(self):
        # against the exact sign of det M, 250 of them singular
        rng = np.random.default_rng(50)
        m = rng.integers(-3, 4, size=(500, 3, 3)).astype(float)
        m[:250, 2] = m[:250, 0] + m[:250, 1]
        sv = np.linalg.svd(m, compute_uv=False)
        exact = np.array([_exact_det(x) for x in m])
        assert (exact[:250] == 0).all() and (exact[250:] != 0).any()
        _within_horn_bound(m, sv[:, 0] + sv[:, 1] + np.where(exact >= 0, sv[:, 2], -sv[:, 2]))

    def test_exact_on_integer_diagonal_matrices(self):
        d = np.random.default_rng(52).integers(-5, 6, size=(1000, 3)).astype(float)
        s = -np.sort(-np.abs(d), axis=1)
        want = s[:, 0] + s[:, 1] + np.where(np.prod(d, axis=1) >= 0, s[:, 2], -s[:, 2])
        assert max_rotation_trace(d[:, :, None] * np.eye(3)).tobytes() == want.tobytes()

    def test_exact_on_signed_permutations(self):
        # a rotation's optimum is O = M^T, 3; a reflection's is 1
        cases = [np.eye(3)[list(perm)] * np.array(signs)[:, None]
                 for perm in itertools.permutations(range(3))
                 for signs in itertools.product((1.0, -1.0), repeat=3)]
        m = np.array(cases)
        want = np.where(np.array([_exact_det(x) for x in m]) > 0, 3.0, 1.0)
        assert max_rotation_trace(m).tobytes() == want.tobytes()


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

    def test_scheme_optimum_equals_lqcc_optimum(self):
        # max over correction remappings of the exact scheme average
        # reproduces the rotation-optimal fidelity at every decay time
        for alpha in (0.5, 1.0):
            for r in (0.2, 0.6, SQRT_HALF, 0.9):
                rho = channel_rho4(alpha, r)
                best = max(average_fidelity_reference(rho, remap)
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

    def test_pure_channel_floor(self):
        # S is not clamped: on the pure channel states it reads its density's
        # rounding, -11.9 to +13.5 eps / N_theta over these amplitudes (-2.3e-13
        # at alpha ~ 0.011).  Pinned with a margin of 5 eps / N_theta.
        alpha = np.geomspace(1e-2, 16.0, 400)
        s = linear_entropy(channel_rho4(alpha, 0.0))
        scaled = s * -np.expm1(-4.0 * alpha * alpha) / np.finfo(float).eps
        assert s.min() < 0.0
        assert -16.0 <= scaled.min() and scaled.max() <= 18.5

    def test_range_on_mixed_channel(self):
        rho = channel_rho4(1.0, 0.5)
        assert 0.0 <= linear_entropy(rho) <= 0.75
        assert vn_entropy(rho) >= 0.0

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
    # the margin at r = 0.9995 underflows past alpha = 13.6406...: 13.64 is the last
    # amplitude of two decimals it accepts, and the guards hold the refusal at 13.65
    @pytest.mark.parametrize("alpha", [0.1, 1.0, 2.0, 13.64])
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

    def test_below_the_classical_limit_exactly_past_the_characteristic_time(self):
        # the abstract's third claim: f < 2/3 exactly when r > 1/sqrt(2),
        # wherever the margin does not underflow to 0
        r = np.linspace(0.0, 1.0, 2002)[1:-1]
        late = r > SQRT_HALF
        zeros = 0
        for alpha in np.logspace(-2.0, math.log10(14.0), 120):
            margin = em._fidelity_margin(float(alpha), r)
            read = margin != 0.0
            assert np.array_equal(margin[read] < 0.0, late[read]), alpha
            if not read.all():  # both terms below the least double: large alpha, r near 1
                assert alpha > 13.5 and r[~read].min() > 0.97, alpha
            zeros += np.count_nonzero(~read)
        assert zeros < 100


class TestMixednessPeak:
    def test_both_entropies_peak_together(self):
        # acceptance check 4's two errors, over more amplitudes than it takes
        for alpha in np.linspace(0.1, 2.0, 20):
            r_lin = mixedness_peak(float(alpha), "linear")
            r_vn = mixedness_peak(float(alpha), "vn")
            assert abs(r_lin - SQRT_HALF) < 1e-6, alpha
            assert abs(r_vn - r_lin) < 1e-6, alpha


CLOSED_FORMS = [(closed_form_e, negativity_e), (closed_form_f, optimal_fidelity),
                (closed_form_s, linear_entropy)]


class TestBatches:
    def test_linear_entropy_within_two_ulps_of_the_matrix_product(self):
        # counted at the larger term of 1 - tr(rho^2)
        rng = np.random.default_rng(51)
        m = random_density(rng, (2000,)).matrix
        mix = rng.uniform(0.0, 1.0, (2000, 1, 1))
        grid = channel_rho4(np.array([0.1, 1.0, 2.0, 3.0]), np.linspace(0.0, 0.999, 500)).matrix
        for rho in (TwoQubitDensity(mix * m + (1.0 - mix) * np.eye(4) / 4.0),
                    TwoQubitDensity(grid)):
            purity = np.trace(rho.matrix @ rho.matrix, axis1=-2, axis2=-1).real
            want = 1.0 - purity
            ulp = np.spacing(np.maximum(purity, want))
            assert (np.abs(linear_entropy(rho) - want) <= 2.0 * ulp).all()

    @pytest.mark.parametrize("closed,numeric",
                             CLOSED_FORMS + [(closed_form_vst, pauli_decompose)])
    @pytest.mark.parametrize("alpha_shape,r_shape",
                             [((2,), (3,)), ((2, 2), (3,)), ((2,), (2, 3)), ((2,), ()), ((), (3,))],
                             ids=["2-3", "2x2-3", "2-2x3", "2-scalar", "scalar-3"])
    def test_closed_form_has_the_shape_of_the_numeric_route(self, closed, numeric,
                                                             alpha_shape, r_shape):
        alphas = np.linspace(0.5, 2.0, math.prod(alpha_shape)).reshape(alpha_shape)
        r = np.linspace(0.1, 0.9, math.prod(r_shape)).reshape(r_shape)
        got, want = closed(alphas, r), numeric(channel_rho4(alphas, r))
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(got - want)) < 1e-9


class TestRealDensity:
    """A real density is measured as the same density held as complex."""

    # LAPACK's real and complex symmetric solvers round differently: their
    # eigenvalues lie up to 6 eps apart on these densities (norm <= 1), and
    # 8 eps is allowed.  E takes twice the one negative eigenvalue of the
    # partial transpose.  vn_entropy keeps each eigenvalue l > 4 eps lambda_max
    # >= eps, whose -l log2 l moves by at most (|log2 l| + 1.45) |dl| < 54 |dl|;
    # one that a solver keeps and the other drops is under 12 eps, its term
    # under 600 eps.  The bound, 1344 eps, is not the sum of those worst cases
    # but 6.6 times the 204 eps these densities read.
    @pytest.mark.parametrize("metric,bound", [(negativity_e, 2 * 8 * np.finfo(float).eps),
                                              (vn_entropy, 4 * 42 * 8 * np.finfo(float).eps)])
    def test_within_the_solvers_rounding(self, metric, bound):
        real = real_densities()
        cplx = TwoQubitDensity(real.matrix.astype(complex))
        assert np.max(np.abs(metric(real) - metric(cplx))) <= bound


# Accuracy envelope of the numeric route against the closed forms: max
# |numeric - closed| for E, f and S over 400 r in [0, 0.995], on LOG_ALPHAS,
# a half-decade grid of alpha over the CLI's range.  Each band's bounds are under 3x the
# largest error the route showed in that band when they were set.  The error
# grows as ~alpha^-2 below alpha ~ 0.3 and, for E and S, rises again from
# alpha ~ 3 to 100.
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
    alphas = LOG_ALPHAS[(LOG_ALPHAS >= lo * 0.999) & (LOG_ALPHAS <= hi * 1.001)]
    assert len(alphas) >= 1
    r = np.linspace(0.0, 0.995, 400)
    for alpha in alphas:
        rho = channel_rho4(float(alpha), r)
        tols = (e_tol, f_tol, s_tol)
        for (closed, numeric), tol in zip(CLOSED_FORMS, tols):
            err = np.max(np.abs(numeric(rho) - closed(float(alpha), r)))
            assert err <= tol, (closed.__name__, alpha, err)


# The numeric route's error model, eps (ERROR_K / N_theta + ERROR_C) with S's
# own constants, is stated in reference.py.  Each quantity is checked on three
# grids, so a failure names both: "model", 25 alpha in [1e-3, 2]; "spot", the
# points the closed forms were first checked at; and "overflow", alpha = 14
# (where e^{4 alpha^2} overflows) and 1e6.
MODEL_GRIDS = {"model": np.geomspace(1e-3, 2.0, 25),
               "spot": np.array([0.1, 0.2, 0.4, 1.0, 1.7, 1.8]),
               "overflow": np.array([14.0, 1e6])}
MODEL_R = np.concatenate((np.linspace(0.0, 0.995, 1200), np.linspace(0.0, 0.99, 12),
                          [0.3, 0.4, 0.5, 0.6, 0.8, 0.85, 0.9, SQRT_HALF]))
# name: (K, C, the numeric and closed values at each (alpha, r))
MODEL_ERRORS = {
    "E": (ERROR_K, ERROR_C, lambda rho, a, r: (negativity_e(rho), closed_form_e(a, r))),
    "f": (ERROR_K, ERROR_C, lambda rho, a, r: (optimal_fidelity(rho), closed_form_f(a, r))),
    "Pauli": (ERROR_K, ERROR_C, lambda rho, a, r: (pauli_decompose(rho), closed_form_vst(a, r))),
    "trace": (ERROR_K, ERROR_C, lambda rho, a, r: (rho.matrix.trace(axis1=-2, axis2=-1), 1.0)),
    "S": (S_ERROR_K, S_ERROR_C, lambda rho, a, r: (linear_entropy(rho), closed_form_s(a, r))),
}


@functools.cache
def _model_rho(grid):
    return channel_rho4(MODEL_GRIDS[grid], MODEL_R)


@pytest.mark.parametrize("grid", list(MODEL_GRIDS))
@pytest.mark.parametrize("name", list(MODEL_ERRORS))
def test_numeric_route_error_model(name, grid):
    k, c, values = MODEL_ERRORS[name]
    alphas = MODEL_GRIDS[grid]
    numeric, closed = values(_model_rho(grid), alphas, MODEL_R)
    err = np.abs(numeric - closed).reshape(len(alphas), -1).max(axis=1)
    bound = EPS * (k / -np.expm1(-4.0 * alphas * alphas) + c)
    assert (err <= bound).all(), (alphas[err > bound], (err / bound).max())


def test_negativity_is_never_lost_at_alpha_3():
    # The channel stays entangled at every r < 1.  Wherever E >= 1e-14 on this
    # grid, e_numeric is non-zero and within the error model of e_closed, and
    # e_closed is within 1e-13 relative of the stated form at 400 digits.
    out = cli.render(["fig2a", "--alphas", "3", "--r-steps", "200", "--r-max", "0.999"])
    r, closed, numeric = np.array([[float(v) for v in line.split(",")[1:]]
                                   for line in out.splitlines()[1:]]).T
    seen = closed >= 1e-14
    assert seen.sum() == 189
    assert (numeric[seen] > 0.0).all()
    bound = EPS * (ERROR_K / -math.expm1(-36.0) + ERROR_C)
    assert np.abs(numeric - closed)[seen].max() <= bound
    for x, e in zip(r[seen][::8].tolist(), closed[seen][::8].tolist()):
        want = float(decimal_channel(3.0, x).e)
        assert abs(e - want) <= 1e-13 * want, (x, e, want)


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
    alphas = LOG_ALPHAS[(LOG_ALPHAS >= lo * 0.999) & (LOG_ALPHAS <= hi * 1.001)]
    assert len(alphas) >= 1
    r = np.linspace(0.0, 0.995, 400)
    got = pauli_decompose(channel_rho4(alphas, r))
    for a, alpha in enumerate(alphas.tolist()):
        want = closed_form_vst(alpha, r)
        for name, part, tol in (("v", np.s_[..., 1:, 0], vs_tol), ("s", np.s_[..., 0, 1:], vs_tol),
                                ("t", np.s_[..., 1:, 1:], t_tol)):
            err = np.max(np.abs(got[a][part] - want[part]))
            assert err <= tol, (name, alpha, err)


# Points where W = exp(-4 t^2 alpha^2) is a normal float: past
# 4 t^2 alpha^2 ~ 708 sqrt(W), and with it the Bloch entry, loses bits to
# underflow.  At (3, 0.99), (3, 0.9995), (5, 0.95) and (10, 0.9) the stated
# T_22 = (-a + d) / (2 N_theta) is 3% or wholly off in floats.  Then at
# alpha = 14, r = 0.001 and 0.2, W underflows but sqrt(W) does not: the Bloch
# entry is 4.5e-174 and 3.7e-164 there.  At alpha = 1e-3, r = 0.71 and 0.67,
# W - gamma is ~1e-6 of either: as a difference of two exps, T_11 was 2.3e-9
# and f 1.4e-11 off.  The referee takes the code's own floats r * r and t * t,
# so it tests the forms and not the clock.
DECIMAL_POINTS = ([(a, r) for a in (0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0)
                   for r in (0.05, 0.5, 0.9, 0.99)]
                  + [(14.0, 0.5), (14.0, 0.7), (14.0, 0.9), (3.0, 0.9995), (5.0, 0.95)]
                  + [(14.0, 0.001), (14.0, 0.2), (1e-3, 0.71), (1e-3, 0.67)])


def test_pauli_coordinates_and_margin_match_a_decimal_evaluation():
    for alpha, r in DECIMAL_POINTS:
        c = closed_form_vst(alpha, r)
        got = (c[1, 0], c[0, 1], c[1, 1], c[2, 2], c[3, 3], em._fidelity_margin(alpha, r),
               closed_form_f(alpha, r))
        ref = decimal_channel(alpha, r, float_squares=True)
        for name, x, want in zip(("v", "s", "t11", "t22", "t33", "margin", "f"), got,
                                 (ref.bloch, ref.bloch, *ref.t_diag, ref.margin, ref.f)):
            assert abs(float(x) - float(want)) <= 1e-12 * abs(float(want)), (name, alpha, r, x)


# r alpha of order 1 at large alpha, where gamma = exp(-4 r^2 alpha^2) is
# neither 0 nor 1 but t = sqrt(1 - r^2) rounds r^2 away, then three points
# of the figures' range
DECAY_EXPONENT_POINTS = ([(a, k / a) for a in (1e2, 1e3, 1e4, 1e6) for k in (0.5, 1.0, 2.0)]
                         + [(30.0, 0.03), (14.0, 0.5), (3.0, 0.99)])


def _route_errors(alpha: float, r: float) -> dict:
    """Relative error of both routes' E, f and S against the referee on exact
    squares; the numeric E only where E >= 1e-6, clear of the eigenvalue clamp."""
    rho, errors, ref = channel_rho4(alpha, r), {}, decimal_channel(alpha, r)
    for (closed, numeric), want in zip(CLOSED_FORMS, (ref.e, ref.f, ref.s)):
        want = float(want)
        errors[closed.__name__] = abs(closed(alpha, r) / want - 1.0)
        if numeric is not negativity_e or want >= 1e-6:
            errors[numeric.__name__] = abs(numeric(rho) / want - 1.0)
    return errors


@pytest.mark.parametrize("alpha,r", DECAY_EXPONENT_POINTS)
def test_both_routes_match_a_decimal_evaluation_where_t_rounds_r_away(alpha, r):
    errors = _route_errors(alpha, r)
    assert max(errors.values()) <= 1e-12, errors


def test_a_decay_exponent_of_one_minus_t_squared_fails_the_decimal_check(monkeypatch):
    # a mutant decohere, damping by 1 - t * t of from_r's t instead of r * r
    decohere = dec.decohere
    monkeypatch.setattr(dec, "decohere",
                        lambda rho, clock: decohere(rho, dec.DecayClock(clock.t)))
    worst = max(_route_errors(alpha, r)["linear_entropy"] for alpha, r in DECAY_EXPONENT_POINTS)
    assert worst > 1e-12


# Every closed form of the library, and the helpers only they call.
CLOSED_FORM_NAMES = ("channel_coefficients", "closed_form_vst", "closed_form_e",
                     "closed_form_f", "closed_form_s", "_fidelity_margin",
                     "misid_probability_closed", "concentration_success_closed_form")


def test_numeric_route_calls_no_closed_form(monkeypatch):
    # the numeric route (coherent algebra, projection, metric) is the
    # independent oracle for the closed forms: with every binding of a closed
    # form, in every loaded ecsim module, replaced by one that fails, it runs
    called = []

    def forbidden(name):
        def call(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"the numeric route called {name}")
        return call

    bound = set()
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "ecsim":
            continue
        for name in CLOSED_FORM_NAMES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))
                bound.add(name)
    assert bound == set(CLOSED_FORM_NAMES)

    rho = channel_rho4(np.array([0.4, 1.0, 2.5]), np.linspace(0.0, 0.99, 7))
    assert rho.matrix.shape == (3, 7, 4, 4)
    for metric in (negativity_e, singlet_fraction, optimal_fidelity, linear_entropy,
                   vn_entropy):
        assert np.isfinite(metric(rho)).all()
    assert np.isfinite(pauli_decompose(rho)).all()
    assert np.isfinite(pr.average_fidelity(pr.bloch_transfer(rho))).all()
    state = bell_state(1, make_basis(1.0, 1.0))
    assert 0.0 < pr.bell_measure_distribution(state).misidentification() < 0.5
    assert 0.0 < pr.concentrate_exact(1.0, 0.3).success_probability < 1.0
    assert np.isfinite(pr.concentrate_ideal(np.array([0.3, 0.7]))).all()
    assert mixedness_peak(1.0, "vn") == pytest.approx(SQRT_HALF, abs=1e-6)
    assert called == []
