"""Negativity, singlet fraction, fidelity, and entropy functionals."""
import math
import sys

import numpy as np
import pytest

from ecsim import cli
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
    TwoQubitDensity,
    bell_state,
    make_basis,
    pauli_decompose,
)
from reference import SIGNED_PERMUTATIONS, exact_det, random_density

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


class TestSingletFraction:
    def test_pure_channel(self):
        assert singlet_fraction(channel_rho4(0.8, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert singlet_fraction(TwoQubitDensity(np.eye(4) / 4.0)) == pytest.approx(
            0.25, abs=1e-12
        )


class TestHornEigenvalue:
    """``max_rotation_trace`` is the largest eigenvalue of Horn's 4x4 K(M),
    exact on integer diagonal and signed-permutation matrices; its stated
    bound against the singular values is held by the ``horn-*`` rows of
    test_accuracy.py."""

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

    def test_exact_on_integer_diagonal_matrices(self):
        d = np.random.default_rng(52).integers(-5, 6, size=(1000, 3)).astype(float)
        s = -np.sort(-np.abs(d), axis=1)
        want = s[:, 0] + s[:, 1] + np.where(np.prod(d, axis=1) >= 0, s[:, 2], -s[:, 2])
        assert max_rotation_trace(d[:, :, None] * np.eye(3)).tobytes() == want.tobytes()

    def test_exact_on_signed_permutations(self):
        # a rotation's optimum is O = M^T, 3; a reflection's is 1
        want = np.where(np.array([exact_det(x) for x in SIGNED_PERMUTATIONS]) > 0, 3.0, 1.0)
        assert max_rotation_trace(SIGNED_PERMUTATIONS).tobytes() == want.tobytes()


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
        # where f rounds to 2/3 the margin keeps its sign; its bound against
        # f - 2/3 is the fidelity-margin row of test_accuracy.py
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


def test_negativity_is_never_lost_at_alpha_3():
    # The channel stays entangled at every r < 1: wherever E >= 1e-14 on this
    # grid, e_numeric is non-zero.  Its bound against e_closed, and e_closed's
    # against the stated form, are rows of test_accuracy.py (fig2a-alpha-3 and
    # referee-E-alpha-3).
    out = cli.render(["fig2a", "--alphas", "3", "--r-steps", "200", "--r-max", "0.999"])
    closed, numeric = np.array([[float(v) for v in line.split(",")[2:]]
                                for line in out.splitlines()[1:]]).T
    seen = closed >= 1e-14
    assert seen.sum() == 189
    assert (numeric[seen] > 0.0).all()


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
