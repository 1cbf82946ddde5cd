"""Logical basis, Bell states, logical projections, Pauli decomposition."""
import math

import numpy as np
import pytest

from ecsim.coherent_states import CoherentSuperposition, dyad_from_pure, inner, norm
from ecsim import qubit_encoding
from ecsim.decoherence import channel_rho4
from ecsim.errors import DensityError
from ecsim.qubit_encoding import (
    BELL_VECTORS,
    LogicalBasis,
    TwoQubitDensity,
    bell_state,
    logical_coords,
    make_basis,
    pauli_decompose,
    pauli_reconstruct,
    project_to_density,
)
from reference import (BASIS_AMPLITUDES, operator_sum, pauli_reference, psi_minus, psi_plus,
                       random_density)

SQ2 = math.sqrt(2.0)


def to_logical_vector(state: CoherentSuperposition, basis: LogicalBasis) -> np.ndarray:
    """Project a two-mode state onto the logical product basis (4-vector)."""
    if state.modes != 2:
        raise ValueError("expected a two-mode state")
    c0, c1 = logical_coords(state.amps, basis).transpose(1, 0, 2)
    return np.einsum("t,ti,tj->ij", state.coeffs, c0, c1).reshape(4)


class TestMakeBasis:
    def test_unit_alpha(self):
        b = make_basis(1.0, 1.0)
        assert b.sin2theta == pytest.approx(math.exp(-2.0), abs=1e-15)
        assert b.n_theta == pytest.approx(1.0 - math.exp(-4.0), abs=1e-15)

    @pytest.mark.parametrize("alpha,t", [(0.3, 1.0), (1.0, 0.8), (2.0, 0.2), (0.1, 0.4)])
    def test_orthonormal(self, alpha, t):
        b = make_basis(alpha, t)
        p, m = psi_plus(b), psi_minus(b)
        assert inner(p, p).real == pytest.approx(1.0, abs=1e-12)
        assert inner(m, m).real == pytest.approx(1.0, abs=1e-12)
        assert abs(inner(p, m)) < 1e-12

    def test_small_but_valid(self):
        # 1 - exp(-4 * 0.05^2 * 0.1^2) ~ 1e-4, well above the guard floor
        b = make_basis(0.1, 0.05)
        assert b.n_theta > 1e-5

    def test_pair_norm_identity(self):
        # cos th |ta> - sin th |-ta| has norm sqrt(cos^2 2th) exactly
        rng = np.random.default_rng(21)
        for _ in range(20):
            b = make_basis(rng.uniform(0.2, 2.0), rng.uniform(0.3, 1.0))
            a = b.amplitude
            cos, sin = b.cos_sin.tolist()
            s = cos * CoherentSuperposition.ket(a) + (-1.0) * (sin * CoherentSuperposition.ket(-a))
            assert norm(s) == pytest.approx(math.sqrt(b.n_theta), abs=1e-12)


class TestBellStates:
    def test_b4_coherent_form(self):
        b = make_basis(0.8, 1.0)
        a = b.amplitude
        explicit = (1.0 / math.sqrt(2.0 * b.n_theta)) * (
            CoherentSuperposition.ket(a, -a) + (-1.0) * CoherentSuperposition.ket(-a, a)
        )
        assert abs(inner(bell_state(4, b), explicit) - 1.0) < 1e-12

    def test_b1_coefficients(self):
        b = make_basis(1.0, 1.0)
        a = b.amplitude
        state = bell_state(1, b)
        coeffs = {}
        for coeff, amps in zip(state.coeffs.tolist(), state.amps.tolist()):
            key = (round(amps[0].real, 6), round(amps[1].real, 6))
            coeffs[key] = coeff
        lead = 1.0 / (SQ2 * b.n_theta)
        assert coeffs[(a, a)] == pytest.approx(lead, abs=1e-12)
        assert coeffs[(-a, -a)] == pytest.approx(lead, abs=1e-12)
        assert coeffs[(a, -a)] == pytest.approx(-b.sin2theta * lead, abs=1e-12)
        assert coeffs[(-a, a)] == pytest.approx(-b.sin2theta * lead, abs=1e-12)

    @pytest.mark.parametrize("alpha,t", [(0.5, 1.0), (1.0, 1.0), (1.0, 0.6), (2.0, 1.0)])
    def test_orthonormal_family(self, alpha, t):
        b = make_basis(alpha, t)
        states = [bell_state(k, b) for k in (1, 2, 3, 4)]
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                want = 1.0 if i == j else 0.0
                assert inner(si, sj) == pytest.approx(want, abs=1e-10)

    def test_logical_projection_is_ideal(self):
        b = make_basis(0.7, 0.9)
        for k in (1, 2, 3, 4):
            vec = to_logical_vector(bell_state(k, b), b)
            assert np.max(np.abs(vec - BELL_VECTORS[k - 1])) < 1e-12

    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 1.0, 2.5, 30.0, 1e6])
    @pytest.mark.parametrize("t", [1.0, 0.3])
    def test_b4_has_the_two_mixed_terms(self, alpha, t):
        # channel_rho4 stacks the B4 dyads of all amplitudes in one array:
        # the coefficients on (ta, ta) and (-ta, -ta) cancel exactly, and
        # those on the mixed kets never vanish
        a = t * alpha
        assert bell_state(4, make_basis(alpha, t)).amps.tolist() == [[a, -a], [-a, a]]


class TestBellCoeffs:
    @pytest.mark.parametrize("t", [1.0, 0.3])
    def test_the_pair_keeps_its_identities(self, t):
        # formed without the angle, the pair keeps cos^2 + sin^2 = 1, 2 sin cos =
        # sin 2theta and cos^2 - sin^2 = cos 2theta = sqrt(N_theta) to a few eps
        # from the degeneracy floor to 1e6; the cosine and sine of
        # 1/2 arcsin(sin 2theta) miss the last by up to 2.7e5 eps
        basis = make_basis(BASIS_AMPLITUDES / t, t)
        (cos, sin), s2 = basis.cos_sin, basis.sin2theta
        eps = np.finfo(float).eps
        assert np.abs(cos * cos + sin * sin - 1.0).max() <= 2.0 * eps
        normal = s2 >= np.finfo(float).tiny
        assert normal.any() and not normal.all()
        assert (np.abs(2.0 * sin * cos - s2) <= 2.0 * eps * s2)[normal].all()
        assert np.abs(cos * cos - sin * sin - np.sqrt(basis.n_theta)).max() <= 4.0 * eps


class TestQubitVector:
    def test_normalized_input_needs_no_rescale(self):
        # for a unit-norm coherent state the raw logical pair is unit-norm
        b = make_basis(0.9, 1.0)
        aa, bb = 0.37, -0.61
        s = aa * CoherentSuperposition.ket(b.amplitude) + bb * CoherentSuperposition.ket(
            -b.amplitude
        )
        n = norm(s)
        aa, bb = aa / n, bb / n
        c, sn = b.cos_sin.tolist()
        raw = abs(aa * c + bb * sn) ** 2 + abs(aa * sn + bb * c) ** 2
        assert raw == pytest.approx(1.0, abs=1e-12)


class TestDensityProjection:
    def test_pure_bell_is_rank_one(self):
        b = make_basis(1.0, 1.0)
        rho = project_to_density(dyad_from_pure(bell_state(4, b)), b)
        eigs = sorted(np.linalg.eigvalsh(rho.matrix))
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert abs(eigs[0]) < 1e-12

    def test_trace_preserved_for_mixtures(self):
        b = make_basis(0.8, 1.0)
        op = operator_sum((1.0 / 1.5, dyad_from_pure(bell_state(2, b))),
                          (0.5 / 1.5, dyad_from_pure(bell_state(4, b))))
        m = project_to_density(op, b).matrix
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)


class TestPauli:
    def test_pure_singlet_like_channel(self):
        b = make_basis(1.0, 1.0)
        rho = project_to_density(dyad_from_pure(bell_state(4, b)), b)
        c = pauli_decompose(rho)
        assert np.max(np.abs(c[1:, 0])) < 1e-12
        assert np.max(np.abs(c[0, 1:])) < 1e-12
        assert np.max(np.abs(c[1:, 1:] - np.diag([-1.0, -1.0, -1.0]))) < 1e-12

    def test_maximally_mixed(self):
        rho = TwoQubitDensity(np.eye(4) / 4.0)
        c = pauli_decompose(rho)
        assert np.max(np.abs(c[1:, 0])) < 1e-14
        assert np.max(np.abs(c[0, 1:])) < 1e-14
        assert np.max(np.abs(c[1:, 1:])) < 1e-14

    def test_round_trip_random(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            rho = random_density(rng)
            back = pauli_reconstruct(pauli_decompose(rho))
            assert np.max(np.abs(back - rho.matrix)) < 1e-10

    def test_round_trip_batch(self):
        rng = np.random.default_rng(25)
        mats = [random_density(rng).matrix for _ in range(6)]
        batch = TwoQubitDensity(np.stack(mats).reshape(2, 3, 4, 4))
        c = pauli_decompose(batch)
        assert c.shape == (2, 3, 4, 4)
        assert np.max(np.abs(pauli_reconstruct(c) - batch.matrix)) < 1e-14

    def test_a_flipped_sign_fails(self, monkeypatch):
        rho = random_density(27, (4,))
        want = pauli_reference(rho).tobytes()
        signs = qubit_encoding._PAULI_SIGN
        for k in range(signs.size):
            mutant = signs.copy()
            mutant.flat[k] *= -1.0
            monkeypatch.setattr(qubit_encoding, "_PAULI_SIGN", mutant)
            assert pauli_decompose(rho).tobytes() != want, k


class TestDensityValidation:
    def test_halving_has_the_complex_division_values(self):
        # the Hermitian sum is halved part by part, not divided by 2 + 0j:
        # the same values, and the same bits wherever a part is non-zero
        rng = np.random.default_rng(30)
        parts = 0.01 * rng.standard_normal((300, 4, 4, 2))
        zero = rng.random(parts.shape) < 0.3  # parts of +-0, either sign
        parts[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
        parts[:, range(4), range(4), 0] = 0.25
        parts[:, range(4), range(4), 1] = np.where(rng.random((300, 4)) < 0.5, -0.0, 0.0)
        m = parts.view(complex)[..., 0]
        m = np.where(np.tril(np.ones((4, 4), bool), -1), np.conjugate(m.swapaxes(-1, -2)), m)
        old = np.conjugate(m.swapaxes(-1, -2)) + m
        old /= 2
        got = TwoQubitDensity(m).matrix
        assert np.array_equal(got, old)
        parts, old_parts = got.view(float), old.view(float)
        nonzero = old_parts != 0.0
        assert nonzero.any() and not nonzero.all()
        assert parts[nonzero].tobytes() == old_parts[nonzero].tobytes()

    @pytest.mark.parametrize("lam_min,accepted", [(-0.5e-10, True), (-2e-10, False)])
    def test_positivity_threshold(self, lam_min, accepted):
        rng = np.random.default_rng(31)
        for real in (False, True):
            m = _density_with_min_eigenvalue(rng, lam_min, real)
            assert _accepted(m) is accepted
            batch = np.stack([np.eye(4) / 4.0, m, channel_rho4(1.0, 0.4).matrix])
            assert batch.dtype == m.dtype and _accepted(batch) is accepted

    def test_verdict_matches_eigvalsh_near_threshold(self):
        # smallest eigenvalue -1e-10 (1 +- d), d in [0.01, 0.9]: far outside
        # the ~1e-16 rounding of the construction and of the factorization
        rng = np.random.default_rng(32)
        inside, outside = [], []
        for side in (-1.0, 1.0) * 100:
            m = _density_with_min_eigenvalue(rng, -1e-10 * (1.0 + side * rng.uniform(0.01, 0.9)))
            verdict = bool(np.linalg.eigvalsh(m).min() >= -1e-10)
            assert verdict is (side < 0)
            assert _accepted(m) is verdict
            (inside if verdict else outside).append(m)
        assert _accepted(np.stack(inside))
        for m in outside[:5]:
            assert not _accepted(np.stack(inside[:7] + [m] + inside[7:]))

    def test_verdict_matches_eigvalsh_on_channel_densities(self):
        # acceptance check 2's grid, one batch per amplitude ...
        mats = [channel_rho4(float(alpha), np.linspace(0.0, 0.95, 20)).matrix
                for alpha in np.linspace(0.1, 2.0, 20)]
        # ... and property suite 10.4's 1000 draws, in its order
        rng = np.random.default_rng(304)
        for _ in range(1000):
            alpha = rng.uniform(0.1, 2.0)
            mats.append(channel_rho4(alpha, rng.uniform(0.0, 0.97)).matrix[None])
        mats = np.concatenate(mats)
        assert mats.shape == (1400, 4, 4)
        assert np.linalg.eigvalsh(mats).min() >= -1e-10
        assert all(_accepted(m) for m in mats)


class TestRealDensity:
    @pytest.mark.parametrize("given,kept", [(np.float64, np.float64), (np.complex128, np.complex128),
                                            (np.int64, np.float64), (np.int32, np.float64)])
    def test_dtype(self, given, kept):
        one = np.diag([1, 0, 0, 0]).astype(given)
        assert TwoQubitDensity(one).matrix.dtype == kept
        assert TwoQubitDensity(np.stack([one, one[::-1, ::-1]])).matrix.dtype == kept

    def test_the_channel_density_is_real(self):
        assert channel_rho4(1.0, np.linspace(0.0, 0.9, 5)).matrix.dtype == np.float64


def _accepted(m) -> bool:
    try:
        TwoQubitDensity(m)
    except DensityError:
        return False
    return True


def _density_with_min_eigenvalue(rng, lam_min, real=False):
    """Unit-trace Hermitian Q diag(l) Q^dag with a random unitary Q (orthogonal
    if ``real``), smallest eigenvalue ``lam_min`` and the other three in
    [0.125, 0.75]."""
    g = rng.standard_normal((4, 4))
    if not real:
        g = g + 1j * rng.standard_normal((4, 4))
    q = np.linalg.qr(g)[0]
    rest = (0.2 + rng.dirichlet(np.ones(3))) / 1.6 * (1.0 - lam_min)
    m = (q * np.concatenate(([lam_min], rest))) @ q.conj().T
    return (m + m.conj().T) / 2.0
