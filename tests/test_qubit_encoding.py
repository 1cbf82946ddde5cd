"""Logical basis, Bell states, logical projections, Pauli decomposition."""
import math
from dataclasses import dataclass

import numpy as np
import pytest

from ecsim.coherent_states import (
    CoherentOperator,
    CoherentSuperposition,
    consolidate,
    dyad_from_pure,
    inner,
    norm,
    tensor,
)
from ecsim.decoherence import DecayClock, channel_rho4, decohere
from ecsim.errors import DegenerateBasisError, DensityError, SpanError
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

SQ2 = math.sqrt(2.0)


@dataclass(frozen=True)
class QubitVector:
    """Unit vector in the logical basis: plus * Psi+ + minus * Psi-."""

    plus: complex
    minus: complex

    def __post_init__(self):
        n2 = abs(self.plus) ** 2 + abs(self.minus) ** 2
        if abs(n2 - 1.0) > 1e-12:
            raise ValueError(f"qubit vector norm^2 = {n2!r}, expected 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.plus, self.minus], dtype=complex)


def _on_pair(basis: LogicalBasis, plus: float, minus: float) -> CoherentSuperposition:
    """plus |ta> + minus |-ta>."""
    a = basis.amplitude
    return CoherentSuperposition(
        np.array([plus, minus], dtype=complex), np.array([[a], [-a]], dtype=complex)
    )


def psi_plus(basis: LogicalBasis) -> CoherentSuperposition:
    """|Psi+> = (cos th |ta> - sin th |-ta>) / sqrt(N_theta)."""
    c = 1.0 / math.sqrt(basis.n_theta)
    return _on_pair(basis, c * math.cos(basis.theta), -c * math.sin(basis.theta))


def psi_minus(basis: LogicalBasis) -> CoherentSuperposition:
    """|Psi-> = (-sin th |ta> + cos th |-ta>) / sqrt(N_theta)."""
    c = 1.0 / math.sqrt(basis.n_theta)
    return _on_pair(basis, -c * math.sin(basis.theta), c * math.cos(basis.theta))


def to_logical_vector(state: CoherentSuperposition, basis: LogicalBasis) -> np.ndarray:
    """Project a two-mode state onto the logical product basis (4-vector)."""
    if state.modes != 2:
        raise ValueError("expected a two-mode state")
    c0, c1 = logical_coords(state.amps, basis).transpose(1, 0, 2)
    return np.einsum("t,ti,tj->ij", state.coeffs, c0, c1).reshape(4)


def _bell_reference(k, basis):
    """Bell state k as the consolidated sum of tensor products of psi_plus
    and psi_minus."""
    p, m = psi_plus(basis), psi_minus(basis)
    first, second = (tensor(p, p), tensor(m, m)) if k < 3 else (tensor(p, m), tensor(m, p))
    return consolidate((1.0 / SQ2) * (first + second if k % 2 else first - second))


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

    def test_degeneracy_guard(self):
        with pytest.raises(DegenerateBasisError):
            make_basis(1e-4, 1e-3)  # 1 - exp(-4 t^2 a^2) ~ 4e-14

    def test_small_but_valid(self):
        # 1 - exp(-4 * 0.05^2 * 0.1^2) ~ 1e-4, well above the guard floor
        b = make_basis(0.1, 0.05)
        assert b.n_theta > 1e-5

    def test_array_t(self):
        t = np.array([1.0, 0.7, 0.3])
        b = make_basis(0.9, t)
        for i, ti in enumerate(t):
            one = make_basis(0.9, float(ti))
            assert (b.theta[i], b.n_theta[i], b.amplitude[i]) == (
                one.theta, one.n_theta, one.amplitude
            )
        with pytest.raises(DegenerateBasisError):
            make_basis(1e-4, np.array([1.0, 1e-3]))
        with pytest.raises(ValueError):
            make_basis(1.0, np.array([0.5, 1.5]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_basis(-1.0, 1.0)
        with pytest.raises(ValueError):
            make_basis(1.0, 0.0)
        with pytest.raises(ValueError):
            make_basis(1.0, 1.5)

    def test_pair_norm_identity(self):
        # cos th |ta> - sin th |-ta| has norm sqrt(cos^2 2th) exactly
        rng = np.random.default_rng(21)
        for _ in range(20):
            b = make_basis(rng.uniform(0.2, 2.0), rng.uniform(0.3, 1.0))
            a = b.amplitude
            s = math.cos(b.theta) * CoherentSuperposition.ket(a) - math.sin(
                b.theta
            ) * CoherentSuperposition.ket(-a)
            assert norm(s) == pytest.approx(math.sqrt(b.n_theta), abs=1e-12)


class TestBellStates:
    def test_b4_coherent_form(self):
        b = make_basis(0.8, 1.0)
        a = b.amplitude
        explicit = (1.0 / math.sqrt(2.0 * b.n_theta)) * (
            CoherentSuperposition.ket(a, -a) - CoherentSuperposition.ket(-a, a)
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

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            bell_state(5, make_basis(1.0, 1.0))

    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 1.0, 2.5, 30.0, 1e6])
    @pytest.mark.parametrize("t", [1.0, 0.3])
    def test_bitwise_equal_to_tensor_construction(self, alpha, t):
        b = make_basis(alpha, t)
        for k in (1, 2, 3, 4):
            got, want = bell_state(k, b), _bell_reference(k, b)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert got.amps.tobytes() == want.amps.tobytes()


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
        c, sn = math.cos(b.theta), math.sin(b.theta)
        raw = abs(aa * c + bb * sn) ** 2 + abs(aa * sn + bb * c) ** 2
        assert raw == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            QubitVector(1.0, 1.0)


class TestDensityProjection:
    def test_pure_bell_is_rank_one(self):
        b = make_basis(1.0, 1.0)
        rho = project_to_density(dyad_from_pure(bell_state(4, b)), b)
        eigs = sorted(np.linalg.eigvalsh(rho.matrix))
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert abs(eigs[0]) < 1e-12

    def test_trace_preserved_for_mixtures(self):
        b = make_basis(0.8, 1.0)
        op = dyad_from_pure(bell_state(2, b)) + 0.5 * dyad_from_pure(bell_state(4, b))
        m = project_to_density((1.0 / 1.5) * op, b).matrix
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)

    def test_span_error(self):
        b = make_basis(1.0, 1.0)
        amps = np.array([[0.5, 1.0]], dtype=complex)
        bad = CoherentOperator(np.ones(1, dtype=complex), amps, amps)
        with pytest.raises(SpanError):
            project_to_density(bad, b)

    def test_batched_projection(self):
        # one basis per decay factor; the dyad amplitudes follow +-t alpha
        t = np.array([1.0, 0.6, 0.25])
        b = make_basis(0.8, t)
        a = b.amplitude
        kets = np.array([[a, -a], [-a, a]], dtype=complex)  # (terms, modes, grid)
        good = CoherentOperator(np.full((2, 3), 0.5 + 0j), kets, kets)
        batch = project_to_density(good, b).matrix
        for i, ti in enumerate(t):
            bi = make_basis(0.8, float(ti))
            ai = bi.amplitude
            kets_i = np.array([[ai, -ai], [-ai, ai]], dtype=complex)
            one = CoherentOperator(np.full(2, 0.5 + 0j), kets_i, kets_i)
            assert np.max(np.abs(batch[i] - project_to_density(one, bi).matrix)) <= 1e-15
        off = a.copy()
        off[1] = 0.5
        amps = np.array([[a, off]], dtype=complex)
        bad = CoherentOperator(np.ones((1, 3), dtype=complex), amps, amps)
        with pytest.raises(SpanError):
            project_to_density(bad, b)


def _project_reference(rho, basis):
    """The projection as one five-operand contraction over the dyads."""
    amps = np.stack((rho.kets, rho.bras), axis=1)  # (terms, side, mode, *grid)
    ket0, bra0 = logical_coords(amps[:, :, 0], basis).swapaxes(0, 1)
    ket1, bra1 = logical_coords(amps[:, :, 1], basis).swapaxes(0, 1)
    out = np.einsum("t...,t...i,t...j,t...k,t...l->...ijkl",
                    rho.coeffs, ket0, ket1, bra0, bra1)
    return TwoQubitDensity(out.reshape(out.shape[:-4] + (4, 4))).matrix


class TestProjectionReference:
    @pytest.mark.parametrize("alpha", np.linspace(0.1, 2.5, 13))
    def test_matches_contraction_on_channel_grid(self, alpha):
        clock = DecayClock.from_r(np.linspace(0.0, 0.995, 300))
        rho = decohere(dyad_from_pure(bell_state(4, make_basis(alpha, 1.0))), clock)
        basis = make_basis(alpha, clock.t)
        got = project_to_density(rho, basis).matrix
        assert np.max(np.abs(got - _project_reference(rho, basis))) <= 1e-15

    def test_matches_contraction_on_mixture(self):
        b = make_basis(0.8, 1.0)
        op = dyad_from_pure(bell_state(2, b)) + 0.5 * dyad_from_pure(bell_state(3, b))
        op = (1.0 / 1.5) * op
        got = project_to_density(op, b).matrix
        assert np.max(np.abs(got - _project_reference(op, b))) <= 1e-15


class TestPauli:
    def test_pure_singlet_like_channel(self):
        b = make_basis(1.0, 1.0)
        rho = project_to_density(dyad_from_pure(bell_state(4, b)), b)
        dec = pauli_decompose(rho)
        assert np.max(np.abs(dec.v)) < 1e-12
        assert np.max(np.abs(dec.s)) < 1e-12
        assert np.max(np.abs(dec.t_matrix - np.diag([-1.0, -1.0, -1.0]))) < 1e-12

    def test_maximally_mixed(self):
        rho = TwoQubitDensity(np.eye(4) / 4.0)
        dec = pauli_decompose(rho)
        assert np.max(np.abs(dec.v)) < 1e-14
        assert np.max(np.abs(dec.s)) < 1e-14
        assert np.max(np.abs(dec.t_matrix)) < 1e-14

    def test_round_trip_random(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            rho = TwoQubitDensity(m / np.trace(m).real)
            back = pauli_reconstruct(pauli_decompose(rho))
            assert np.max(np.abs(back - rho.matrix)) < 1e-10

    def test_batch_matches_slices(self):
        rng = np.random.default_rng(25)
        mats = []
        for _ in range(6):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            mats.append(m / np.trace(m).real)
        batch = TwoQubitDensity(np.stack(mats).reshape(2, 3, 4, 4))
        dec = pauli_decompose(batch)
        assert dec.t_matrix.shape == (2, 3, 3, 3)
        for idx in np.ndindex(2, 3):
            one = pauli_decompose(TwoQubitDensity(batch.matrix[idx]))
            assert np.array_equal(dec.v[idx], one.v)
            assert np.array_equal(dec.s[idx], one.s)
            assert np.array_equal(dec.t_matrix[idx], one.t_matrix)
        assert np.max(np.abs(pauli_reconstruct(dec) - batch.matrix)) < 1e-14

    def test_reduced_matches_bloch(self):
        rng = np.random.default_rng(24)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        rho = TwoQubitDensity(m / np.trace(m).real)
        dec = pauli_decompose(rho)
        from ecsim.qubit_encoding import PAULIS

        m = rho.matrix.reshape(2, 2, 2, 2)
        # the partial traces over the second and over the first qubit
        for trace, bloch in (("ikjk->ij", dec.v), ("kikj->ij", dec.s)):
            red = np.einsum(trace, m)
            want = np.eye(2, dtype=complex) / 2.0
            for i, p in enumerate(PAULIS):
                want += bloch[i] * p / 2.0
            assert np.max(np.abs(red - want)) < 1e-12


class TestDensityValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.2
        with pytest.raises(ValueError):
            TwoQubitDensity(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            TwoQubitDensity(np.eye(4, dtype=complex) / 2.0)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(ValueError):
            TwoQubitDensity(m)

    def test_batch(self):
        good = np.stack([np.eye(4, dtype=complex) / 4.0] * 3)
        assert TwoQubitDensity(good).matrix.shape == (3, 4, 4)
        hermitian = good.copy()
        hermitian[1, 0, 1] = 0.2
        trace = good.copy()
        trace[2] *= 2.0
        positive = good.copy()
        positive[1] = np.diag([0.6, 0.5, -0.05, -0.05])
        for bad in (hermitian, trace, positive):
            with pytest.raises(ValueError):
                TwoQubitDensity(bad)
        with pytest.raises(ValueError):
            TwoQubitDensity(np.ones((3, 4, 3)) / 4.0)

    def test_rejects_nan(self):
        one_nan = np.eye(4, dtype=complex) / 4.0
        one_nan[0, 0] = np.nan
        all_nan = np.full((4, 4), np.nan, dtype=complex)
        good = np.eye(4, dtype=complex) / 4.0
        for bad in (one_nan, all_nan):
            with pytest.raises(DensityError):
                TwoQubitDensity(bad)
            with pytest.raises(DensityError):
                TwoQubitDensity(np.stack([good, bad, good]))

    @pytest.mark.parametrize("lam_min,accepted", [(-0.5e-10, True), (-2e-10, False)])
    def test_positivity_threshold(self, lam_min, accepted):
        rng = np.random.default_rng(31)
        m = _density_with_min_eigenvalue(rng, lam_min)
        assert _accepted(m) is accepted
        batch = np.stack([np.eye(4, dtype=complex) / 4.0, m, channel_rho4(1.0, 0.4).matrix])
        assert _accepted(batch) is accepted

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


def _accepted(m) -> bool:
    try:
        TwoQubitDensity(m)
    except DensityError:
        return False
    return True


def _density_with_min_eigenvalue(rng, lam_min):
    """Unit-trace Hermitian Q diag(l) Q^dag with a random unitary Q, smallest
    eigenvalue ``lam_min`` and the other three in [0.125, 0.75]."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q = np.linalg.qr(g)[0]
    rest = (0.2 + rng.dirichlet(np.ones(3))) / 1.6 * (1.0 - lam_min)
    m = (q * np.concatenate(([lam_min], rest))) @ q.conj().T
    return (m + m.conj().T) / 2.0
