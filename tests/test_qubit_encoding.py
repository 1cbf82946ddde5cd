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
from ecsim import decoherence, qubit_encoding
from ecsim.decoherence import DecayClock, channel_rho4, decohere
from ecsim.errors import DegenerateBasisError, DensityError, SpanError
from ecsim.qubit_encoding import (
    BELL_VECTORS,
    LogicalBasis,
    TwoQubitDensity,
    bell_coeffs,
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
    return consolidate((1.0 / SQ2) * (first + second if k % 2 else first + (-1.0) * second))


def _bell_coeffs_reference(k, basis):
    """``bell_coeffs`` as a loop over the basis entries in Python's scalar
    float and complex arithmetic, one coefficient at a time."""
    inv = complex(1.0 / SQ2)
    n_thetas, thetas = np.asarray(basis.n_theta), np.asarray(basis.theta)
    coeffs = []  # amplitude major
    for n_theta, theta in zip(n_thetas.flat, thetas.flat):
        c = 1.0 / math.sqrt(n_theta)
        cos, sin = c * math.cos(theta), c * math.sin(theta)
        plus = (complex(cos), complex(-sin))  # Psi+ on (|ta>, |-ta>)
        minus = (complex(-sin), complex(cos))  # Psi-
        u, v, w, x = (plus, plus, minus, minus) if k < 3 else (plus, minus, minus, plus)
        for i in (0, 1):
            for j in (0, 1):
                second = w[i] * x[j]
                if k % 2 == 0:  # B2, B4: a - b is a + (-1) * b
                    second = complex(-1.0) * second
                coeffs.append(inv * (u[i] * v[j]) + inv * second)
    return np.array(coeffs).reshape(-1, 4).T.reshape((4,) + thetas.shape)


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

    ALPHAS = np.random.default_rng(48).uniform(0.01, 3.0, 20000)
    TIMES = np.random.default_rng(49).uniform(0.05, 1.0, 20000)

    # a scalar square by libm's pow once differed from an array's product:
    # theta or n_theta of 15 of these amplitudes at t = 1, and of 10 of
    # these t at alpha = 1.3
    @pytest.mark.parametrize("alpha,t", [(ALPHAS, 1.0), (ALPHAS, 0.8), (ALPHAS, 0.3),
                                         (ALPHAS, 0.05), (1.3, TIMES)],
                             ids=["t1", "t0.8", "t0.3", "t0.05", "alpha1.3"])
    def test_entries_are_bitwise_the_scalar_calls(self, alpha, t):
        batch = make_basis(alpha, t)
        alphas, times = np.broadcast_arrays(alpha, t)
        scalar = [make_basis(a, x) for a, x in zip(alphas.tolist(), times.tolist())]
        for name in ("amplitude", "theta", "n_theta", "sin2theta"):
            want = np.array([getattr(b, name) for b in scalar])
            assert getattr(batch, name).tobytes() == want.tobytes(), name

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
            s = math.cos(b.theta) * CoherentSuperposition.ket(a) + (-1.0) * (
                math.sin(b.theta) * CoherentSuperposition.ket(-a))
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


class TestBellCoeffs:
    # log-uniform amplitudes t * alpha from the degeneracy floor to MAX_ALPHA;
    # sin(theta) underflows to 0 from t * alpha ~ 19.3 on
    AMPS = np.exp(np.random.default_rng(50).uniform(np.log(6e-7), np.log(1e6), 20000))
    ALPHAS = np.exp(np.random.default_rng(51).uniform(np.log(1.2e-5), np.log(1e6), 200))
    TIMES = np.random.default_rng(52).uniform(0.05, 1.0, 100)

    @pytest.mark.parametrize("alpha,t", [(AMPS, 1.0), (AMPS / 0.8, 0.8), (AMPS / 0.3, 0.3),
                                         (AMPS / 0.05, 0.05), (ALPHAS[:, None], TIMES),
                                         (0.7, 0.9)],
                             ids=["t1", "t0.8", "t0.3", "t0.05", "alpha-t-grid", "scalar"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_entries_are_bitwise_the_scalar_loop(self, k, alpha, t):
        basis = make_basis(alpha, t)
        got = bell_coeffs(k, basis)
        assert got.shape == (4,) + np.shape(basis.theta)
        assert got.tobytes() == _bell_coeffs_reference(k, basis).tobytes()


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
    """The projection as it was computed before it became one contraction:
    the coefficients split into real and imaginary parts, the grid flat and
    worked through in blocks of 128 points, each dyad's products taken on
    the (re, im) pair and viewed as complex at the end."""
    coords = logical_coords(
        np.concatenate((rho.kets[:, None], rho.bras[:, None]), axis=1), basis
    )
    # (terms, side, mode, logical index, *grid), the grid flat
    coords = coords.transpose(0, 1, 2, -1, *range(3, coords.ndim - 1))
    grid = coords.shape[4:]
    coords = coords.reshape(coords.shape[:4] + (-1,))
    c = rho.coeffs.reshape(len(rho.coeffs), 1, -1)
    c = np.concatenate((c.real, c.imag), axis=1)  # (terms, re/im, points)
    n = coords.shape[-1]
    out = np.empty((n, 32))
    for start in range(0, n, 128):
        s = slice(start, start + 128)
        out[s] = _summed_products(c[..., s], coords[..., s])
    # (points, 16 entries, re/im) viewed as complex (*grid, 4, 4)
    return out.view(complex).reshape(grid + (4, 4))


def _summed_products(c, coords):
    """The sum over terms of c x ket0 x ket1 x bra0 x bra1, (points, 32),
    each product in that order on the (re, im) pair of c; the terms are
    summed from zero in order."""
    prod = c[:, None] * coords[:, 0, 0, :, None]
    prod = prod[:, :, None] * coords[:, 0, 1, None, :, None]
    prod = prod[:, :, :, None] * coords[:, 1, 0, None, None, :, None]
    prod = prod[:, :, :, :, None] * coords[:, 1, 1, None, None, None, :, None]
    return prod.sum(axis=0, initial=0.0).reshape(32, -1).T


@dataclass(frozen=True)
class _Unchecked:
    """Stands in for TwoQubitDensity: the projection's output as it is handed
    to the density checks (alpha = 1e-3 fails the trace check at some r)."""

    matrix: np.ndarray


def _same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestProjectionReference:
    @pytest.fixture(autouse=True)
    def unchecked(self, monkeypatch):
        monkeypatch.setattr(qubit_encoding, "TwoQubitDensity", _Unchecked)

    # block edges (127-129, 257 points) and a 2-D (3, 400) decay-time grid
    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 1.0, 2.5, 13.4, 1e6])
    @pytest.mark.parametrize("shape", [(1,), (2,), (127,), (128,), (129,), (257,), (3, 400)])
    def test_bitwise_on_channel_grid(self, alpha, shape):
        r = np.linspace(0.0, 0.995, math.prod(shape)).reshape(shape)
        clock = DecayClock.from_r(r)
        rho = decohere(dyad_from_pure(bell_state(4, make_basis(alpha, 1.0))), clock)
        basis = make_basis(alpha, clock.t)
        _same_bits(project_to_density(rho, basis).matrix, _project_reference(rho, basis))

    def test_bitwise_on_alpha_r_grid(self, monkeypatch):
        # the operator and basis that channel_rho4 projects on an (alpha, r) grid
        seen = []

        def keep(rho, basis):
            seen.append((rho, basis))
            return project_to_density(rho, basis)

        monkeypatch.setattr(decoherence, "project_to_density", keep)
        got = channel_rho4(np.array([1e-3, 0.4, 1.7, 13.4]), np.linspace(0.0, 0.9999, 131))
        assert got.matrix.shape == (4, 131, 4, 4)
        _same_bits(got.matrix, _project_reference(*seen[0]))

    def test_bitwise_on_mixture(self):
        b = make_basis(0.8, 1.0)
        op = dyad_from_pure(bell_state(2, b)) + 0.5 * dyad_from_pure(bell_state(3, b))
        op = (1.0 / 1.5) * op
        _same_bits(project_to_density(op, b).matrix, _project_reference(op, b))


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
        c = pauli_decompose(batch)
        assert c.shape == (2, 3, 4, 4)
        for idx in np.ndindex(2, 3):
            one = pauli_decompose(TwoQubitDensity(batch.matrix[idx]))
            assert np.array_equal(c[idx], one)
        assert np.max(np.abs(pauli_reconstruct(c) - batch.matrix)) < 1e-14

    def test_reduced_matches_bloch(self):
        rng = np.random.default_rng(24)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        rho = TwoQubitDensity(m / np.trace(m).real)
        c = pauli_decompose(rho)
        from ecsim.qubit_encoding import PAULIS

        m = rho.matrix.reshape(2, 2, 2, 2)
        # the partial traces over the second and over the first qubit
        for trace, bloch in (("ikjk->ij", c[1:, 0]), ("kikj->ij", c[0, 1:])):
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
