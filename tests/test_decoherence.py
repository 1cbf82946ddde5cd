"""Vacuum decoherence: dyad map, channel construction, closed forms."""
import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from ecsim.coherent_states import (
    CoherentOperator,
    dyad_from_pure,
    operator_trace,
    to_fock,
)
from ecsim import decoherence
from ecsim import entanglement_metrics as em
from ecsim import qubit_encoding
from ecsim.decoherence import (
    DecayClock,
    channel_coefficients,
    channel_rho4,
    closed_form_vst,
    decohere,
)
from ecsim.entanglement_metrics import (
    closed_form_e,
    closed_form_f,
    closed_form_s,
    optimal_fidelity,
)
from ecsim.errors import DegenerateBasisError
from ecsim.qubit_encoding import (
    BELL_VECTORS,
    bell_state,
    make_basis,
    pauli_decompose,
)
from reference import LOG_ALPHAS, operator_sum

SQRT_HALF = 1.0 / math.sqrt(2.0)


def hermiticity_defect(rho: CoherentOperator) -> float:
    """Max coefficient mismatch between each dyad and its conjugate partner."""
    terms = list(zip(rho.coeffs.tolist(), rho.kets.tolist(), rho.bras.tolist()))
    worst = 0.0
    for _, kets, bras in terms:
        partner = 0.0 + 0.0j
        for coeff, other_kets, other_bras in terms:
            if other_kets == bras and other_bras == kets:
                partner += coeff
        mine = 0.0 + 0.0j
        for coeff, other_kets, other_bras in terms:
            if other_kets == kets and other_bras == bras:
                mine += coeff
        worst = max(worst, abs(partner.conjugate() - mine))
    return worst


def damp_single_dyad(beta, gamma, clock):
    """(coefficient, ket, bra) of the damped single-mode dyad |beta><gamma|."""
    dyad = CoherentOperator(np.ones(1, dtype=complex), np.array([[beta]], dtype=complex),
                            np.array([[gamma]], dtype=complex))
    out = decohere(dyad, clock)
    return out.coeffs[0], out.kets[0, 0], out.bras[0, 0]


class TestDecayClock:
    def test_pythagorean(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            r = rng.uniform(0.0, 0.999)
            c = DecayClock.from_r(r)
            assert c.t**2 + r**2 == pytest.approx(1.0, abs=1e-14)

    def test_array_clock(self):
        r = np.linspace(0.0, 0.99, 7)
        c = DecayClock.from_r(r)
        assert c.t.shape == r.shape
        assert list(c.t) == [DecayClock.from_r(float(x)).t for x in r]
        assert np.max(np.abs(np.sqrt(1.0 - c.t * c.t) - r)) < 1e-14

    def test_from_r_checks_once(self, monkeypatch):
        # r in [0, 1) puts sqrt((1 - r)(1 + r)) in (0, 1], so from_r skips
        # the constructor's check, down to r's extremes
        r = np.array([0.0, 5e-324, 1e-8, 0.5, np.nextafter(1.0, 0.0)])
        want = np.sqrt((1.0 - r) * (1.0 + r))
        assert np.logical_and(0.0 < want, want <= 1.0).all()
        monkeypatch.setattr(DecayClock, "__post_init__",
                            lambda self: pytest.fail("from_r ran the constructor's check"))
        assert DecayClock.from_r(r).t.tobytes() == want.tobytes()
        assert DecayClock.from_r(0.5).t == math.sqrt(0.75)

    @pytest.mark.parametrize("r", [0.3, [0.0, 1e-9, 0.5],
                                   np.array([[5e-324, 1e-8], [0.7, np.nextafter(1.0, 0.0)]])],
                             ids=["scalar", "list", "array"])
    def test_loss_is_r_squared_and_t_is_formed_without_cancelling(self, r):
        clock, x = DecayClock.from_r(r), np.asarray(r, dtype=float)
        assert clock.loss.tobytes() == (x * x).tobytes()
        assert clock.t.tobytes() == np.sqrt((1.0 - x) * (1.0 + x)).tobytes()

    def test_constructor_loss_is_one_minus_t_squared(self):
        for t in (0.8, np.array([1.0, 0.3, 1e-8])):
            assert np.asarray(DecayClock(t).loss).tobytes() == np.asarray(1.0 - t * t).tobytes()


class TestDecohereDyad:
    def test_diagonal_dyad(self):
        clock = DecayClock.from_r(0.4)
        coeff, ket, _ = damp_single_dyad(0.9, 0.9, clock)
        assert coeff == pytest.approx(1.0, abs=1e-14)
        assert ket == pytest.approx(clock.t * 0.9, abs=1e-15)

    def test_no_decay_is_identity(self):
        coeff, ket, bra = damp_single_dyad(0.7, -0.4, DecayClock(1.0))
        assert coeff == pytest.approx(1.0, abs=1e-15)
        assert ket == pytest.approx(0.7)
        assert bra == pytest.approx(-0.4)

    def test_off_diagonal_value(self):
        # ket a=1, bra -1 at r=0.6: coefficient (e^-2)^(0.36)
        coeff, _, _ = damp_single_dyad(1.0, -1.0, DecayClock.from_r(0.6))
        assert coeff == pytest.approx(math.exp(-2.0) ** 0.36, rel=1e-12)


# ---------------------------------------------------------------------------
# an independent oracle for the decay law: the paper's vacuum channel as
# amplitude damping in the Fock basis, with transmissivity t^2 on each mode

ORACLE_CUTOFF = 60  # Poisson(4) beyond 60 photons is ~1e-46: |amp| <= 2 loses nothing


def _fock_ket(beta: complex, cutoff: int = ORACLE_CUTOFF) -> np.ndarray:
    """<n|beta> = e^{-|beta|^2/2} beta^n / sqrt(n!), n = 0..cutoff."""
    n = np.arange(cutoff + 1)
    return (math.exp(-0.5 * abs(beta) ** 2) * np.power(complex(beta), n)
            / np.sqrt(special.factorial(n)))


def _kraus(r: float, cutoff: int = ORACLE_CUTOFF) -> np.ndarray:
    """K_k = sum_m sqrt(C(m, k)) t^(m-k) r^k |m-k><m|, t = sqrt(1 - r^2), as an
    array (k, row, column)."""
    t = math.sqrt(1.0 - r * r)
    k, m = np.nonzero(np.less_equal.outer(np.arange(cutoff + 1), np.arange(cutoff + 1)))
    kraus = np.zeros((cutoff + 1,) * 3)
    kraus[k, m - k, m] = np.sqrt(special.comb(m, k)) * t ** (m - k) * r ** k
    return kraus


def _logical_fock_kets(amplitude: float) -> np.ndarray:
    """Psi+ and Psi- at ``amplitude`` in the Fock basis, rows (2, cutoff + 1):
    (cos th |a> - sin th |-a>) / sqrt(N) and (-sin th |a> + cos th |-a>) / sqrt(N),
    sin 2th = <a|-a> = e^{-2 a^2}, N = 1 - e^{-4 a^2}."""
    s2 = math.exp(-2.0 * amplitude * amplitude)
    th, n = 0.5 * math.asin(s2), -math.expm1(-4.0 * amplitude * amplitude)
    plus, minus = _fock_ket(amplitude), _fock_ket(-amplitude)
    return np.stack((math.cos(th) * plus - math.sin(th) * minus,
                     -math.sin(th) * plus + math.cos(th) * minus)) / math.sqrt(n)


class TestKrausOracle:
    """``decohere``'s law |b><g| -> <g|b>^(1-t^2) |tb><tg| against the Kraus
    sums of amplitude damping, which contain neither it nor the closed forms."""

    @pytest.mark.parametrize("alpha,r", [(0.5, 0.3), (0.8, 0.9), (1.0, 0.5), (1.2, 0.99),
                                         (1.5, 0.6), (2.0, 0.2), (2.0, 0.99)])
    def test_channel_density(self, alpha, r):
        fock = to_fock(bell_state(4, make_basis(alpha)), ORACLE_CUTOFF)
        assert fock.tail_bound < 1e-30  # the amplitude error, sqrt(tail), is below 1e-15
        # <e_i| K_k on each mode, then sum_k over both modes' environments
        bra_k = np.einsum("in,knm->ikm", _logical_fock_kets(math.sqrt(1.0 - r * r) * alpha).conj(),
                          _kraus(r))
        amps = np.einsum("akm,mn->akn", bra_k, fock.amps)
        amps = np.einsum("akn,bln->abkl", amps, bra_k).reshape(4, -1)
        want = amps @ amps.conj().T
        got = channel_rho4(alpha, r).matrix
        assert np.abs(got - want).max() <= 1e-13 + fock.tail_bound

    def test_random_complex_dyads(self):
        rng = np.random.default_rng(61)
        for _ in range(24):
            beta, gamma = (2.0 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
                           for _ in range(2))
            r = rng.uniform(0.05, 0.99)
            kraus = _kraus(r).astype(complex)
            dyad = np.outer(_fock_ket(beta), _fock_ket(gamma).conj())
            want = (kraus @ dyad @ kraus.transpose(0, 2, 1)).sum(axis=0)
            coeff, ket, bra = damp_single_dyad(beta, gamma, DecayClock.from_r(r))
            got = coeff * np.outer(_fock_ket(ket), _fock_ket(bra).conj())
            assert np.abs(got - want).max() <= 1e-13, (beta, gamma, r)


class TestDecohere:
    def test_identity_at_t1(self):
        b = make_basis(1.0, 1.0)
        op = dyad_from_pure(bell_state(4, b))
        out = decohere(op, DecayClock(1.0))
        assert np.max(np.abs(out.coeffs - op.coeffs)) <= 1e-14
        assert np.array_equal(out.kets, op.kets)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(32)
        b = make_basis(1.2, 1.0)
        op = operator_sum((1, dyad_from_pure(bell_state(1, b))), (0.7, dyad_from_pure(bell_state(3, b))))
        for _ in range(10):
            clock = DecayClock.from_r(rng.uniform(0.0, 0.95))
            out = decohere(op, clock)
            assert operator_trace(out) == pytest.approx(
                operator_trace(op), abs=1e-12
            )
            assert hermiticity_defect(out) < 1e-12

    def test_semigroup(self):
        b = make_basis(0.9, 1.0)
        op = dyad_from_pure(bell_state(4, b))
        two = decohere(decohere(op, DecayClock(0.8)), DecayClock(0.7))
        one = decohere(op, DecayClock(0.8 * 0.7))
        assert np.max(np.abs(two.coeffs - one.coeffs)) <= 1e-12
        assert np.max(np.abs(two.kets - one.kets)) <= 1e-14


class TestChannel:
    def test_pure_at_r0(self):
        rho = channel_rho4(1.0, 0.0)
        b4 = BELL_VECTORS[3]
        assert (b4.conj() @ rho.matrix @ b4).real == pytest.approx(1.0, abs=1e-12)
        eigs = sorted(np.linalg.eigvalsh(rho.matrix))
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_characteristic_point_fidelity(self):
        assert optimal_fidelity(channel_rho4(1.0, SQRT_HALF)) == pytest.approx(
            2.0 / 3.0, abs=1e-9
        )

    def test_grid_touching_degenerate_region(self):
        # at alpha = 1e-3 the decayed basis degenerates only as r -> 1; GUARDS'
        # channel-degenerate-near-r-1 row and TestClosedFormGuard refuse r = 0.9999999
        for route in (channel_rho4, closed_form_vst, closed_form_e, closed_form_f, closed_form_s):
            route(1e-3, np.array([0.0, 0.5]))

    def test_local_vectors_nonzero_midway(self):
        # the damped channel is never Bell diagonal at intermediate times
        for alpha in (0.3, 1.0, 2.0):
            for r in (0.2, 0.5, 0.8):
                c = pauli_decompose(channel_rho4(alpha, r))
                assert np.linalg.norm(c[1:, 0]) > 1e-6
                assert np.max(np.abs(c[1:, 0] - c[0, 1:])) < 1e-12


class TestAlphaBatch:
    def test_the_decayed_operator_has_zero_imaginary_parts(self, monkeypatch):
        # channel_rho4 projects the real parts of the complex route's operator
        seen = []
        monkeypatch.setattr(decoherence, "decohere",
                            lambda rho, clock: seen.append(decohere(rho, clock)) or seen[-1])
        monkeypatch.setattr(decoherence, "project_to_density", lambda rho, basis: None)
        channel_rho4(LOG_ALPHAS, np.linspace(0.0, 0.9999, 401))
        (rho,) = seen
        assert rho.coeffs.shape == (4,) + LOG_ALPHAS.shape + (401,)
        for part in (rho.coeffs, rho.kets, rho.bras):
            assert part.dtype == np.complex128 and not part.imag.any()

    def test_degenerate_alpha_named(self):
        # 2e-6 is degenerate only at small decay factors: the batch's message
        # is that of the amplitude's own call
        r = np.linspace(0.0, 0.995, 7)
        with pytest.raises(DegenerateBasisError) as alone:
            channel_rho4(2e-6, r)
        with pytest.raises(DegenerateBasisError) as batched:
            channel_rho4(np.array([1.0, 2e-6, 3e-6]), r)
        assert "alpha=2e-06" in str(alone.value)
        assert str(batched.value) == str(alone.value)


class TestClosedFormGuard:
    CLOSED = [closed_form_e, closed_form_f, closed_form_s, closed_form_vst, em._fidelity_margin]

    @pytest.mark.parametrize("closed", CLOSED)
    def test_message_is_that_of_the_decayed_basis(self, closed):
        grid = np.array([0.0, 0.5, 0.9999999])
        with pytest.raises(DegenerateBasisError) as whole:
            make_basis(1e-3, DecayClock.from_r(grid).t)
        with pytest.raises(DegenerateBasisError) as got:
            closed(1e-3, grid)
        assert str(got.value) == str(whole.value)

    @pytest.mark.parametrize("closed", CLOSED)
    def test_one_clock_and_one_basis_per_call(self, closed, monkeypatch):
        # one clock, and a guard that checks N_theta alone: no basis is built
        calls = []
        from_r = DecayClock.from_r
        monkeypatch.setattr(DecayClock, "from_r",
                            classmethod(lambda cls, r: calls.append("from_r") or from_r(r)))
        monkeypatch.setattr(qubit_encoding, "LogicalBasis",
                            lambda **fields: calls.append("basis"))
        closed(1.3, np.linspace(0.0, 0.995, 50))
        assert calls == ["from_r"]


class TestClosedForms:
    def test_r0_limits(self):
        # at r = 0, gamma = 1 and W = exp(-4 alpha^2): 1 - W is N_theta's own expm1
        gamma, _, one_g, one_w, n_theta, _, _ = channel_coefficients(1.0, 0.0)
        assert gamma == 1.0
        assert one_g == 0.0
        assert one_w.tobytes() == n_theta.tobytes()
        c = closed_form_vst(1.0, 0.0)
        assert np.max(np.abs(c[1:, 0])) == 0.0
        assert np.max(np.abs(c[1:, 1:] + np.eye(3))) <= 1e-15

    def test_t_diagonal_structure(self):
        t = closed_form_vst(0.7, 0.4)[1:, 1:]
        off = t - np.diag(np.diag(t))
        assert np.max(np.abs(off)) == 0.0


def test_batched_channel_memory_per_point():
    # cli.MAX_R_POINTS is sized from this peak (~1.4 kB a point measured):
    # the damped dyads, the density and its check temporaries (the
    # symmetrized matrix, its shifted copy and the Cholesky factor)
    n = 10**4
    r = np.linspace(0.0, 0.995, n)
    channel_rho4(1.0, r[:2])
    tracemalloc.start()
    try:
        channel_rho4(1.0, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1600 * n
