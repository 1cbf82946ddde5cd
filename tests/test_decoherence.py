"""Vacuum decoherence: dyad map, channel construction, closed forms."""
import math
import tracemalloc

import numpy as np
import pytest

from ecsim.coherent_states import (
    CoherentOperator,
    dyad_from_pure,
    operator_trace,
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
from reference import LOG_ALPHAS, damp_single_dyad, operator_sum

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

    def test_is_made_only_from_r(self):
        with pytest.raises(TypeError):
            DecayClock(0.5)

    @pytest.mark.parametrize("r", [0.3, [0.0, 1e-9, 0.5],
                                   np.array([[5e-324, 1e-8], [0.7, np.nextafter(1.0, 0.0)]])],
                             ids=["scalar", "list", "array"])
    def test_loss_is_r_squared_and_t_is_formed_without_cancelling(self, r):
        clock, x = DecayClock.from_r(r), np.asarray(r, dtype=float)
        assert clock.loss.tobytes() == (x * x).tobytes()
        assert clock.t.tobytes() == np.sqrt((1.0 - x) * (1.0 + x)).tobytes()


class TestDecohereDyad:
    def test_diagonal_dyad(self):
        clock = DecayClock.from_r(0.4)
        coeff, ket, _ = damp_single_dyad(0.9, 0.9, clock)
        assert coeff == pytest.approx(1.0, abs=1e-14)
        assert ket == pytest.approx(clock.t * 0.9, abs=1e-15)

    def test_no_decay_is_identity(self):
        coeff, ket, bra = damp_single_dyad(0.7, -0.4, DecayClock.from_r(0.0))
        assert coeff == pytest.approx(1.0, abs=1e-15)
        assert ket == pytest.approx(0.7)
        assert bra == pytest.approx(-0.4)

    def test_off_diagonal_value(self):
        # ket a=1, bra -1 at r=0.6: coefficient (e^-2)^(0.36)
        coeff, _, _ = damp_single_dyad(1.0, -1.0, DecayClock.from_r(0.6))
        assert coeff == pytest.approx(math.exp(-2.0) ** 0.36, rel=1e-12)


class TestDecohere:
    def test_identity_at_t1(self):
        b = make_basis(1.0, 1.0)
        op = dyad_from_pure(bell_state(4, b))
        out = decohere(op, DecayClock.from_r(0.0))
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
        # t = 0.8 and 0.7, and their product
        c1, c2 = DecayClock.from_r(0.6), DecayClock.from_r(math.sqrt(0.51))
        t12 = c1.t * c2.t
        two = decohere(decohere(op, c1), c2)
        one = decohere(op, DecayClock.from_r(math.sqrt((1.0 - t12) * (1.0 + t12))))
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
    def test_one_clock_and_two_bases_per_call(self, closed, monkeypatch):
        # one clock, and the guard's two bases: the undecayed one, which gives
        # N_theta, and the one at the least t
        calls, grid = [], np.linspace(0.0, 0.995, 50)
        from_r, basis = DecayClock.from_r, qubit_encoding.LogicalBasis
        monkeypatch.setattr(DecayClock, "from_r",
                            classmethod(lambda cls, r: calls.append("from_r") or from_r(r)))
        monkeypatch.setattr(qubit_encoding, "LogicalBasis",
                            lambda **fields: calls.append(fields["amplitude"]) or basis(**fields))
        closed(1.3, grid)
        assert calls == ["from_r", 1.3, from_r(grid).t.min() * 1.3]


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
