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
from ecsim.decoherence import (
    ChannelCoefficients,
    DecayClock,
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
    project_to_density,
)

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

    def test_bounds(self):
        with pytest.raises(ValueError):
            DecayClock(0.0)
        with pytest.raises(ValueError):
            DecayClock.from_r(1.0)

    def test_array_clock(self):
        r = np.linspace(0.0, 0.99, 7)
        c = DecayClock.from_r(r)
        assert c.t.shape == r.shape
        assert list(c.t) == [DecayClock.from_r(float(x)).t for x in r]
        assert np.max(np.abs(np.sqrt(1.0 - c.t * c.t) - r)) < 1e-14
        with pytest.raises(ValueError):
            DecayClock.from_r(np.array([0.2, 1.0, 0.5]))
        with pytest.raises(ValueError):
            DecayClock(np.array([0.5, 0.0]))


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
        op = dyad_from_pure(bell_state(1, b)) + 0.7 * dyad_from_pure(bell_state(3, b))
        for _ in range(10):
            clock = DecayClock.from_r(rng.uniform(0.0, 0.95))
            out = decohere(op, clock)
            assert operator_trace(out) == pytest.approx(
                operator_trace(op), abs=1e-12
            )
            assert hermiticity_defect(out) < 1e-12

    def test_array_clock_matches_scalar_clocks(self):
        b = make_basis(1.1, 1.0)
        op = dyad_from_pure(bell_state(1, b)) + 0.3 * dyad_from_pure(bell_state(2, b))
        t = np.array([[1.0, 0.8], [0.5, 0.2]])
        batch = decohere(op, DecayClock(t))
        for idx in np.ndindex(t.shape):
            one = decohere(op, DecayClock(float(t[idx])))
            assert np.max(np.abs(batch.coeffs[(...,) + idx] - one.coeffs)) <= 1e-15
            assert np.array_equal(batch.kets[(...,) + idx], one.kets)
            assert np.array_equal(batch.bras[(...,) + idx], one.bras)

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

    def test_degeneracy_guard(self):
        with pytest.raises(DegenerateBasisError):
            channel_rho4(1e-7, 0.5)

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 2.5])
    def test_grid_matches_scalar_calls(self, alpha):
        r = np.linspace(0.0, 0.995, 41)
        batch = channel_rho4(alpha, r).matrix
        assert batch.shape == (41, 4, 4)
        stacked = np.stack([channel_rho4(alpha, float(x)).matrix for x in r])
        assert np.max(np.abs(batch - stacked)) <= 1e-15
        square = channel_rho4(alpha, r[1:].reshape(5, 8)).matrix
        assert np.array_equal(square.reshape(40, 4, 4), batch[1:])

    def test_grid_touching_degenerate_region(self):
        # at alpha = 1e-3 the decayed basis degenerates only as r -> 1
        channel_rho4(1e-3, np.array([0.0, 0.5]))
        closed_form_vst(1e-3, np.array([0.0, 0.5]))
        grid = np.array([0.0, 0.5, 0.9999999])
        with pytest.raises(DegenerateBasisError):
            channel_rho4(1e-3, grid)
        with pytest.raises(DegenerateBasisError):
            closed_form_vst(1e-3, grid)

    def test_local_vectors_nonzero_midway(self):
        # the damped channel is never Bell diagonal at intermediate times
        for alpha in (0.3, 1.0, 2.0):
            for r in (0.2, 0.5, 0.8):
                dec = pauli_decompose(channel_rho4(alpha, r))
                assert np.linalg.norm(dec.v) > 1e-6
                assert np.max(np.abs(dec.v - dec.s)) < 1e-12


def _channel_one_amplitude(alpha: float, r):
    """The damped channel of one amplitude from the scalar pieces: the B4
    state of the undecayed basis, its dyad, the decay and the projection."""
    clock = DecayClock.from_r(r)
    rho = decohere(dyad_from_pure(bell_state(4, make_basis(alpha, 1.0))), clock)
    return project_to_density(rho, make_basis(alpha, clock.t))


class TestAlphaBatch:
    ALPHAS = np.logspace(-3.0, 6.0, 19)
    # 0.45641438732799167 squares differently by Python's a**2 (libm's pow)
    # and numpy's square, which moves its B4 coefficients
    PINNED = [0.45641438732799167, 0.15, 1e-3, 13.4, 1e6]

    @pytest.mark.parametrize("r", [np.linspace(0.0, 0.995, 23), 0.5], ids=["grid", "scalar"])
    def test_batch_is_bitwise_the_one_amplitude_route(self, r):
        rng = np.random.default_rng(47)
        alphas = np.concatenate((self.PINNED, rng.uniform(1e-3, 3.0, 30),
                                 10.0 ** rng.uniform(-3.0, 6.0, 10)))
        batch = channel_rho4(alphas, r).matrix
        for alpha, rows in zip(alphas.tolist(), batch):
            assert rows.tobytes() == _channel_one_amplitude(alpha, r).matrix.tobytes()

    @pytest.mark.parametrize("r", [np.linspace(0.0, 0.995, 400), 0.5], ids=["grid", "scalar"])
    def test_slices_are_bitwise_the_scalar_alpha_calls(self, r):
        batch = channel_rho4(self.ALPHAS, r).matrix
        assert batch.shape == self.ALPHAS.shape + np.shape(r) + (4, 4)
        for alpha, rows in zip(self.ALPHAS.tolist(), batch):
            assert rows.tobytes() == channel_rho4(alpha, r).matrix.tobytes()

    def test_alpha_axes_lead(self):
        alphas = np.array([[0.2, 1.0, 3.0], [0.5, 1.5, 40.0]])
        r = np.linspace(0.0, 0.9, 5)
        batch = channel_rho4(alphas, r).matrix
        assert batch.shape == (2, 3, 5, 4, 4)
        assert batch.tobytes() == channel_rho4(alphas.ravel(), r).matrix.tobytes()
        assert channel_rho4(np.float64(1.3), r).matrix.tobytes() == (
            channel_rho4(np.array([1.3]), r).matrix[0].tobytes())

    def test_needs_an_amplitude(self):
        with pytest.raises(ValueError):
            channel_rho4(np.array([]), 0.5)

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
        calls = []
        from_r, basis = DecayClock.from_r, decoherence.make_basis
        monkeypatch.setattr(DecayClock, "from_r",
                            classmethod(lambda cls, r: calls.append("from_r") or from_r(r)))
        monkeypatch.setattr(decoherence, "make_basis",
                            lambda *a: calls.append("make_basis") or basis(*a))
        closed(1.3, np.linspace(0.0, 0.995, 50))
        assert sorted(calls) == ["from_r", "make_basis"]


class TestClosedForms:
    def test_r0_limits(self):
        co = ChannelCoefficients.evaluate(1.0, 0.0)
        n_theta = 1.0 - math.exp(-4.0)
        assert co.a_coef == 0.0
        assert co.b_coef == 0.0
        assert co.gamma_coef == 1.0
        assert co.c_coef == pytest.approx(2.0 * n_theta, abs=1e-14)
        assert co.d_coef == pytest.approx(-2.0 * n_theta, abs=1e-14)
        vst = closed_form_vst(1.0, 0.0)
        assert np.max(np.abs(vst.t_matrix - np.diag([-1.0, -1.0, -1.0]))) < 1e-14
        assert np.max(np.abs(vst.v)) == 0.0

    @pytest.mark.parametrize("alpha,r", [(1.0, 0.5), (0.1, 0.3), (2.0, 0.8), (1.0, SQRT_HALF)])
    def test_matches_projection(self, alpha, r):
        got = pauli_decompose(channel_rho4(alpha, r))
        want = closed_form_vst(alpha, r)
        assert np.max(np.abs(got.v - want.v)) < 1e-10
        assert np.max(np.abs(got.s - want.s)) < 1e-10
        assert np.max(np.abs(got.t_matrix - want.t_matrix)) < 1e-10

    def test_grid_is_bitwise_scalar(self):
        r = np.linspace(0.0, 0.99, 23)
        grid = closed_form_vst(1.3, r)
        for i, x in enumerate(r):
            one = closed_form_vst(1.3, float(x))
            assert np.array_equal(grid.v[i], one.v)
            assert np.array_equal(grid.s[i], one.s)
            assert np.array_equal(grid.t_matrix[i], one.t_matrix)

    def test_t_diagonal_structure(self):
        vst = closed_form_vst(0.7, 0.4)
        off = vst.t_matrix - np.diag(np.diag(vst.t_matrix))
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
