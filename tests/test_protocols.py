"""Bell discrimination, teleportation, concentration, CV fidelity."""
import decimal
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from ecsim import coherent_states, protocols
from ecsim.coherent_states import (
    CoherentSuperposition,
    consolidate,
    inner,
    norm,
    normalized,
    phase_shift,
    project_modes,
    tensor,
)
from ecsim.decoherence import channel_rho4
from ecsim.errors import SpanError
from ecsim.protocols import (
    BellLabel,
    average_fidelity,
    bell_measure_distribution,
    bell_outcome_map,
    classify_counts,
    concentrate_exact,
    concentrate_ideal,
    concentration_success_closed_form,
    cv_fidelity,
    cv_max,
    misid_probability_closed,
    partial_pair_state,
    teleport_average_mc,
)
from ecsim.qubit_encoding import (
    BELL_VECTORS,
    PAULI_BASIS,
    PAULIS,
    LogicalBasis,
    TwoQubitDensity,
    bell_state,
    logical_coords,
    make_basis,
)
from reference import (IDEAL_ETAS, QubitVector, average_fidelity_reference, branches_reference,
                       concentration_success_decimal, psi_minus, psi_plus, random_density)

EPS = np.finfo(float).eps
SQ2 = math.sqrt(2.0)
SQRT_HALF = 1.0 / SQ2


# The paper's single-shot teleportation scheme: the reference that the exact
# average and the Monte Carlo of the library are checked against.


@dataclass(frozen=True)
class TeleportRecord:
    """One teleportation shot: sampled outcome and corrected output."""

    input: QubitVector
    outcome: BellLabel
    output: np.ndarray  # Bob's corrected 2x2 density
    fidelity: float


def teleport(input: QubitVector, channel: TwoQubitDensity, rng_seed: int) -> TeleportRecord:
    """One run of the standard scheme: Bell measurement, Pauli correction.

    The measurement outcome is sampled from its Born probability with a
    seeded generator, so runs are reproducible bit for bit.
    """
    rng = np.random.default_rng(rng_seed)
    psi = input.as_array()
    proj = np.outer(psi, psi.conj())
    branches = np.einsum("aA,kaAil->kil", proj, bell_outcome_map(channel.matrix))
    probs = np.einsum("kii->k", branches).real
    k = int(rng.choice(4, p=probs / probs.sum()))
    rho_out = branches[k] / probs[k]
    fid = float((psi.conj() @ rho_out @ psi).real)
    return TeleportRecord(
        input=input,
        outcome=(BellLabel.B1, BellLabel.B2, BellLabel.B3, BellLabel.B4)[k],
        output=rho_out,
        fidelity=fid,
    )


def _bloch_transfer_reference(lam):
    """Q[k, m, n] = tr(s_m Lambda_k(s_n)) / 4 by direct contraction of the map."""
    return np.einsum("mli,kaAil,naA->kmn", PAULI_BASIS, lam, PAULI_BASIS).real / 4.0


CHANNELS = [
    pytest.param(lambda: channel_rho4(1.0, 0.4), id="rho4"),
    pytest.param(lambda: random_density(1), id="random1"),
    pytest.param(lambda: random_density(2), id="random2"),
    pytest.param(lambda: random_density(3), id="random3"),
]


class TestClassification:
    def test_rule_table(self):
        assert classify_counts(0, 0) is BellLabel.AMBIGUOUS
        assert classify_counts(3, 0) is BellLabel.B2
        assert classify_counts(0, 5) is BellLabel.B4
        assert classify_counts(2, 0) is BellLabel.B1
        assert classify_counts(0, 4) is BellLabel.B3

    def test_label_count_invariants(self):
        for n_f in range(6):
            for n_g in range(6):
                label = classify_counts(n_f, n_g)
                if label is BellLabel.B2:
                    assert n_f % 2 == 1
                elif label is BellLabel.B4:
                    assert n_g % 2 == 1
                elif label is BellLabel.B1:
                    assert n_f > 0 and n_f % 2 == 0
                elif label is BellLabel.B3:
                    assert n_g > 0 and n_g % 2 == 0
                else:
                    assert (n_f, n_g) == (0, 0)


class TestBellMeasurement:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_odd_channels_clean(self, alpha):
        basis = make_basis(alpha, 1.0)
        for k, own in ((2, BellLabel.B2), (4, BellLabel.B4)):
            meas = bell_measure_distribution(bell_state(k, basis))
            for other in (BellLabel.B1, BellLabel.B2, BellLabel.B3, BellLabel.B4):
                if other is not own:
                    assert meas.mass(other) <= 1e-12
            # the odd superposition has no vacuum component either
            assert meas.mass(BellLabel.AMBIGUOUS) <= 1e-12
            assert meas.mass(own) == pytest.approx(1.0, abs=1e-10)

    def test_b1_confusion_mass(self):
        # exact confusion mass u^2/(1+u)^2 with u = exp(-2 alpha^2)
        alpha = 1.0
        u = math.exp(-2.0 * alpha**2)
        meas = bell_measure_distribution(bell_state(1, make_basis(alpha, 1.0)))
        assert meas.mass(BellLabel.B3) == pytest.approx(u**2 / (1 + u) ** 2, abs=1e-10)
        assert meas.mass(BellLabel.B1) == pytest.approx(1.0 / (1 + u) ** 2, abs=1e-10)
        assert meas.mass(BellLabel.AMBIGUOUS) == pytest.approx(
            2 * u / (1 + u) ** 2, abs=1e-10
        )

    def test_misid_symmetry(self):
        basis = make_basis(0.7, 1.0)
        m13 = bell_measure_distribution(bell_state(1, basis)).mass(BellLabel.B3)
        m31 = bell_measure_distribution(bell_state(3, basis)).mass(BellLabel.B1)
        assert m13 == pytest.approx(m31, abs=1e-10)

    def test_probabilities_sum_to_one(self):
        meas = bell_measure_distribution(bell_state(3, make_basis(0.6, 1.0)))
        total = sum(p for _, p in meas.outcomes)
        assert total == pytest.approx(1.0, abs=meas.tail_bound + 1e-10)

    def test_misidentification_ratio(self):
        # half the B3 share u^2/(1+u^2) of the B1/B3 declarations
        alpha = 0.8
        u = math.exp(-2.0 * alpha**2)
        meas = bell_measure_distribution(bell_state(1, make_basis(alpha, 1.0)))
        assert meas.misidentification() == pytest.approx(0.5 * u**2 / (1 + u**2), abs=1e-10)

    def test_equal_counts_give_the_same_record(self):
        # a record is made once per count pair and shared by every call
        first = bell_measure_distribution(bell_state(1, make_basis(1.2, 1.0)))
        again = bell_measure_distribution(bell_state(1, make_basis(1.2, 1.0)))
        other = bell_measure_distribution(bell_state(3, make_basis(0.9, 1.0)))
        assert all(a is b for (a, _), (b, _) in zip(first.outcomes, again.outcomes, strict=True))
        records = {o.counts: o for o, _ in first.outcomes}
        shared = [o for o, _ in other.outcomes if o.counts in records]
        assert shared and all(records[o.counts] is o for o in shared)

    def test_record_cache_is_bounded(self):
        cached = protocols._bell_outcome
        assert cached.cache_info().maxsize == protocols.BELL_RECORDS_CACHED
        for n_g in range(protocols.BELL_RECORDS_CACHED + 1):
            assert cached(7, n_g).counts == (7, n_g)
        assert cached.cache_info().currsize == protocols.BELL_RECORDS_CACHED

    def test_tail_tolerance(self):
        state = bell_state(1, make_basis(4.0, 1.0))
        # the record carries the bound; the bellmeas command refuses it
        assert bell_measure_distribution(state, cutoff=5).tail_bound > 1e-9
        assert bell_measure_distribution(state).tail_bound <= 1e-9


class TestMisidentification:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_matches_closed_form(self, alpha):
        meas = bell_measure_distribution(bell_state(1, make_basis(alpha, 1.0)))
        assert meas.misidentification() == pytest.approx(
            misid_probability_closed(alpha), abs=1e-6
        )

    def test_small_amplitude_limit(self):
        assert misid_probability_closed(1e-4) == pytest.approx(0.25, abs=1e-7)

    def test_value_at_unit_amplitude(self):
        assert misid_probability_closed(1.0) == pytest.approx(
            1.0 / (2.0 * (1.0 + math.exp(4.0))), rel=1e-12
        )

    def test_decreases_with_amplitude(self):
        vals = [misid_probability_closed(a) for a in (0.3, 0.7, 1.2, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha", [0.1, 0.7760918271062733, 1.4172578820939519,
                                       7.565706835583058, 466.2951147485065])
    def test_squares_alpha_correctly_rounded(self, alpha):
        # the form taken on the correctly rounded a^2, which a product gives and
        # libm's pow misses by an ulp at each amplitude here but 0.1
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            square = float(decimal.Decimal(alpha) ** 2)
        x = math.exp(-4.0 * square)
        assert misid_probability_closed(alpha) == 0.5 * x / (1.0 + x)


class TestTeleport:
    def test_pure_channel_perfect_every_outcome(self):
        channel = channel_rho4(1.0, 0.0)
        rng = np.random.default_rng(51)
        seen = set()
        for seed in range(40):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            rec = teleport(QubitVector(complex(v[0]), complex(v[1])), channel, seed)
            seen.add(rec.outcome)
            assert rec.fidelity == pytest.approx(1.0, abs=1e-12)
        assert seen == {BellLabel.B1, BellLabel.B2, BellLabel.B3, BellLabel.B4}

    def test_useless_channel_gives_half(self):
        channel = TwoQubitDensity(np.eye(4) / 4.0)
        rec = teleport(QubitVector(1.0, 0.0), channel, 7)
        assert rec.fidelity == pytest.approx(0.5, abs=1e-12)
        mean, _ = teleport_average_mc(protocols.bloch_transfer(channel), 500, 11)
        assert mean == pytest.approx(0.5, abs=1e-12)

    def test_seeded_determinism(self):
        channel = channel_rho4(1.0, 0.4)
        q = QubitVector(0.6, 0.8)
        a = teleport(q, channel, 123)
        b = teleport(q, channel, 123)
        assert a.outcome == b.outcome
        assert a.fidelity == b.fidelity
        assert np.array_equal(a.output, b.output)

    def test_record_fidelity_consistent(self):
        channel = channel_rho4(0.8, 0.5)
        q = QubitVector(complex(0.3, 0.4), complex(0.5, math.sqrt(0.5)))
        rec = teleport(q, channel, 5)
        psi = q.as_array()
        assert rec.fidelity == pytest.approx(
            float((psi.conj() @ rec.output @ psi).real), abs=1e-14
        )
        assert np.trace(rec.output).real == pytest.approx(1.0, abs=1e-12)

    def test_mc_matches_exact_average(self):
        q = protocols.bloch_transfer(channel_rho4(1.0, 0.3))
        mean, stderr = teleport_average_mc(q, 100_000, seed=99)
        assert abs(mean - average_fidelity(q)) <= 3 * stderr

    def test_mc_error_scaling(self):
        q = protocols.bloch_transfer(channel_rho4(1.0, 0.5))
        _, se_small = teleport_average_mc(q, 2_000, seed=3)
        _, se_big = teleport_average_mc(q, 32_000, seed=4)
        ratio = se_small / se_big
        assert 2.5 < ratio < 6.5  # expect ~4 for a 16x sample increase

    def test_mc_reproducible(self):
        q = protocols.bloch_transfer(channel_rho4(1.0, 0.6))
        a = teleport_average_mc(q, 5000, seed=21)
        b = teleport_average_mc(q, 5000, seed=21)
        assert a == b


class TestBellOutcomeMap:
    @pytest.mark.parametrize("make_channel", CHANNELS)
    def test_matches_contraction_per_outcome(self, make_channel):
        channel = make_channel()
        lam = bell_outcome_map(channel.matrix)
        assert lam.shape == (4, 2, 2, 2, 2)
        rng = np.random.default_rng(61)
        for _ in range(5):
            # arbitrary operators, not only projectors: the map is linear
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            got = np.einsum("aA,kaAil->kil", x, lam)
            want = branches_reference(x, channel)
            assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("make_channel", CHANNELS)
    def test_average_fidelity_matches_moment_reference(self, make_channel):
        channel = make_channel()
        eye = np.eye(2, dtype=complex)
        assert average_fidelity(protocols.bloch_transfer(channel)) == pytest.approx(
            average_fidelity_reference(channel, eye), abs=1e-14
        )
        # a global Pauli P after the corrections acts as P on Bob's half of
        # the channel (Paulis commute up to a phase), so the best remapping
        # is the best scheme average over the four rotated channels
        best = max(average_fidelity_reference(channel, r) for r in (eye,) + PAULIS)
        rotated = [np.kron(eye, r) @ channel.matrix @ np.kron(eye, r.conj().T)
                   for r in (eye,) + PAULIS]
        assert max(average_fidelity(protocols.bloch_transfer(TwoQubitDensity(m)))
                   for m in rotated) == pytest.approx(best, abs=1e-14)


class TestBlochTransfer:
    @pytest.mark.parametrize("make_channel", CHANNELS)
    def test_matches_outcome_map_contraction(self, make_channel):
        channel = make_channel()
        want = _bloch_transfer_reference(bell_outcome_map(channel.matrix))
        assert np.max(np.abs(protocols.bloch_transfer(channel) - want)) <= 1e-15


class TestMonteCarloBlocks:
    # (mean, stderr) computed by the earlier implementation, which
    # held a (samples, 4, 2, 2) branch array and drew outcomes with
    # uniform(0, total): same seed, same random stream, same estimate.
    @pytest.mark.parametrize(
        "make_channel,samples,seed,mean,stderr",
        [
            (lambda: channel_rho4(1.0, 0.3), 5000, 99,
             0.8944951101044011, 0.000726434590389779),
            (lambda: random_density(2024), 4097, 7,
             0.539715992573849, 0.0019525872578060358),
            (lambda: channel_rho4(2.0, 0.9), 3, 12345,
             0.692726787931774, 0.02124430316210702),
        ],
    )
    def test_estimate_pinned(self, make_channel, samples, seed, mean, stderr):
        got = teleport_average_mc(protocols.bloch_transfer(make_channel()), samples, seed)
        assert got[0] == pytest.approx(mean, abs=1e-14)
        assert got[1] == pytest.approx(stderr, abs=1e-14)

    def test_working_memory_is_a_few_floats_per_shot(self):
        samples = 200_000
        tracemalloc.start()
        try:
            teleport_average_mc(protocols.bloch_transfer(channel_rho4(1.0, 0.5)), samples,
                                seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the fidelity per shot (the closing statistics work in place) and one
        # block's work arrays, which hold its draws too (~1.5 MB, 186 B a block
        # shot): 3.1-3.9 MB at 200 000 shots.  Draws made up front for every shot
        # would add 24 B a shot, and a per-shot branch array alone would be 256 B a shot
        assert peak < 2 * 8 * samples + 200 * protocols.MC_CHUNK


class TestAverageFidelity:
    def test_perfect_channel(self):
        assert average_fidelity(protocols.bloch_transfer(channel_rho4(1.0, 0.0))) == \
            pytest.approx(1.0, abs=1e-12)

    def test_takes_a_bloch_transfer(self):
        rho = channel_rho4(1.3, 0.4)
        q = protocols.bloch_transfer(rho)
        assert isinstance(average_fidelity(q), float)
        with pytest.raises(ValueError):  # numpy's, from a (4, 4) density
            average_fidelity(rho.matrix)

    def test_classical_limit_at_characteristic_time(self):
        q = protocols.bloch_transfer(channel_rho4(1.0, SQRT_HALF))
        assert average_fidelity(q) == pytest.approx(
            2.0 / 3.0, abs=1e-9
        )

    def test_bell_diagonal_weighted_average(self):
        rng = np.random.default_rng(52)
        p = rng.dirichlet(np.ones(4))
        m = sum(
            pi * np.outer(b, b.conj()) for pi, b in zip(p, BELL_VECTORS)
        )
        rho = TwoQubitDensity(m)
        # fixed corrections teleport the antisymmetric component perfectly
        # and scramble the rest isotropically
        want = p[3] + (1.0 - p[3]) / 3.0
        q = protocols.bloch_transfer(rho)
        assert average_fidelity(q) == pytest.approx(want, abs=1e-12)
        mean, stderr = teleport_average_mc(q, 60_000, seed=8)
        assert abs(mean - want) <= 3 * stderr


# ---------------------------------------------------------------------------
# In-test references: the paper's finite-amplitude receiver corrections in
# the coherent representation, and the logical coordinates of single-mode
# states that they are checked in.


def from_amplitudes(a: complex, b: complex, basis: LogicalBasis) -> QubitVector:
    """Logical coordinates of  a |ta> + b |-ta>.

    The exact basis inversion gives plus = a cos th + b sin th and
    minus = a sin th + b cos th (the 1/cos 2th from inverting the 2x2 system
    cancels against sqrt(N_theta) identically).  The coefficient norm equals
    the physical state norm, so normalization only rescales unnormalized
    inputs.
    """
    a = complex(a)
    b = complex(b)
    if abs(a) == 0 and abs(b) == 0:
        raise ValueError("amplitudes must not both vanish")
    c, s = basis.cos_sin.tolist()
    plus = a * c + b * s
    minus = a * s + b * c
    n = math.sqrt(abs(plus) ** 2 + abs(minus) ** 2)
    return QubitVector(plus / n, minus / n)


def qubit_to_coherent(q: QubitVector, basis: LogicalBasis) -> CoherentSuperposition:
    """Realize a logical vector as the corresponding coherent superposition."""
    return consolidate(q.plus * psi_plus(basis) + q.minus * psi_minus(basis))


def to_logical_qubit(state: CoherentSuperposition, basis: LogicalBasis) -> np.ndarray:
    """Project a single-mode state in span{|ta>, |-ta>} onto (Psi+, Psi-)."""
    if state.modes != 1:
        raise ValueError("expected a single-mode state")
    return state.coeffs @ logical_coords(state.amps[:, 0], basis)


def correction_map_coherent(
    outcome: BellLabel, state: CoherentSuperposition, alpha: float
) -> CoherentSuperposition:
    """Receiver-side correction in the coherent representation.

    B2 is an exact pi phase shift and B4 the identity; B1 and B3 apply the
    finite-amplitude operators

        B1:  |a> -> (sin2th |a> - |-a>)/N_th,   |-a> -> (|a> - sin2th |-a>)/N_th
        B3:  |a> -> (|a> - sin2th |-a>)/N_th,   |-a> -> (sin2th |a> - |-a>)/N_th

    which are non-unitary at finite amplitude (they approach -i sigma_y and
    -sigma_z as the amplitude grows); the result is renormalized.
    """
    if state.modes != 1:
        raise ValueError("expected a single-mode state")
    basis = make_basis(alpha, 1.0)
    if outcome is BellLabel.B4:
        return state
    if outcome is BellLabel.B2:
        return phase_shift(state, 0, math.pi)
    if outcome is BellLabel.AMBIGUOUS:
        raise ValueError("ambiguous outcome is a protocol failure; no correction")
    u = basis.sin2theta
    n = basis.n_theta
    plus = CoherentSuperposition.ket(alpha)
    minus = CoherentSuperposition.ket(-alpha)
    if outcome is BellLabel.B1:
        img_plus = (1.0 / n) * (u * plus + (-1.0) * minus)
        img_minus = (1.0 / n) * (plus + (-1.0) * (u * minus))
    else:  # B3
        img_plus = (1.0 / n) * (plus + (-1.0) * (u * minus))
        img_minus = (1.0 / n) * (u * plus + (-1.0) * minus)
    amp = state.amps[:, 0]
    on_plus = np.abs(amp - alpha) < 1e-9
    bad = ~on_plus & ~(np.abs(amp + alpha) < 1e-9)
    if bad.any():
        raise SpanError(f"amplitude {complex(amp[bad][0])!r} outside span of +-{alpha}")
    # both images are on the kets (|a>, |-a>), in that order
    images = np.where(on_plus[:, None], img_plus.coeffs, img_minus.coeffs)
    total = CoherentSuperposition(
        (state.coeffs[:, None] * images).ravel(), np.tile(img_plus.amps, (len(amp), 1))
    )
    return normalized(consolidate(total))


class TestQubitVector:
    def test_from_amplitudes_basis_ket(self):
        b = make_basis(1.0, 1.0)
        q = from_amplitudes(1.0, 0.0, b)
        assert q.plus == pytest.approx(b.cos_sin[0], abs=1e-12)
        assert q.minus == pytest.approx(b.cos_sin[1], abs=1e-12)

    def test_symmetric_state(self):
        b = make_basis(0.6, 1.0)
        x = 1.0 / math.sqrt(2.0 * (1.0 + b.sin2theta))
        q = from_amplitudes(x, x, b)
        assert abs(q.plus) == pytest.approx(1.0 / SQ2, abs=1e-12)
        assert q.plus == pytest.approx(q.minus, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(22)
        b = make_basis(1.1, 0.8)
        for _ in range(20):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            q = QubitVector(complex(v[0]), complex(v[1]))
            state = qubit_to_coherent(q, b)
            back = to_logical_qubit(state, b)
            phase = np.vdot(back, q.as_array())
            assert abs(abs(phase) - 1.0) < 1e-12
            assert np.max(np.abs(q.as_array() - phase / abs(phase) * back)) < 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            from_amplitudes(0.0, 0.0, make_basis(1.0, 1.0))


class TestCorrectionMaps:
    def test_identity_outcome(self):
        s = CoherentSuperposition.ket(1.0)
        assert correction_map_coherent(BellLabel.B4, s, 1.0) is s

    def test_phase_flip_outcome(self):
        out = correction_map_coherent(BellLabel.B2, CoherentSuperposition.ket(1.0), 1.0)
        assert out.amps[0, 0] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_b3_acts_as_z_flip(self, alpha):
        basis = make_basis(alpha, 1.0)
        q = from_amplitudes(0.8, 0.6j, basis)
        state = qubit_to_coherent(q, basis)
        mapped = correction_map_coherent(BellLabel.B3, state, alpha)
        got = to_logical_qubit(mapped, basis)
        want = np.array([-q.plus, q.minus])  # -sigma_z action
        phase = np.vdot(got, want)
        assert abs(abs(phase) - 1.0) < 1e-3
        assert np.max(np.abs(want - phase / abs(phase) * got)) < 1e-3

    def test_b1_acts_as_y_rotation(self):
        alpha = 1.5
        basis = make_basis(alpha, 1.0)
        q = from_amplitudes(0.3, 0.9, basis)
        state = qubit_to_coherent(q, basis)
        mapped = correction_map_coherent(BellLabel.B1, state, alpha)
        got = to_logical_qubit(mapped, basis)
        isy = np.array([[0.0, 1.0], [-1.0, 0.0]])
        want = isy @ q.as_array()
        want /= np.linalg.norm(want)
        phase = np.vdot(got, want)
        assert abs(abs(phase) - 1.0) < 1e-10

    def test_outside_span_rejected(self):
        with pytest.raises(SpanError):
            correction_map_coherent(
                BellLabel.B3, CoherentSuperposition.ket(0.5), 1.0
            )

    def test_ambiguous_has_no_correction(self):
        with pytest.raises(ValueError):
            correction_map_coherent(
                BellLabel.AMBIGUOUS, CoherentSuperposition.ket(1.0), 1.0
            )


# The ideal swap's test angles: the CLI's defaults and pinned etas, and pi/4.
def swapped_pairs(eta: float) -> np.ndarray:
    """Each outcome's corrected pair on (b', c), unnormalized, shape (4, 4, 4).

    The swap teleports b'' through the second pair: the Bell-outcome map of
    the pair density, contracted with the first pair on b'', gives the pair
    that outcome k leaves, U_k applied to c.  Its trace is the probability of k.
    """
    pair = np.array([0.0, math.cos(eta), -math.sin(eta), 0.0])
    rho = np.outer(pair, pair)
    # first pair [b', b'', b', b''] = [i, a, j, A]; the map's [k, a, A, c, C]
    out = np.einsum("iajA,kaAcC->kicjC", rho.reshape(2, 2, 2, 2), bell_outcome_map(rho))
    return out.reshape(4, 4, 4)


def assert_maximally_entangled(pair: np.ndarray):
    """The normalized pair is pure and its reduced state on b' is I/2."""
    rho = pair / np.trace(pair).real
    assert abs(np.trace(rho @ rho) - 1.0) < 1e-12
    reduced = np.einsum("icjc->ij", rho.reshape(2, 2, 2, 2))
    assert np.max(np.abs(reduced - np.eye(2) / 2.0)) < 1e-12


class TestConcentrationIdeal:
    def test_probabilities_are_the_traces_of_the_teleported_pairs(self):
        # measured: 5.6e-17 at most
        for eta in IDEAL_ETAS:
            traces = np.einsum("kii->k", swapped_pairs(eta)).real
            assert np.max(np.abs(traces - concentrate_ideal(eta))) <= 1e-16, eta

    def test_symmetric_input_all_outcomes_maximal(self):
        probs = concentrate_ideal(math.pi / 4)
        assert probs[0] == pytest.approx(0.25, abs=1e-12)
        assert probs[1] == pytest.approx(0.25, abs=1e-12)
        for pair in swapped_pairs(math.pi / 4):
            assert_maximally_entangled(pair)

    @pytest.mark.parametrize("eta", [math.pi / 8, math.pi / 6, math.pi / 3])
    def test_success_probabilities(self, eta):
        probs = concentrate_ideal(eta)
        want = (math.cos(eta) * math.sin(eta)) ** 2
        assert probs[0] == pytest.approx(want, abs=1e-12)
        assert probs[1] == pytest.approx(want, abs=1e-12)

    def test_outcome_structure(self):
        eta = math.pi / 6
        probs = concentrate_ideal(eta)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        # failed branches keep probability (cos^4 + sin^4)/2 each
        tail = (math.cos(eta) ** 4 + math.sin(eta) ** 4) / 2.0
        assert probs[2] == pytest.approx(tail, abs=1e-12)
        assert probs[3] == pytest.approx(tail, abs=1e-12)
        # B4 needs no correction and leaves cos^2 |+-> - sin^2 |-+>
        want = np.zeros(4)
        want[1] = math.cos(eta) ** 2
        want[2] = -math.sin(eta) ** 2
        want /= np.linalg.norm(want)
        got = swapped_pairs(eta)[3]
        assert np.max(np.abs(got / np.trace(got) - np.outer(want, want))) < 1e-12

    def test_first_outcomes_maximally_entangled(self):
        pairs = swapped_pairs(math.pi / 8)
        for k in (0, 1):
            assert_maximally_entangled(pairs[k])


# The exact swap's error model: |p_exact - p_closed| <= eps (K / N_theta + C).
# Measured: 1.6 eps/N_theta at most (at alpha ~ 1.3, where N_theta ~ 1), 0.46
# below alpha = 0.3; at most 0.41 of the bound on 80 alpha by 44 eta.
SWAP_ERROR_K, SWAP_ERROR_C = 1.0, 3.0


class TestConcentrationExact:
    def test_pair_state_normalized(self):
        s = partial_pair_state(make_basis(0.7, 1.0), math.pi / 6)
        assert norm(s) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 2.6, 9.0])
    def test_pair_state_has_the_bytes_of_two_kets(self, alpha):
        # reference: the two-ket construction cos(eta) |a,-a> - sin(eta) |-a,a>
        basis = make_basis(alpha, 1.0)
        a = basis.amplitude
        for eta in (0.01, math.pi / 8, math.pi / 4, 1.2, math.pi / 2 - 1e-9):
            want = normalized(math.cos(eta) * CoherentSuperposition.ket(a, -a)
                              + (-1.0) * (math.sin(eta) * CoherentSuperposition.ket(-a, a)))
            got = partial_pair_state(basis, eta)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert got.amps.tobytes() == want.amps.tobytes()

    def test_outcome_is_exactly_b2(self):
        for alpha, eta in ((0.5, math.pi / 8), (1.0, math.pi / 6), (2.0, math.pi / 3)):
            res = concentrate_exact(alpha, eta)
            b2 = bell_state(2, make_basis(alpha, 1.0))
            assert abs(inner(res.state, b2)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("eta", [math.pi / 8, math.pi / 4, math.pi / 3])
    def test_matches_closed_form(self, alpha, eta):
        res = concentrate_exact(alpha, eta)
        assert res.success_probability == pytest.approx(
            concentration_success_closed_form(alpha, eta), abs=1e-12
        )

    def test_error_model(self):
        # at small alpha the swap's error grows as 1/N_theta: 6.7e-12 at alpha = 1e-3
        alphas = np.geomspace(1e-3, 3.0, 15)
        etas = np.append(np.linspace(0.1, 1.45, 12), math.pi / 4)
        exact = np.array([[concentrate_exact(a, e).success_probability for e in etas.tolist()]
                          for a in alphas.tolist()])
        closed = concentration_success_closed_form(alphas[:, None], etas)
        n_theta = make_basis(alphas, 1.0).n_theta[:, None]
        bound = EPS * (SWAP_ERROR_K / n_theta + SWAP_ERROR_C)
        assert (np.abs(exact - closed) <= bound).all()

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_symmetric_pair_gives_quarter(self, alpha):
        # at eta = pi/4 both pairs are maximally entangled and each Bell
        # outcome carries probability exactly 1/4 at any amplitude
        res = concentrate_exact(alpha, math.pi / 4)
        assert res.success_probability == pytest.approx(0.25, abs=1e-12)

    def test_state_is_normalized_chi_with_one_inner_product_fewer(self, monkeypatch):
        # the kept state is normalized(chi) bit for bit, from the one <chi|chi>
        calls = []
        counted = lambda a, b: calls.append(1) or inner(a, b)
        monkeypatch.setattr(protocols, "inner", counted)
        monkeypatch.setattr(coherent_states, "inner", counted)
        alpha, eta = 0.8, math.pi / 5
        d4 = partial_pair_state(make_basis(alpha, 1.0), eta)
        chi = project_modes(tensor(d4, d4), (1, 2), bell_state(2, make_basis(alpha, 1.0)))
        want = normalized(chi)
        reference = len(calls) + 1  # the success probability's <chi|chi>
        calls.clear()
        res = concentrate_exact(alpha, eta)
        assert len(calls) == reference - 1
        assert res.state.coeffs.tobytes() == want.coeffs.tobytes()
        assert res.state.amps.tobytes() == want.amps.tobytes()

    def test_amplitude_limits(self):
        for eta in (math.pi / 8, math.pi / 6, math.pi / 3):
            want = (math.cos(eta) * math.sin(eta)) ** 2
            assert concentrate_exact(3.0, eta).success_probability == pytest.approx(
                want, abs=1e-6
            )
            assert concentrate_exact(0.05, eta).success_probability < 1e-3


class TestConcentrationClosedForm:
    def test_within_eight_eps_of_the_stated_form(self):
        # the stated form in 50-digit decimal; measured: 4.6 eps at most, where
        # 1 - sin^2(2 th) sin(2 eta) evaluated as written lost 3.4e5 eps near pi/4
        q = math.pi / 4
        alphas = np.geomspace(1e-3, 3.0, 25)
        etas = np.concatenate([np.linspace(0.02, 1.55, 60), [
            q, q - 1e-2, q + 1e-2, q - 1e-4, q + 1e-4, q - 1e-6, q + 1e-6, q - 1e-9, q + 1e-9,
            1e-6, math.pi / 2 - 1e-6]])
        got = concentration_success_closed_form(alphas[:, None], etas)
        want = concentration_success_decimal(alphas.tolist(), etas.tolist())
        worst = max(abs((decimal.Decimal(p) - w) / w)
                    for row, want_row in zip(got.tolist(), want) for p, w in zip(row, want_row))
        assert worst <= 8 * EPS, float(worst) / EPS

    @pytest.mark.parametrize("alpha", [1e-3, 1e-2, 0.5, 3.0])
    def test_symmetric_pair_reads_a_quarter(self, alpha):
        assert concentration_success_closed_form(alpha, math.pi / 4) == 0.25


class TestCvFidelity:
    def test_overflowing_squares_read_a_half(self):
        assert cv_fidelity(np.array([1e200, -1e300])).tolist() == [0.5, 0.5]

    def test_zero_amplitude(self):
        assert cv_fidelity(0.0) == 0.5

    def test_better_than_classical(self):
        for x in np.linspace(0.05, 4.0, 50):
            assert cv_fidelity(float(x)) > 0.5
            assert cv_fidelity(float(-x)) > 0.5

    def test_even_function(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            x = rng.uniform(0.0, 4.0)
            assert cv_fidelity(x) == cv_fidelity(-x)

    def test_large_amplitude_limit(self):
        assert cv_fidelity(6.0) == pytest.approx(0.5, abs=1e-14)

    def test_maximum(self):
        x_star, f_star = cv_max()
        # analytic optimum: u = sqrt(2)-1, f* = (1+sqrt 2)/4
        want_f = (1.0 + SQ2) / 4.0
        want_x = math.sqrt(math.log(1.0 + SQ2) / 2.0)
        assert f_star == pytest.approx(want_f, abs=1e-12)
        assert x_star == pytest.approx(want_x, abs=1e-6)
        assert 0.59 <= f_star <= 0.61
        assert 0.6 <= x_star <= 0.8

    def test_maximum_is_the_function_at_its_peak(self):
        # within 1 ulp of the 50-digit optimum, and no fidelity on a fine grid
        # about x*, nor at x* itself, is off f* by more than an ulp
        x_star, f_star = cv_max()
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            root2 = decimal.Decimal(2).sqrt()
            assert abs(decimal.Decimal(x_star) - ((1 + root2).ln() / 2).sqrt()) <= math.ulp(x_star)
            assert abs(decimal.Decimal(f_star) - (1 + root2) / 4) <= math.ulp(f_star)
        near = cv_fidelity(x_star + np.linspace(-1e-3, 1e-3, 20001))
        assert near.max() <= f_star + math.ulp(f_star)
        assert abs(cv_fidelity(x_star) - f_star) <= math.ulp(f_star)

    def test_maximum_is_interior_and_local(self):
        x_star, f_star = cv_max()
        assert 0.0 < x_star < 5.0
        for step in (1e-3, 1e-2, 1e-1):
            assert cv_fidelity(x_star - step) < f_star
            assert cv_fidelity(x_star + step) < f_star
