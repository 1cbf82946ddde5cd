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
    inner,
    norm,
    normalized,
    project_modes,
    tensor,
)
from ecsim.decoherence import channel_rho4
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
from ecsim.qubit_encoding import TwoQubitDensity, bell_state, make_basis
from reference import QubitVector, bell_diagonal, random_density, swapped_pairs

SQ2 = math.sqrt(2.0)
SQRT_HALF = 1.0 / SQ2


# The paper's single-shot teleportation scheme, one shot through the library's
# Bell-outcome map and corrections, which TestTeleport checks.


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
        # the Monte Carlo within 3 stderr; the exact average's bound is the
        # bell-diagonal-average row of test_accuracy.py
        rho, want = bell_diagonal(52)
        q = protocols.bloch_transfer(rho)
        mean, stderr = teleport_average_mc(q, 60_000, seed=8)
        assert abs(mean - want) <= 3 * stderr


def assert_maximally_entangled(pair: np.ndarray):
    """The normalized pair is pure and its reduced state on b' is I/2."""
    rho = pair / np.trace(pair).real
    assert abs(np.trace(rho @ rho) - 1.0) < 1e-12
    reduced = np.einsum("icjc->ij", rho.reshape(2, 2, 2, 2))
    assert np.max(np.abs(reduced - np.eye(2) / 2.0)) < 1e-12


class TestConcentrationIdeal:
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


class TestConcentrationClosedForm:
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
        # no fidelity on a fine grid about x* is above f* by more than an ulp;
        # x*, f* and the function at x* are within an ulp of the 50-digit
        # optimum in the cv-max row of test_accuracy.py
        x_star, f_star = cv_max()
        near = cv_fidelity(x_star + np.linspace(-1e-3, 1e-3, 20001))
        assert near.max() <= f_star + math.ulp(f_star)

    def test_maximum_is_interior_and_local(self):
        x_star, f_star = cv_max()
        assert 0.0 < x_star < 5.0
        for step in (1e-3, 1e-2, 1e-1):
            assert cv_fidelity(x_star - step) < f_star
            assert cv_fidelity(x_star + step) < f_star
