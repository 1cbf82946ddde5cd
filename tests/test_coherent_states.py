"""Coherent-state algebra: overlaps, linear optics, Fock oracle."""
import cmath
import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special, stats
from scipy.linalg import expm

from ecsim import coherent_states
from ecsim.coherent_states import (
    DROP_TOL,
    FOCK_CELL_BUDGET,
    CoherentOperator,
    CoherentSuperposition,
    auto_cutoff,
    beam_split,
    consolidate,
    dyad_from_pure,
    inner,
    log_overlap,
    norm,
    normalized,
    operator_trace,
    phase_shift,
    photon_distribution,
    poisson_tail_bound,
    project_modes,
    tensor,
    to_fock,
    truncation_tail_bound,
)
from ecsim.errors import CutoffError
from reference import TAIL_MEANS, array_state, exact_poisson_tails, operator_sum

SQ2 = math.sqrt(2.0)


def random_state(rng, modes=1, max_terms=4, max_amp=2.0):
    n = int(rng.integers(1, max_terms + 1))
    coeffs = np.empty(n, dtype=complex)
    amps = np.empty((n, modes), dtype=complex)
    for t in range(n):
        for m in range(modes):
            amps[t, m] = (
                complex(rng.uniform(-max_amp, max_amp), rng.uniform(-max_amp, max_amp))
                / SQ2
            )
        coeffs[t] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return CoherentSuperposition(coeffs, amps)


def fock_inner(a, b) -> complex:
    """<a|b> of two Fock vectors on the same modes and cutoff."""
    assert (a.modes, a.cutoff) == (b.modes, b.cutoff)
    return complex(np.vdot(a.amps, b.amps))


class TestOverlap:
    def test_identical(self):
        assert cmath.exp(log_overlap(0.7 + 0.2j, 0.7 + 0.2j)) == pytest.approx(1.0, abs=1e-15)

    def test_real_pair(self):
        assert cmath.exp(log_overlap(1.0, -1.0)) == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            g = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert cmath.exp(log_overlap(b, g)) == pytest.approx(
                cmath.exp(log_overlap(g, b)).conjugate(), abs=1e-14
            )

    def test_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            g = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert abs(cmath.exp(log_overlap(b, g))) <= 1.0 + 1e-14



class TestInner:
    def test_cancellation(self):
        s = CoherentSuperposition.ket(0.9) + (-1.0) * CoherentSuperposition.ket(0.9)
        assert abs(inner(s, s)) < 1e-14

    def test_sesquilinear(self):
        rng = np.random.default_rng(7)
        a = random_state(rng, modes=2)
        b = random_state(rng, modes=2)
        c = 0.3 - 1.2j
        assert inner(a, c * b) == pytest.approx(c * inner(a, b), rel=1e-12)
        assert inner(c * a, b) == pytest.approx(c.conjugate() * inner(a, b), rel=1e-12)


class TestBeamSplit:
    def test_merges_equal_amplitudes(self):
        out = consolidate(beam_split(CoherentSuperposition.ket(0.8, 0.8), 0, 1))
        assert len(out.coeffs) == 1
        assert out.amps[0, 0] == pytest.approx(SQ2 * 0.8, abs=1e-15)
        assert out.amps[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_vacuum_fixed_point(self):
        out = beam_split(CoherentSuperposition.ket(0.0, 0.0), 0, 1)
        assert all(a == 0 for a in out.amps[0])

    def test_double_application_is_identity(self):
        # The fixed real 50:50 convention is self-inverse term by term.
        rng = np.random.default_rng(8)
        s = random_state(rng, modes=2, max_terms=5)
        twice = beam_split(beam_split(s, 0, 1), 0, 1)
        assert np.max(np.abs(twice.coeffs - s.coeffs)) <= 1e-15
        assert np.max(np.abs(twice.amps - s.amps)) <= 1e-14

    def test_norm_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            s = random_state(rng, modes=2, max_terms=6)
            before = inner(s, s).real
            after = inner(beam_split(s, 0, 1), beam_split(s, 0, 1)).real
            assert after == pytest.approx(before, abs=1e-12 * max(1.0, before))

    def test_against_fock_unitary(self):
        # Independent oracle: the same map as a truncated-Fock unitary,
        # a pi/4 two-mode rotation followed by a pi phase on the second
        # output, built from exp(theta (ad b - a bd)) and exp(i pi n).
        cutoff = 30
        dim = cutoff + 1
        a = np.diag(np.sqrt(np.arange(1, dim)), 1)
        ad = a.conj().T
        gen = np.kron(ad, a) - np.kron(a, ad)
        rot = expm((math.pi / 4.0) * gen)
        phase = np.diag(np.exp(1j * math.pi * np.arange(dim)))
        u_bs = np.kron(np.eye(dim), phase) @ rot
        rng = np.random.default_rng(10)
        for _ in range(5):
            s = random_state(rng, modes=2, max_terms=3, max_amp=1.2)
            direct = to_fock(beam_split(s, 0, 1), cutoff).amps.reshape(-1)
            mapped = u_bs @ to_fock(s, cutoff).amps.reshape(-1)
            assert np.max(np.abs(direct - mapped)) < 1e-8


class TestPhaseShift:
    def test_pi_flips_sign(self):
        out = phase_shift(CoherentSuperposition.ket(0.9), 0, math.pi)
        assert out.amps[0, 0] == pytest.approx(-0.9, abs=1e-15)

    def test_zero_is_identity(self):
        s = CoherentSuperposition.ket(1.1 + 0.3j)
        out = phase_shift(s, 0, 0.0)
        assert out.amps[0, 0] == s.amps[0, 0]

    def test_inverse(self):
        rng = np.random.default_rng(11)
        s = random_state(rng, modes=2)
        back = phase_shift(phase_shift(s, 1, 0.77), 1, -0.77)
        assert np.max(np.abs(back.amps - s.amps)) <= 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(12)
        s = random_state(rng, modes=1, max_terms=6)
        before = inner(s, s).real
        after = inner(phase_shift(s, 0, 1.3), phase_shift(s, 0, 1.3)).real
        assert after == pytest.approx(before, abs=1e-12 * max(1.0, before))


class TestFock:
    def test_vacuum(self):
        fv = to_fock(CoherentSuperposition.ket(0.0), 10)
        assert fv.amps[0] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(fv.amps[1:])) == 0.0

    def test_even_state_has_no_odd_support(self):
        alpha = 0.9
        even = CoherentSuperposition.ket(SQ2 * alpha) + CoherentSuperposition.ket(
            -SQ2 * alpha
        )
        fv = to_fock(even, 40)
        assert np.max(np.abs(fv.amps[1::2])) < 1e-15

    def test_norm_matches_analytic_inner(self):
        rng = np.random.default_rng(13)
        for modes in (1, 2):
            for _ in range(10):
                s = random_state(rng, modes=modes, max_terms=4)
                fv = to_fock(s)
                n_fock = float(np.vdot(fv.amps, fv.amps).real)
                n_exact = inner(s, s).real
                assert abs(n_fock - n_exact) <= fv.tail_bound + 1e-12

    def test_cross_inner_within_tail(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = random_state(rng, modes=2, max_terms=3)
            b = random_state(rng, modes=2, max_terms=3)
            cutoff = max(auto_cutoff(a), auto_cutoff(b))
            fa, fb = to_fock(a, cutoff), to_fock(b, cutoff)
            bound = math.sqrt(fa.tail_bound * fb.tail_bound) + 1e-12
            assert abs(fock_inner(fa, fb) - inner(a, b)) <= bound

    def test_cutoff_error_reported(self):
        # the record carries the truncation: P(N > 3) for N ~ Poisson(4), at
        # most 5 P(N = 4), the one-term bound at a mean below cutoff + 2
        fv = to_fock(CoherentSuperposition.ket(2.0), 3)
        assert special.pdtrc(3, 4.0) < fv.tail_bound < 1.0
        assert fv.tail_bound == pytest.approx(5.0 * stats.poisson.pmf(4, 4.0), rel=1e-12)

    def test_cell_budget(self, monkeypatch):
        # refused before anything of the grid's size is allocated (at the
        # default budget: GUARDS' fock-budget rows)
        assert FOCK_CELL_BUDGET == 2**24
        monkeypatch.setattr(coherent_states, "FOCK_CELL_BUDGET", 100)
        s = CoherentSuperposition.ket(0.3, 0.2)
        assert to_fock(s, 9).amps.shape == (10, 10)
        with pytest.raises(CutoffError, match="budget"):
            to_fock(s, 10)
        with pytest.raises(CutoffError, match="budget"):
            photon_distribution(s, 10)

    def test_cell_budget_counts_terms(self, monkeypatch):
        # the working array holds (cutoff + 1)^(modes - 1) amplitudes per term
        monkeypatch.setattr(coherent_states, "FOCK_CELL_BUDGET", 100)
        amps = np.linspace(-0.5, 0.5, 21)

        def state(terms):
            return CoherentSuperposition(np.ones(terms, dtype=complex),
                                         np.stack([amps[:terms], amps[::-1][:terms]], axis=1))

        assert to_fock(state(10), 9).amps.shape == (10, 10)
        with pytest.raises(CutoffError, match="11 terms"):
            to_fock(state(11), 9)
        assert to_fock(state(20), 4).amps.shape == (5, 5)
        with pytest.raises(CutoffError, match="budget"):
            photon_distribution(normalized(state(21)), 4)

    def test_cell_budget_counts_one_mode_terms(self, monkeypatch):
        # one mode builds a table of cutoff + 1 amplitudes per term, not a
        # grid of cutoff + 1 alone
        budget = 10_000
        monkeypatch.setattr(coherent_states, "FOCK_CELL_BUDGET", budget)

        def state(terms):
            return CoherentSuperposition(np.ones(terms, dtype=complex),
                                         np.linspace(-1.0, 1.0, terms)[:, None] + 0.5j)

        with pytest.raises(CutoffError, match="51 terms"):
            to_fock(state(51), 199)
        with pytest.raises(CutoffError, match="budget"):
            to_fock(state(200), 199)
        to_fock(state(50), 199)  # warm the cutoff's row before measuring
        tracemalloc.start()
        try:
            fv = to_fock(state(50), 199)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fv.amps.shape == (200,)
        assert peak <= 4 * budget * 16

    def test_vacuum_amplitude_underflow(self):
        # e^{-|b|^2/2} is subnormal past |b| ~ 37.64 and zero past ~38.6;
        # GUARDS' vacuum-underflow rows refuse 37.7 and 40
        fv = to_fock(CoherentSuperposition.ket(37.0))
        assert abs(fock_inner(fv, fv) - 1.0) < 1e-12

    def test_three_mode_layout(self):
        s = CoherentSuperposition.ket(0.3, 0.0, 0.5)
        fv = to_fock(s, 8)
        assert fv.amps.shape == (9, 9, 9)
        # mode 1 in vacuum: only n1 = 0 occupied
        assert np.max(np.abs(fv.amps[:, 1:, :])) < 1e-15


class TestPhotonDistribution:
    def test_odd_state_even_counts_vanish(self):
        alpha = 0.8
        odd = normalized(
            CoherentSuperposition.ket(SQ2 * alpha)
            + (-1.0) * CoherentSuperposition.ket(-SQ2 * alpha)
        )
        dist = photon_distribution(odd)
        assert np.max(dist.probs[0::2]) < 1e-25

    def test_vacuum(self):
        dist = photon_distribution(CoherentSuperposition.ket(0.0, 0.0))
        assert dist.probs[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(15)
        s = normalized(random_state(rng, modes=2, max_terms=4))
        dist = photon_distribution(s)
        assert dist.probs.min() >= 0.0
        assert dist.probs.sum() == pytest.approx(1.0, abs=dist.tail_bound + 1e-10)


class TestHousekeeping:
    def test_consolidate_merges(self):
        s = CoherentSuperposition.ket(0.5) + CoherentSuperposition.ket(0.5)
        out = consolidate(s)
        assert len(out.coeffs) == 1
        assert out.coeffs[0] == pytest.approx(2.0)

    def test_consolidate_drops_negligible(self):
        s = CoherentSuperposition.ket(0.5) + 1e-30 * CoherentSuperposition.ket(-0.5)
        assert len(consolidate(s).coeffs) == 1

    def test_tensor(self):
        two = tensor(CoherentSuperposition.ket(0.9), CoherentSuperposition.ket(-0.9))
        assert two.modes == 2
        assert two.amps[0].tolist() == [0.9 + 0j, -0.9 + 0j]

    def test_trace_of_pure_dyad(self):
        rng = np.random.default_rng(16)
        s = normalized(random_state(rng, modes=2, max_terms=3))
        assert operator_trace(dyad_from_pure(s)) == pytest.approx(1.0, abs=1e-12)

    def test_project_modes(self):
        # <a|_0 (|a>|b> + |a>|c>) leaves |b> + |c>
        a, b, c = 0.7, -0.2, 1.1
        s = CoherentSuperposition.ket(a, b) + CoherentSuperposition.ket(a, c)
        out = project_modes(s, (0,), CoherentSuperposition.ket(a))
        assert out.modes == 1
        got = sorted(zip(out.amps[:, 0].real.tolist(), out.coeffs.real.tolist()))
        assert got[0][0] == pytest.approx(b)
        assert got[1][0] == pytest.approx(c)
        assert all(abs(w - 1.0) < 1e-12 for _, w in got)

    def test_norm_of_normalized(self):
        rng = np.random.default_rng(17)
        s = normalized(random_state(rng, modes=1, max_terms=5))
        assert norm(s) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# array route against per-term reference loops


def sizes(seed, cases=12):
    """(terms, modes) pairs spanning 1-64 terms and 1-4 modes."""
    rng = np.random.default_rng(seed)
    terms = np.rint(np.exp(rng.uniform(0.0, math.log(64.0), cases))).astype(int)
    return [(1, 1), (64, 4)] + [(int(t), int(m)) for t, m in zip(terms, rng.integers(1, 5, cases))]


def scale(*states):
    return math.prod(float(np.sum(np.abs(s.coeffs))) for s in states)


def ref_inner(a, b):
    total = 0.0 + 0.0j
    for ca, aa in zip(a.coeffs.tolist(), a.amps.tolist()):
        for cb, ab in zip(b.coeffs.tolist(), b.amps.tolist()):
            ex = sum(log_overlap(x, y) for x, y in zip(aa, ab))
            total += ca.conjugate() * cb * cmath.exp(ex)
    return total


def ref_project_terms(s, modes, onto):
    keep = [m for m in range(s.modes) if m not in modes]
    coeffs, amps = [], []
    for c, row in zip(s.coeffs.tolist(), s.amps.tolist()):
        for cp, rowp in zip(onto.coeffs.tolist(), onto.amps.tolist()):
            ex = sum(log_overlap(rowp[k], row[m]) for k, m in enumerate(modes))
            coeffs.append(cp.conjugate() * c * cmath.exp(ex))
            amps.append([row[m] for m in keep])
    return CoherentSuperposition(np.array(coeffs), np.array(amps))


def ref_operator_trace(rho):
    total = 0.0 + 0.0j
    for coeff, kets, bras in zip(rho.coeffs.tolist(), rho.kets.tolist(), rho.bras.tolist()):
        ex = sum(log_overlap(g, b) for g, b in zip(bras, kets))
        total += coeff * cmath.exp(ex)
    return total


def _coherent_fock_amps(beta, cutoff):
    out = np.empty(cutoff + 1, dtype=complex)
    c = math.exp(-0.5 * abs(beta) ** 2)
    for n in range(cutoff + 1):
        out[n] = c
        c = c * beta / math.sqrt(n + 1)
    return out


def ref_to_fock(s, cutoff):
    amps = np.zeros((cutoff + 1,) * s.modes, dtype=complex)
    for coeff, row in zip(s.coeffs.tolist(), s.amps.tolist()):
        vec = _coherent_fock_amps(row[0], cutoff)
        for a in row[1:]:
            vec = np.multiply.outer(vec, _coherent_fock_amps(a, cutoff))
        amps += coeff * vec
    return amps


def term_list(s):
    return list(zip(s.coeffs.tolist(), s.amps.tolist()))


# cutoffs 0..300 against TAIL_MEANS
TAIL_CUTOFFS = 300


@pytest.fixture(scope="module")
def exact_tails():
    return np.array([exact_poisson_tails(m, TAIL_CUTOFFS) for m in TAIL_MEANS]).T


def auto_cutoffs(m):
    """``auto_cutoff`` of a one-mode state of mean m, element-wise."""
    return np.ceil(2.0 * m + 10.0 * np.sqrt(m) + 20.0)


class TestPoissonTail:
    def test_bounds_the_exact_sum(self, exact_tails):
        # never below the 40-digit tail, and within 0.1% of it (measured 0.068%)
        # from auto_cutoff's cutoff on, where it is not deep subnormal; without
        # its slack the bound fell up to 1.26e-13 relative below the tail here
        m = np.array(TAIL_MEANS)
        for cutoff in range(TAIL_CUTOFFS + 1):
            got, want = poisson_tail_bound(cutoff, m), exact_tails[cutoff]
            assert np.all(got >= want), cutoff
            tight = cutoff >= auto_cutoffs(m)
            assert np.all(got[tight] <= 1.001 * want[tight] + 1e-323), cutoff

    def test_bounds_the_exact_sum_at_a_large_cutoff(self):
        # the pmf's rounding, and the slack with it, grows as eps k
        k = 4095
        m = np.concatenate([np.linspace(0.0, k + 1.5, 41), [1e-3, k + 1.0, k + 2.0 - 1e-9]])
        want = np.array([exact_poisson_tails(x, k)[k] for x in m.tolist()])
        assert np.all(poisson_tail_bound(k, m) >= want)

    def test_bounds_subnormal_tails(self):
        # tails below the normal range, where the pmf's rounding is half a
        # subnormal spacing: each of these fell one spacing short without it
        cases = [(1, 2.832798776032731e-156), (30, 9.513962020530946e-10),
                 (30, 1.067453368980496e-09), (30, 8.845154096524258e-10)]
        for cutoff, m in cases:
            want = exact_poisson_tails(m, cutoff)[cutoff]
            assert 0.0 < want < sys.float_info.min
            assert poisson_tail_bound(cutoff, m) >= want, (cutoff, m)

    def test_zero_mean_has_no_tail(self):
        for cutoff in (0, 1, 300, 4095):
            assert np.array_equal(poisson_tail_bound(cutoff, np.zeros((2, 3))), np.zeros((2, 3)))

    def test_overflowing_mean_has_all_its_mass_above(self):
        # |b|^2 is inf for an amplitude beyond ~1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = poisson_tail_bound(10, np.array([np.inf, 1e300, 2.0]))
        assert got[:2].tolist() == [1.0, 1.0] and got[2] < 1.0


class TestArrayRoute:
    def test_inner_matches_double_loop(self):
        rng = np.random.default_rng(40)
        for t, m in sizes(41):
            a, b = array_state(rng, t, m), array_state(rng, int(rng.integers(1, 65)), m)
            for x, y in ((a, b), (a, a)):
                assert abs(inner(x, y) - ref_inner(x, y)) <= 1e-14 * scale(x, y)

    def test_project_modes_matches_double_loop(self):
        rng = np.random.default_rng(42)
        for t, m in sizes(43):
            m = max(m, 2)
            modes = tuple(int(x) for x in rng.choice(m, int(rng.integers(1, m)), replace=False))
            s = array_state(rng, t, m)
            onto = array_state(rng, int(rng.integers(1, 5)), len(modes))
            got = project_modes(s, modes, onto)
            want = consolidate(ref_project_terms(s, modes, onto))
            assert np.array_equal(got.amps, want.amps)
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-14 * scale(s, onto)

    def test_operator_trace_matches_loop(self):
        rng = np.random.default_rng(44)
        for t, m in sizes(45):
            a, b = array_state(rng, t, m), array_state(rng, 4, m)
            rho = operator_sum((1, dyad_from_pure(a)), (0.3 - 0.2j, dyad_from_pure(b)))
            want = ref_operator_trace(rho)
            assert abs(operator_trace(rho) - want) <= 1e-14 * (scale(a, a) + scale(b, b))

    @pytest.mark.parametrize("modes,cutoff", [(1, None), (2, None), (3, 10), (4, 6)])
    def test_to_fock_matches_outer_products(self, modes, cutoff):
        rng = np.random.default_rng(47 + modes)
        for terms in (1, 7, 64):
            s = array_state(rng, terms, modes, max_amp=3.0 if cutoff is None else 1.0)
            fv = to_fock(s, cutoff)
            want = ref_to_fock(s, fv.cutoff)
            assert fv.amps.shape == want.shape
            assert np.max(np.abs(fv.amps - want)) <= 1e-14 * scale(s)

    def test_tail_bound_bounds_the_exact_tails(self):
        # the 40-digit per-mode tails, composed as truncation_tail_bound
        # composes its per-mode bounds: correctly rounded sums, roots and
        # products keep the order, so the result is never below
        rng = np.random.default_rng(48)
        for t, m in sizes(49):
            s = array_state(rng, t, m) + CoherentSuperposition.ket(*[0.0] * m)
            means = np.square(np.abs(s.amps))
            cutoffs = (3, 10, auto_cutoff(s))
            exact = np.array([exact_poisson_tails(x, cutoffs[-1]) for x in means.ravel().tolist()])
            for cutoff in cutoffs:
                roots = np.sqrt(np.add.reduce(exact[:, cutoff].reshape(means.shape), 1))
                total = float(np.abs(s.coeffs) @ roots)
                got, want = truncation_tail_bound(s, cutoff), total * total
                assert want <= got, (t, m, cutoff)
                if cutoff == cutoffs[-1]:
                    assert got <= 1.001 * want + 1e-323, (t, m)

    def test_tail_bound_at_a_large_cutoff(self):
        # one mode at cutoff 10^5, where the pmf's rounding is ~eps k; the
        # bound is 8.4% above the tail there, whose mean is within 3.2
        # standard deviations of the cutoff
        s = CoherentSuperposition.ket(math.sqrt(99000.0))
        want = exact_poisson_tails(float(np.square(np.abs(s.amps[0, 0]))), 100000)[100000]
        assert want <= truncation_tail_bound(s, 100000) <= 1.1 * want

    def test_auto_cutoff(self):
        s = CoherentSuperposition.ket(0.5, 2.0 + 1.0j) + CoherentSuperposition.ket(-1.0, 0.0)
        assert auto_cutoff(s) == math.ceil(2 * 5.0 + 10 * math.sqrt(5.0) + 20)
        assert auto_cutoff(CoherentSuperposition.ket(0.0, 0.0, 0.0)) == 20


class TestConsolidate:
    def test_ulp_apart_rows_stay_apart(self):
        x = 0.3 - 0.2j
        rows = [x, complex(np.nextafter(x.real, 1.0), x.imag),
                complex(x.real, np.nextafter(x.imag, -1.0)), 0j, complex(5e-324, 0.0)]
        s = sum((CoherentSuperposition.ket(a, 0.1, coeff=k + 1.0) for k, a in enumerate(rows)),
                CoherentSuperposition.ket(x, 0.1, coeff=0.5))
        out = consolidate(s)
        assert term_list(out) == [(c + 0j, [a, 0.1 + 0j])
                                  for c, a in zip((1.5, 2.0, 3.0, 4.0, 5.0), rows)]

    def test_negative_zero_merges_into_zero(self):
        big = 2.0**53
        zero, neg, other = 0j, complex(-0.0, -0.0), 0.25 + 0j
        s = (CoherentSuperposition.ket(zero, 0.5, coeff=3.0)
             + CoherentSuperposition.ket(other, 0.5, coeff=1.0)
             + CoherentSuperposition.ket(neg, 0.5, coeff=big)
             + CoherentSuperposition.ket(complex(0.0, -0.0), 0.5, coeff=-big))
        out = consolidate(s)
        assert out.amps.tolist() == [[0j, 0.5 + 0j], [other, 0.5 + 0j]]
        assert not np.signbit(out.amps[0, 0].real) and not np.signbit(out.amps[0, 0].imag)
        # the first row's coefficient first, then the others' in term order
        want = (3.0 + big) + -big
        assert want != 3.0 + (big + -big)
        assert out.coeffs.tolist() == [want + 0j, 1.0 + 0j]

    def test_drop_floor(self):
        big = CoherentSuperposition.ket(0.5)
        at = big + DROP_TOL * CoherentSuperposition.ket(-0.5)
        assert len(consolidate(at).coeffs) == 1
        above = big + (2 * DROP_TOL) * CoherentSuperposition.ket(-0.5)
        assert len(consolidate(above).coeffs) == 2

    def test_all_dropped_fallback(self):
        s = (CoherentSuperposition.ket(0.3, 0.1)
             + (-1.0) * CoherentSuperposition.ket(0.3, 0.1)
             + 0.0 * CoherentSuperposition.ket(-0.7, 0.2))
        out = consolidate(s)
        assert term_list(out) == [(0j, [0.3 + 0j, 0.1 + 0j])]

    def test_first_occurrence_order_and_sums(self):
        a, b, c = (CoherentSuperposition.ket(x) for x in (0.1, 0.2, 0.3))
        s = 1.0 * a + 2.0 * b + 3.0 * a + 4.0 * c + 5.0 * b + 6.0 * a
        out = consolidate(s)
        assert out.amps[:, 0].tolist() == [0.1, 0.2, 0.3]
        assert out.coeffs.tolist() == [1.0 + 3.0 + 6.0, 2.0 + 5.0, 4.0]

    def test_project_modes_peak_allocation(self):
        # a 1024-term intermediate: pairwise work of shape (T, T, M) would
        # need 16 MiB; the keyed merge holds a few arrays of T entries
        rng = np.random.default_rng(51)
        s = array_state(rng, 1024, 2)
        onto = CoherentSuperposition.ket(0.4 - 0.2j)
        project_modes(s, (1,), onto)  # warm caches before measuring
        tracemalloc.start()
        try:
            out = project_modes(s, (1,), onto)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.coeffs) == 1024
        assert peak < 4 * 2**20


def log_overlap_inner(a, b):
    """<a|b> summed from ``log_overlap`` alone, with no memo."""
    bras, kets = np.ascontiguousarray(a.amps.T), np.ascontiguousarray(b.amps.T)
    gram = np.exp(log_overlap(bras[:, :, None], kets[:, None, :]).sum(axis=0))
    return complex(a.coeffs.conj() @ gram @ b.coeffs)


def fresh_copy(s, scalar=1.0):
    """``scalar * s`` as a new state on copied arrays: an empty memo."""
    return CoherentSuperposition(complex(scalar) * s.coeffs.copy(), s.amps.copy())


def same_bits(x, y) -> bool:
    return np.array([x]).tobytes() == np.array([y]).tobytes()


def same_fock(f, g) -> bool:
    return (f.cutoff, f.modes) == (g.cutoff, g.modes) and f.amps.tobytes() == g.amps.tobytes() \
        and same_bits(f.tail_bound, g.tail_bound)


def memo_arrays(s):
    for value in s._memo.values():
        yield from value if isinstance(value, tuple) else (value,)


class TestMemo:
    """A state computes each array derived from its amplitudes once, and every
    result has the bits of a fresh state's."""

    @pytest.mark.parametrize("terms,modes", sizes(24))
    def test_fresh_repeated_and_scaled_calls_agree(self, terms, modes):
        rng = np.random.default_rng([24, terms, modes])
        s, u = array_state(rng, terms, modes), array_state(rng, terms, modes)
        cutoff = auto_cutoff(s) if modes <= 2 else 4
        want = {"su": log_overlap_inner(s, u), "us": log_overlap_inner(u, s),
                "ss": log_overlap_inner(s, s)}
        fock = to_fock(fresh_copy(s), cutoff)
        for _ in range(2):  # fresh, then from the memo
            assert same_bits(inner(s, u), want["su"]) and same_bits(inner(u, s), want["us"])
            assert same_bits(inner(s, s), want["ss"])
            assert same_bits(norm(s), norm(fresh_copy(s)))
            assert same_fock(to_fock(s, cutoff), fock)
        k = 0.3 - 1.7j
        scaled = k * s
        assert scaled._memo is s._memo and scaled.amps is s.amps
        assert same_bits(inner(scaled, u), log_overlap_inner(fresh_copy(s, k), u))
        assert same_bits(inner(u, scaled), log_overlap_inner(u, fresh_copy(s, k)))
        assert same_bits(norm(scaled), norm(fresh_copy(s, k)))
        assert same_fock(to_fock(scaled, cutoff), to_fock(fresh_copy(s, k), cutoff))
        assert same_fock(to_fock(normalized(s), cutoff), to_fock(normalized(fresh_copy(s)), cutoff))

    @pytest.mark.parametrize("terms,modes", sizes(25, cases=6))
    def test_memo_holds_no_array_beyond_terms_times_modes(self, terms, modes):
        s = array_state(np.random.default_rng([25, terms, modes]), terms, modes)
        inner(s, s)
        for cutoff in (2, 3, 5):
            to_fock(s, cutoff)
        assert {"bra", "ket", "abs2", ("root_tails", 5)} <= set(s._memo)
        assert all(a.size <= terms * modes for a in memo_arrays(s))

    def test_a_new_amplitude_array_starts_a_new_memo(self):
        s = CoherentSuperposition.ket(0.5, 1.0) + CoherentSuperposition.ket(-0.5, 0.2)
        assert type(s._memo) is dict and s._memo == {}  # made with the state
        assert (0.5j * s)._memo is s._memo
        inner(s, s)
        for other in (beam_split(s, 0, 1), s + s, dataclasses.replace(s), consolidate(s + s)):
            assert other._memo == {} and other._memo is not s._memo

    @pytest.mark.parametrize("terms,modes", sizes(30, cases=4))
    def test_threads_sharing_a_fresh_state_get_fresh_bits(self, terms, modes):
        # four threads fill one memo at once; each result has the bits of a
        # fresh state's
        rng = np.random.default_rng([30, terms, modes])
        cutoff = 6 if modes <= 2 else 3
        calls = (lambda s, u: inner(s, s), lambda s, u: inner(s, u),
                 lambda s, u: norm(s), lambda s, u: to_fock(s, cutoff).amps.tobytes())
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(10):
                s, u = array_state(rng, terms, modes), array_state(rng, terms, modes)
                want = [np.array([call(fresh_copy(s), u)]).tobytes() for call in calls]
                barrier = threading.Barrier(4, timeout=60)

                def run(call, s=s, u=u, barrier=barrier):
                    barrier.wait()
                    return np.array([call(s, u)]).tobytes()

                assert list(pool.map(run, calls)) == want


class TestStorage:
    def test_arrays_are_read_only(self):
        s = CoherentSuperposition.ket(0.5, 1.0) + CoherentSuperposition.ket(-0.5, 0.2)
        assert s.coeffs.shape == (2,) and s.amps.shape == (2, 2)
        with pytest.raises(ValueError):
            s.amps[0, 0] = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.coeffs = np.zeros(2)
        rho = dyad_from_pure(s)
        assert rho.coeffs.shape == (4,) and rho.kets.shape == rho.bras.shape == (4, 2)
        with pytest.raises(ValueError):
            rho.coeffs[0] = 0.0

    def test_constructor_takes_arrays_over_read_only(self):
        coeffs = np.array([1.0, 0.5j])
        amps = np.array([[0.1, 0.2, 0.3j], [0.4, -0.5, 0.6]], dtype=complex)
        s = CoherentSuperposition(coeffs, amps)
        assert s.coeffs is coeffs and s.amps is amps and s.modes == 3
        assert not coeffs.flags.writeable and not amps.flags.writeable

    def test_batched_operator(self):
        t = np.array([1.0, 0.5], dtype=complex)
        op = CoherentOperator(np.array([t, 2.0 * t]), np.array([[0.3 * t], [0.1 * t]]),
                              np.array([[0.3 * t], [0.2 * t]]))
        assert op.modes == 1
        assert op.coeffs.shape == (2, 2) and op.kets.shape == op.bras.shape == (2, 1, 2)
        assert np.array_equal(op.kets[0, 0], 0.3 * t) and np.array_equal(op.bras[1, 0], 0.2 * t)
        assert not any(a.flags.writeable for a in (op.coeffs, op.kets, op.bras))
