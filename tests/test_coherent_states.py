"""Coherent-state algebra: overlaps, linear optics, Fock oracle."""
import cmath
import dataclasses
import decimal
import math
import tracemalloc
import warnings

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
    poisson_tail,
    project_modes,
    tensor,
    to_fock,
    truncation_tail_bound,
)
from ecsim.errors import CutoffError, ModeMismatchError

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

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CoherentSuperposition.ket(complex("inf"))


class TestInner:
    def test_cancellation(self):
        s = CoherentSuperposition.ket(0.9) + (-1.0) * CoherentSuperposition.ket(0.9)
        assert abs(inner(s, s)) < 1e-14

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            inner(CoherentSuperposition.ket(1.0), CoherentSuperposition.ket(1.0, 1.0))

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

    def test_invalid_indices(self):
        s = CoherentSuperposition.ket(1.0, 0.0)
        with pytest.raises(ValueError):
            beam_split(s, 0, 0)
        with pytest.raises(ValueError):
            beam_split(s, 0, 2)

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
        # the record carries the truncation: P(N > 3) for N ~ Poisson(4)
        fv = to_fock(CoherentSuperposition.ket(2.0), 3)
        assert fv.tail_bound > 1e-12
        assert fv.tail_bound == pytest.approx(special.pdtrc(3, 4.0), rel=1e-12)

    def test_cell_budget(self, monkeypatch):
        # refused before anything of the grid's size is allocated
        assert FOCK_CELL_BUDGET == 2**24
        with pytest.raises(CutoffError, match="budget"):
            to_fock(CoherentSuperposition.ket(1.0, 1.0), 4096)
        with pytest.raises(CutoffError, match="budget"):
            to_fock(CoherentSuperposition.ket(1.0, 1.0, 1.0), 256)
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

    def test_vacuum_amplitude_underflow(self):
        # e^{-|b|^2/2} is subnormal past |b| ~ 37.64 and zero past ~38.6
        fv = to_fock(CoherentSuperposition.ket(37.0))
        assert abs(fock_inner(fv, fv) - 1.0) < 1e-12
        with pytest.raises(CutoffError, match="underflows"):
            to_fock(CoherentSuperposition.ket(37.7))
        with pytest.raises(CutoffError, match="underflows"):
            photon_distribution(CoherentSuperposition.ket(0.5, 40.0j), 10)

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


def array_state(rng, terms, modes, max_amp=3.0):
    rad = max_amp * np.sqrt(rng.uniform(size=(terms, modes)))
    amps = rad * np.exp(2j * math.pi * rng.uniform(size=(terms, modes)))
    coeffs = rng.uniform(-1, 1, terms) + 1j * rng.uniform(-1, 1, terms)
    return CoherentSuperposition(coeffs, amps)


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


def division_to_fock(s, cutoff):
    """to_fock's amplitudes by the recursion as it divides: each factor of
    <n|b> is the complex quotient b / sqrt(n), then the same products."""
    table = np.empty(s.amps.shape + (cutoff + 1,), dtype=complex)
    table[..., 0] = np.exp(-0.5 * np.square(np.abs(s.amps)))
    table[..., 1:] = s.amps[..., None] / np.sqrt(np.arange(1, cutoff + 1))
    np.cumprod(table, axis=-1, out=table)
    rest = np.ones((len(s.coeffs), 1), dtype=complex)
    for m in range(1, s.modes):
        rest = (rest[:, :, None] * table[:, m, None, :]).reshape(len(s.coeffs), -1)
    return ((s.coeffs[:, None] * table[:, 0]).T @ rest).reshape((cutoff + 1,) * s.modes)


def signed_parts(rng, shape, special):
    """Uniform parts in (-2, 2), about half of them replaced by ``special``
    values (signed zeros, subnormals)."""
    part = rng.uniform(-2.0, 2.0, shape)
    swap = rng.uniform(size=shape) < 0.5
    part[swap] = rng.choice(special, swap.sum())
    return part


def with_parts(real, imag):
    """A complex array holding exactly these parts, signed zeros included."""
    out = np.empty(real.shape, dtype=complex)
    out.real, out.imag = real, imag
    return out


def ref_consolidate(s):
    """(coefficient, amplitude row) per kept term, by the sequential merge."""
    reps = []
    for c, row in zip(s.coeffs.tolist(), s.amps.tolist()):
        for i, (coeff, amps) in enumerate(reps):
            if row == amps:
                reps[i] = (coeff + c, amps)
                break
        else:
            reps.append((c, row))
    floor = DROP_TOL * max(abs(c) for c, _ in reps)
    kept = [(c, a) for c, a in reps if abs(c) > floor]
    return kept or [(0.0 + 0.0j, s.amps[0].tolist())]


def term_list(s):
    return list(zip(s.coeffs.tolist(), s.amps.tolist()))


def exact_poisson_tails(m: float, top_cutoff: int) -> list[float]:
    """P(N > k) for k = 0..top_cutoff, N ~ Poisson(m), as upper sums of the
    probabilities in 40-digit decimal arithmetic on the float's exact value."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        dm = decimal.Decimal(m)
        n_terms = top_cutoff + 2 + int(m + 40.0 * math.sqrt(m) + 60.0)
        pmf = [(-dm).exp()]
        for j in range(1, n_terms):
            pmf.append(pmf[-1] * dm / j)
        tails, above = [], decimal.Decimal(0)
        for j in range(n_terms - 1, 0, -1):
            above += pmf[j]  # P(N >= j) = P(N > j - 1)
            tails.append(above)
        return [float(t) for t in tails[::-1][: top_cutoff + 1]]


# cutoffs 0..300 against means in [0, 200]: zero, subnormal and tiny means,
# random ones, and both sides of m = cutoff and of m = cutoff + 1, where the
# tail switches from the upper series to 1 - the lower sum
TAIL_CUTOFFS = 300
TAIL_MEANS = sorted(
    {0.0, 5e-324, 1e-310, 1e-300, 1e-20, 1e-8, 1e-3, 0.5, 200.0}
    | set(np.random.default_rng(60).uniform(0.0, 200.0, 24).tolist())
    | {c + d for c in (0, 1, 2, 5, 14, 16, 50, 99, 150, 199) for d in (-1e-9, 0.0, 1e-9, 1.0)}
    - {-1e-9}
)


@pytest.fixture(scope="module")
def exact_tails():
    return np.array([exact_poisson_tails(m, TAIL_CUTOFFS) for m in TAIL_MEANS]).T


class TestPoissonTail:
    def test_matches_exact_sum(self, exact_tails):
        # relative error 1e-13, plus ~eps per unit of |log P| from rounding the
        # exponent, plus two subnormal steps
        m = np.array(TAIL_MEANS)
        for cutoff in range(TAIL_CUTOFFS + 1):
            got, want = poisson_tail(cutoff, m), exact_tails[cutoff]
            log_want = np.log(np.maximum(want, 5e-324))
            tol = (1e-13 + 2.5e-16 * np.abs(log_want)) * want + 1e-323
            assert np.all(np.abs(got - want) <= tol), cutoff

    def test_zero_mean_has_no_tail(self):
        assert np.array_equal(poisson_tail(0, np.zeros((2, 3))), np.zeros((2, 3)))

    def test_overflowing_mean_has_all_its_mass_above(self):
        # |b|^2 is inf for an amplitude beyond ~1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = poisson_tail(10, np.array([np.inf, 1e300, 2.0]))
        assert got[:2].tolist() == [1.0, 1.0]

    def test_matches_scipy(self, exact_tails):
        # pdtrc forms its prefactor as exp(a log m - m - lgamma a), a = cutoff
        # + 1, which is itself off by up to ~6e-13 on this grid when |a - m| >
        # 0.4 a and a >~ 100, and it flushes tails below ~1e-308 to zero.  The
        # comparison takes the zero mean and every tail above 1e-30 where scipy
        # is within 5e-14 of the exact sum; test_matches_exact_sum covers the
        # rest of the grid.
        m = np.array(TAIL_MEANS)
        compared = total = 0
        for cutoff in range(TAIL_CUTOFFS + 1):
            want = exact_tails[cutoff]
            got = poisson_tail(cutoff, m)
            for ref in (special.pdtrc(cutoff, m), stats.poisson.sf(cutoff, m)):
                sound = (m == 0) | ((want >= 1e-30) & (np.abs(ref - want) <= 5e-14 * want))
                assert np.all(np.abs(got[sound] - ref[sound]) <= 1e-13 * ref[sound]), cutoff
                compared += np.count_nonzero(sound & (want > 0))
                total += np.count_nonzero(want >= 1e-30)
        assert compared >= 0.8 * total, (compared, total)

    def test_broadcasts_and_splits_branches(self):
        # means on both sides of cutoff + 1 in one call match separate calls,
        # up to the length of the series, which the largest mean sets
        m = np.array([[0.0, 3.0, 4.0], [4.5, 12.0, 1e-3]])
        whole = poisson_tail(3, m)
        assert whole.shape == (2, 3)
        for idx in np.ndindex(m.shape):
            single = poisson_tail(3, np.array([m[idx]]))[0]
            assert whole[idx] == pytest.approx(single, rel=1e-15, abs=0)


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
            rho = dyad_from_pure(a) + (0.3 - 0.2j) * dyad_from_pure(b)
            want = ref_operator_trace(rho)
            assert abs(operator_trace(rho) - want) <= 1e-14 * (scale(a, a) + scale(b, b))

    def test_batched_operator_trace_matches_slices(self):
        rng = np.random.default_rng(46)
        a = array_state(rng, 5, 2)
        t = np.array([1.0, 0.7, 0.2])
        kets = np.multiply.outer(np.repeat(a.amps, 5, axis=0), t)
        bras = np.multiply.outer(np.tile(a.amps, (5, 1)), t)
        coeffs = np.multiply.outer(dyad_from_pure(a).coeffs, t)
        batch = operator_trace(CoherentOperator(coeffs, kets, bras))
        assert batch.shape == (3,)
        for i in range(3):
            one = CoherentOperator(
                coeffs[..., i].copy(), kets[..., i].copy(), bras[..., i].copy())
            assert batch[i] == pytest.approx(operator_trace(one), abs=1e-15)

    @pytest.mark.parametrize("modes,cutoff", [(1, None), (2, None), (3, 10), (4, 6)])
    def test_to_fock_matches_outer_products(self, modes, cutoff):
        rng = np.random.default_rng(47 + modes)
        for terms in (1, 7, 64):
            s = array_state(rng, terms, modes, max_amp=3.0 if cutoff is None else 1.0)
            fv = to_fock(s, cutoff)
            want = ref_to_fock(s, fv.cutoff)
            assert fv.amps.shape == want.shape
            assert np.max(np.abs(fv.amps - want)) <= 1e-14 * scale(s)

    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    def test_to_fock_has_the_bits_of_division(self, modes):
        # b * (1/sqrt(n)) must give the quotient's bits, the sign of every
        # zero included: pure-imaginary and vacuum amplitudes, parts of +-0
        # and +-5e-324, in states of few terms, where a zero part can reach
        # an output amplitude
        rng = np.random.default_rng([53, modes])
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 0.7, -1.3])
        for _ in range(150):
            terms = int(rng.integers(1, 4))
            amps = with_parts(signed_parts(rng, (terms, modes), special),
                              signed_parts(rng, (terms, modes), special))
            kind = rng.uniform(size=(terms, modes))
            amps[kind < 0.2] = with_parts(rng.choice([0.0, -0.0], (kind < 0.2).sum()),
                                          rng.uniform(-2.0, 2.0, (kind < 0.2).sum()))
            amps[kind > 0.9] = with_parts(rng.choice([0.0, -0.0], (kind > 0.9).sum()),
                                          rng.choice([0.0, -0.0], (kind > 0.9).sum()))
            coeffs = with_parts(signed_parts(rng, terms, special[:2]),
                                signed_parts(rng, terms, special[:2]))
            cutoff = int(rng.integers(1, 12 if modes <= 2 else 6))
            s = CoherentSuperposition(coeffs, amps)
            assert to_fock(s, cutoff).amps.tobytes() == division_to_fock(s, cutoff).tobytes()

    def test_tail_bound_matches_poisson_sf(self):
        rng = np.random.default_rng(48)
        for t, m in sizes(49):
            s = array_state(rng, t, m) + CoherentSuperposition.ket(*[0.0] * m)
            for cutoff in (3, 10, auto_cutoff(s)):
                tails = [sum(float(stats.poisson.sf(cutoff, abs(a) ** 2)) if a != 0 else 0.0
                             for a in row) for row in s.amps.tolist()]
                want = sum(abs(coeff) * math.sqrt(tail)
                           for coeff, tail in zip(s.coeffs.tolist(), tails)) ** 2
                assert truncation_tail_bound(s, cutoff) == pytest.approx(want, rel=1e-13, abs=0)

    def test_auto_cutoff(self):
        s = CoherentSuperposition.ket(0.5, 2.0 + 1.0j) + CoherentSuperposition.ket(-1.0, 0.0)
        assert auto_cutoff(s) == math.ceil(2 * 5.0 + 10 * math.sqrt(5.0) + 20)
        assert auto_cutoff(CoherentSuperposition.ket(0.0, 0.0, 0.0)) == 20


class TestConsolidate:
    def test_matches_sequential_merge(self):
        # rows repeated exactly from a few centres, some entries moved one ulp
        # up or down, so exact repeats and rows one ulp apart both occur
        rng = np.random.default_rng(50)
        for _ in range(200):
            modes = int(rng.integers(1, 4))
            centers = rng.uniform(-1, 1, (3, modes)) + 1j * rng.uniform(-1, 1, (3, modes))
            n = int(rng.integers(1, 40))
            amps = centers[rng.integers(0, 3, n)]
            for part in (amps.real, amps.imag):
                moved = rng.uniform(size=(n, modes)) < 0.15
                part[moved] = np.nextafter(part[moved], rng.choice([-2.0, 2.0], moved.sum()))
            coeffs = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            s = CoherentSuperposition(coeffs, amps)
            assert term_list(consolidate(s)) == ref_consolidate(s)

    @pytest.mark.parametrize("terms", [8, 64, 256, 1024])
    def test_matches_sequential_merge_bytes(self, terms):
        # term_list compares values, which cannot see a zero's sign: here the
        # kept coefficients and rows must have the reference's bytes.  Rows
        # repeat from a few centres with parts of +-0, and a repeat may flip
        # a zero's sign; coefficient parts are often -0.0
        rng = np.random.default_rng([54, terms])
        special = np.array([0.0, -0.0, 0.25])
        centres = with_parts(signed_parts(rng, (max(2, terms // 4), 2), special),
                             signed_parts(rng, (max(2, terms // 4), 2), special))
        amps = centres[rng.integers(0, len(centres), terms)]
        zero = (amps.real == 0.0) & (rng.uniform(size=amps.shape) < 0.5)
        amps.real[zero] = -amps.real[zero]
        coeffs = with_parts(signed_parts(rng, terms, np.array([-0.0])),
                            signed_parts(rng, terms, np.array([-0.0])))
        s = CoherentSuperposition(coeffs, amps)
        out, want = consolidate(s), ref_consolidate(s)
        assert len(want) < terms
        assert out.coeffs.tobytes() == np.array([c for c, _ in want], dtype=complex).tobytes()
        assert out.amps.tobytes() == np.array([a for _, a in want], dtype=complex).tobytes()

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
        inner(s, s)
        for other in (beam_split(s, 0, 1), s + s, dataclasses.replace(s), consolidate(s + s)):
            assert other._memo is None or other._memo is not s._memo

    def test_cutoff_rows_are_read_only_and_bounded(self):
        rows, cached = coherent_states._cutoff_rows, coherent_states._cached_cutoff_rows
        assert cached.cache_info().maxsize == coherent_states.CUTOFF_ROWS_CACHED
        largest = coherent_states.LARGEST_CACHED_CUTOFF
        assert (largest + 2) ** 2 > FOCK_CELL_BUDGET  # a two-mode grid needs no more
        assert not any(row.flags.writeable for row in rows(7))
        assert rows(7) is rows(7) and rows(largest) is rows(largest)
        assert rows(largest + 1) is not rows(largest + 1)
        for k in (0, 1, 7, largest + 1):  # prefixes of the rows that were built per call
            inv_root, upper, lower = rows(k)
            assert inv_root.tobytes() == (1.0 / np.sqrt(np.arange(1, k + 1))).tobytes()
            assert upper[:9].tobytes() == np.arange(k + 1.0, k + 10.0).tobytes()
            assert lower.tobytes() == np.arange(k, 0, -1.0).tobytes()


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

    @pytest.mark.parametrize("coeffs,amps,message", [
        (np.ones(2), np.zeros((3, 1)), "amplitude rows"),  # wrong row count
        (np.ones((2, 1)), np.zeros((2, 1)), "amplitude rows"),
        (np.ones(1), np.zeros((1, 0)), "modes >= 1"),  # zero modes
        (np.ones(2), np.zeros(2), "modes >= 1"),
    ])
    def test_superposition_rejects_shapes(self, coeffs, amps, message):
        with pytest.raises(ValueError, match=message):
            CoherentSuperposition(coeffs, amps)

    def test_ket_needs_a_mode(self):
        with pytest.raises(ValueError, match="modes >= 1"):
            CoherentSuperposition.ket()

    @pytest.mark.parametrize("coeffs,kets,bras,message", [
        (np.ones(2), np.zeros((3, 1)), np.zeros((3, 1)), "do not match"),  # wrong rows
        (np.ones(1), np.zeros((1, 0)), np.zeros((1, 0)), "modes >= 1"),  # zero modes
        (np.ones(1), np.zeros((1, 1)), np.zeros((1, 2)), "do not match"),
        # batched amplitudes under unbatched coefficients, and the reverse
        (np.ones(1), np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), "do not match"),
        (np.ones((1, 3)), np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), "do not match"),
        (np.ones((1, 2)), np.zeros((1, 1)), np.zeros((1, 1)), "do not match"),
    ])
    def test_operator_rejects_shapes(self, coeffs, kets, bras, message):
        with pytest.raises(ValueError, match=message):
            CoherentOperator(coeffs, kets, bras)
