"""The references that the tests read: the channel's and the swap's decimal
referees, the 40-digit Poisson tail, the one-amplitude routes of the channel
and its closed forms, the oracles that the accuracy rows hold the layers to
(per-term loops, Fock and Kraus sums, Horn's enumeration and singular values),
the references that the library's functions match bit for bit with the edge
cases they are matched on, shared points and shared numpy helpers.  Test
modules import them from here, never from one another, so a helper renamed
in one cannot break the collection of another.  pytest does not collect this
module (no ``test_`` prefix); its default import mode puts ``tests/`` on the
path.
"""
import argparse
import cmath
import decimal
import functools
import json
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from unittest import mock

import numpy as np
from scipy import special
from scipy.linalg import expm

from ecsim import cli, decoherence, protocols
from ecsim import qubit_encoding as qe
from ecsim.coherent_states import (DROP_TOL, CoherentOperator, CoherentSuperposition, beam_split,
                                   consolidate, dyad_from_pure, log_overlap, photon_distribution,
                                   tensor, to_fock)
from ecsim.decoherence import DecayClock, channel_rho4, decohere
from ecsim.entanglement_metrics import closed_form_e, closed_form_f, closed_form_s
from ecsim.protocols import CORRECTIONS, BellOutcome, classify_counts
from ecsim.qubit_encoding import (BELL_VECTORS, PAULI_BASIS, PAULI_PRODUCTS, PAULIS, LogicalBasis,
                                  TwoQubitDensity, bell_state, logical_coords, make_basis,
                                  project_to_density)

# Python's a**2 (libm's pow) and a product differ on 0.45641438732799167,
# which moves its B4 coefficients, and on the N_theta of 0.6367562934712789;
# the rest span the CLI's range.
PINNED_ALPHAS = (0.45641438732799167, 0.6367562934712789, 0.15, 1e-3, 13.4, 1e6)
# The CLI's amplitude range, log-spaced.
LOG_ALPHAS = np.logspace(-3.0, 6.0, 19)
# The ideal swap's test angles: the CLI's defaults and pinned etas, and pi/4.
IDEAL_ETAS = (math.pi / 8, math.pi / 6, math.pi / 3, 0.2, 0.7, 1.3, math.pi / 4)
# Poisson means in [0, 200]: zero, subnormal and tiny means, random ones, and
# both sides of m = k + 1 and of m = k + 2, past which the tail bound at
# cutoff k is 1, for ten cutoffs k
TAIL_MEANS = sorted(
    {0.0, 5e-324, 1e-310, 1e-300, 1e-20, 1e-8, 1e-3, 0.5, 200.0}
    | set(np.random.default_rng(60).uniform(0.0, 200.0, 24).tolist())
    | {c + d for c in (0, 1, 2, 5, 14, 16, 50, 99, 150, 199) for d in (-1e-9, 0.0, 1e-9, 1.0)}
    - {-1e-9}
)

# Immutable, as decimal_channel hands one cached record to every caller.
DecimalChannel = namedtuple("DecimalChannel", "gamma w one_g one_w n_theta a b c d e f s bloch "
                                              "t_diag margin")


@functools.cache
def decimal_channel(alpha: float, r: float, float_squares: bool = False) -> DecimalChannel:
    """The channel at (alpha, r) as the paper states it, in stdlib decimal at
    400 digits with Emin and Emax at their limits (W is ~10^-1.7e12 at
    alpha = 1e6).  The stated differences lose digits, E's at most the ~300
    below a normal float's E and -a + d the ~280 below gamma's: 400 leave
    over 100.  The inputs are alpha and the squares in the decay exponents:
    r^2 and t^2 = 1 - r^2 exactly, or with ``float_squares`` the code's own
    floats r * r and t * t, t = sqrt((1 - r)(1 + r)), which test the forms
    apart from the clock.

    gamma = exp(-4 r^2 a^2), W = exp(-4 t^2 a^2), N_theta = 1 - exp(-4 a^2);
    a = (1 - gamma) W, b = (1 - gamma) sqrt(W), c = 2 - (1 + gamma) W,
    d = -2 gamma + (1 + gamma) W; E = (sqrt(16 b^2 + (c - d)^2) - (2a + c + d))
    / (4 N_theta); f and S divided through by e^{4 a^2} and e^{8 a^2}; the
    Bloch entry b / N_theta; T's diagonal (a + d, -a + d, a - c) / (2 N_theta);
    the fidelity margin max{e^{-4 a^2} - gamma, gamma - W} / (3 N_theta).
    """
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 400, decimal.MIN_EMIN, decimal.MAX_EMAX
        a2 = decimal.Decimal(alpha) ** 2
        e4 = (-4 * a2).exp()
        if float_squares:
            t = np.sqrt((1.0 - r) * (1.0 + r))
            g = (-4 * decimal.Decimal(r * r) * a2).exp()
            w = (-4 * decimal.Decimal(float(t * t)) * a2).exp()
        else:  # r^2 + t^2 = 1, so W = e^{-4 a^2} / gamma
            g = (-4 * decimal.Decimal(r) ** 2 * a2).exp()
            w = e4 / g
        n = 1 - e4
        a, b = (1 - g) * w, (1 - g) * w.sqrt()
        c, d = 2 - (1 + g) * w, -2 * g + (1 + g) * w
        return DecimalChannel(
            gamma=g, w=w, one_g=1 - g, one_w=1 - w, n_theta=n, a=a, b=b, c=c, d=d,
            e=((16 * b * b + (c - d) ** 2).sqrt() - (2 * a + c + d)) / (4 * n),
            f=max(1 + (1 - g) / n, 2 + (g - w) / n) / 3,
            s=(1 - g * g) * (1 - w * w) / (2 * n * n),
            bloch=b / n,
            t_diag=((a + d) / (2 * n), (-a + d) / (2 * n), (a - c) / (2 * n)),
            margin=max(e4 - g, g - w) / (3 * n))


def _decimal_sin(x: float) -> decimal.Decimal:
    """sin x of the float's exact value, |x| <= 4, by its Taylor series summed
    at the context's precision plus 10 digits (its terms reach at most 4^3/3!
    ~ 10.7, so the sum loses no more than two), rounded to the context."""
    with decimal.localcontext() as ctx:
        ctx.prec += 10
        d = decimal.Decimal(x)
        term, total, k = d, d, 1
        while abs(term) > abs(total).scaleb(-ctx.prec):
            term *= -d * d / ((k + 1) * (k + 2))  # x^k / k! to -x^{k+2} / (k+2)!
            total += term
            k += 2
    return +total


def concentration_success_decimal(alphas, etas) -> list[list[decimal.Decimal]]:
    """The B2-outcome swap's success probability as it is stated,
    N_theta^2 sin^2(2 eta) / (4 (1 - e^{-4 a^2} sin(2 eta))^2), N_theta =
    1 - e^{-4 a^2}, at 50 digits on the exact binary alphas and etas: rows
    over alpha, columns over eta.  The sine's series is summed once per eta
    and the exponential taken once per alpha.  The difference in the
    denominator loses 6 digits at most for a >= 1e-3, where it is at least
    N_theta ~ 4e-6."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        sines = [_decimal_sin(2.0 * eta) for eta in etas]
        rows = []
        for alpha in alphas:
            e4 = (-4 * decimal.Decimal(alpha) ** 2).exp()
            rows.append([(1 - e4) ** 2 * s * s / (4 * (1 - e4 * s) ** 2) for s in sines])
        return rows


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


def operator_sum(*terms):
    """sum_k w_k O_k over (w_k, O_k) pairs: the operators' arrays concatenated
    along the term axis, each one's coefficients scaled by its weight."""
    return CoherentOperator(np.concatenate([complex(w) * op.coeffs for w, op in terms]),
                            np.concatenate([op.kets for _, op in terms]),
                            np.concatenate([op.bras for _, op in terms]))


def array_state(rng, terms, modes, max_amp=3.0):
    """A random superposition of ``terms`` product kets on ``modes`` modes,
    amplitudes uniform on the disc of radius ``max_amp``."""
    rad = max_amp * np.sqrt(rng.uniform(size=(terms, modes)))
    amps = rad * np.exp(2j * math.pi * rng.uniform(size=(terms, modes)))
    coeffs = rng.uniform(-1, 1, terms) + 1j * rng.uniform(-1, 1, terms)
    return CoherentSuperposition(coeffs, amps)


def channel_per_amplitude(alphas, r):
    """The damped channel amplitude by amplitude from the scalar pieces: the B4
    state of the undecayed basis, its dyad, the decay and the projection, whose
    imaginary parts are zeros."""
    clock, mats = DecayClock.from_r(r), []
    for alpha in alphas.tolist():
        rho = decohere(dyad_from_pure(bell_state(4, make_basis(alpha, 1.0))), clock)
        mats.append(project_to_density(rho, make_basis(alpha, clock.t)).matrix)
    assert not any(m.imag.any() for m in mats)
    return np.stack([m.real for m in mats])


def closed_forms_one_amplitude(alpha: float, r: np.ndarray) -> dict:
    """E, f and S of one amplitude over an r grid, in the arithmetic of the
    closed forms: every square a product, the exponent of gamma from r * r
    and that of W from t * t, W - gamma an expm1 of their difference times
    the larger, numpy's ufuncs throughout."""
    t = np.sqrt((1.0 - r) * (1.0 + r))
    a2 = alpha * alpha
    n = -np.expm1(-4.0 * a2)
    x, y = -4.0 * (r * r) * a2, -4.0 * (t * t) * a2
    g, w = np.exp(x), np.exp(y)
    one_g, one_w = -np.expm1(x), -np.expm1(y)
    d = 4.0 * (r * r - t * t) * a2
    w_minus_g = np.copysign(np.maximum(g, w) * -np.expm1(-np.abs(d)), d)
    return {
        closed_form_e: 2.0 * g * (one_w * one_w) / (n * (np.sqrt(
            4.0 * (one_g * one_g) * w + np.square((1.0 + g) * one_w)) + one_g * (1.0 + w))),
        closed_form_f: np.maximum(1.0 + one_g / n, 2.0 - w_minus_g / n) / 3.0,
        closed_form_s: one_g * (1.0 + g) * (one_w * (1.0 + w)) / (2.0 * (n * n)),
    }


def random_density(seed, shape: tuple = ()) -> TwoQubitDensity:
    """Random full-rank two-qubit densities G G^dag / tr(G G^dag), not
    Bell-diagonal, with G complex Gaussian of shape ``shape + (4, 4)``.
    ``seed`` is a seed or a Generator, whose next draws it takes."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(shape + (4, 4)) + 1j * rng.standard_normal(shape + (4, 4))
    m = g @ g.conj().swapaxes(-1, -2)
    return TwoQubitDensity(m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None])


def branches_reference(x, channel, corrections=CORRECTIONS):
    """U_k <B_k|(x (x) rho)|B_k> U_k^dag per outcome, one contraction per k."""
    rho4 = channel.matrix.reshape(2, 2, 2, 2)
    out = np.empty((4, 2, 2), dtype=complex)
    for k in range(4):
        bk = BELL_VECTORS[k].reshape(2, 2)
        chi = np.einsum("ab,aA,bcBC,AB->cC", bk.conj(), x, rho4, bk)
        out[k] = corrections[k] @ chi @ corrections[k].conj().T
    return out


def average_fidelity_reference(channel, remap):
    """Scheme average from the isotropic moments: tr L(I)/4 + sum_p tr(p L(p))/12."""
    corrections = [remap @ u for u in CORRECTIONS]
    eye = np.eye(2, dtype=complex)
    total = np.trace(branches_reference(eye, channel, corrections).sum(0)).real / 4
    for p in PAULIS:
        lp = branches_reference(p, channel, corrections).sum(0)
        total += np.trace(p @ lp).real / 12
    return total


def swapped_pairs(eta: float) -> np.ndarray:
    """Each outcome's corrected pair on (b', c), unnormalized, shape (4, 4, 4).

    The swap teleports b'' through the second pair: the Bell-outcome map of
    the pair density, contracted with the first pair on b'', gives the pair
    that outcome k leaves, U_k applied to c.  Its trace is the probability of k.
    """
    pair = np.array([0.0, math.cos(eta), -math.sin(eta), 0.0])
    rho = np.outer(pair, pair)
    # first pair [b', b'', b', b''] = [i, a, j, A]; the map's [k, a, A, c, C]
    out = np.einsum("iajA,kaAcC->kicjC", rho.reshape(2, 2, 2, 2), protocols.bell_outcome_map(rho))
    return out.reshape(4, 4, 4)


def bell_diagonal(seed) -> tuple[TwoQubitDensity, float]:
    """A Bell-diagonal density of Dirichlet weights p, and its scheme average
    p_4 + (1 - p_4) / 3: the fixed corrections teleport the antisymmetric
    component perfectly and scramble the rest isotropically."""
    p = np.random.default_rng(seed).dirichlet(np.ones(4))
    m = sum(pi * np.outer(b, b.conj()) for pi, b in zip(p, BELL_VECTORS))
    return TwoQubitDensity(m), p[3] + (1.0 - p[3]) / 3.0


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
    """(plus |ta> + minus |-ta>) / sqrt(N_theta)."""
    a, c = basis.amplitude, 1.0 / math.sqrt(basis.n_theta)
    return CoherentSuperposition(np.array([c * plus, c * minus], dtype=complex),
                                 np.array([[a], [-a]], dtype=complex))


def psi_plus(basis: LogicalBasis) -> CoherentSuperposition:
    """|Psi+> = (cos th |ta> - sin th |-ta>) / sqrt(N_theta)."""
    cos, sin = basis.cos_sin.tolist()
    return _on_pair(basis, cos, -sin)


def psi_minus(basis: LogicalBasis) -> CoherentSuperposition:
    """|Psi-> = (-sin th |ta> + cos th |-ta>) / sqrt(N_theta)."""
    cos, sin = basis.cos_sin.tolist()
    return _on_pair(basis, -sin, cos)


# ---------------------------------------------------------------------------
# the oracles of the accuracy rows: per-term loops, Fock and Kraus sums, and
# Horn's eigenvalue by enumeration and by singular values


def random_state(rng, modes=1, max_terms=4, max_amp=2.0):
    """A superposition of one to ``max_terms`` terms, each amplitude part and
    coefficient part uniform, the amplitude's in [-max_amp, max_amp] / sqrt 2."""
    n = int(rng.integers(1, max_terms + 1))
    coeffs = np.empty(n, dtype=complex)
    amps = np.empty((n, modes), dtype=complex)
    for t in range(n):
        for m in range(modes):
            amps[t, m] = (complex(rng.uniform(-max_amp, max_amp), rng.uniform(-max_amp, max_amp))
                          / math.sqrt(2.0))
        coeffs[t] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return CoherentSuperposition(coeffs, amps)


def sizes(seed, cases=12):
    """(terms, modes) pairs spanning 1-64 terms and 1-4 modes."""
    rng = np.random.default_rng(seed)
    terms = np.rint(np.exp(rng.uniform(0.0, math.log(64.0), cases))).astype(int)
    return [(1, 1), (64, 4)] + [(int(t), int(m)) for t, m in zip(terms, rng.integers(1, 5, cases))]


def scale(*states):
    """The product of the states' coefficient 1-norms, which bounds their overlap sums."""
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


def ref_to_fock(s, cutoff):
    amps = np.zeros((cutoff + 1,) * s.modes, dtype=complex)
    for coeff, row in zip(s.coeffs.tolist(), s.amps.tolist()):
        vec = fock_ket(row[0], cutoff)
        for a in row[1:]:
            vec = np.multiply.outer(vec, fock_ket(a, cutoff))
        amps += coeff * vec
    return amps


def fock_inner(a, b) -> complex:
    """<a|b> of two Fock vectors on the same modes and cutoff."""
    assert (a.modes, a.cutoff) == (b.modes, b.cutoff)
    return complex(np.vdot(a.amps, b.amps))


@functools.cache
def fock_beam_splitter(cutoff: int) -> np.ndarray:
    """``beam_split`` as a truncated-Fock unitary on two modes: a pi/4
    two-mode rotation followed by a pi phase on the second output, built
    from exp(theta (ad b - a bd)) and exp(i pi n)."""
    dim = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    ad = a.conj().T
    rot = expm((math.pi / 4.0) * (np.kron(ad, a) - np.kron(a, ad)))
    phase = np.diag(np.exp(1j * math.pi * np.arange(dim)))
    return np.kron(np.eye(dim), phase) @ rot


# The paper's vacuum channel as amplitude damping in the Fock basis, with
# transmissivity t^2 on each mode: an oracle for the decay law that contains
# neither it nor the closed forms.
ORACLE_CUTOFF = 60  # Poisson(4) beyond 60 photons is ~1e-46: |amp| <= 2 loses nothing


def fock_ket(beta: complex, cutoff: int = ORACLE_CUTOFF) -> np.ndarray:
    """<n|beta> = e^{-|beta|^2/2} beta^n / sqrt(n!), n = 0..cutoff."""
    n = np.arange(cutoff + 1)
    return (math.exp(-0.5 * abs(beta) ** 2) * np.power(complex(beta), n)
            / np.sqrt(special.factorial(n)))


def kraus(r: float, cutoff: int = ORACLE_CUTOFF) -> np.ndarray:
    """K_k = sum_m sqrt(C(m, k)) t^(m-k) r^k |m-k><m|, t = sqrt(1 - r^2), as an
    array (k, row, column)."""
    t = math.sqrt(1.0 - r * r)
    k, m = np.nonzero(np.less_equal.outer(np.arange(cutoff + 1), np.arange(cutoff + 1)))
    out = np.zeros((cutoff + 1,) * 3)
    out[k, m - k, m] = np.sqrt(special.comb(m, k)) * t ** (m - k) * r ** k
    return out


def logical_fock_kets(amplitude: float) -> np.ndarray:
    """Psi+ and Psi- at ``amplitude`` in the Fock basis, rows (2, cutoff + 1):
    (cos th |a> - sin th |-a>) / sqrt(N) and (-sin th |a> + cos th |-a>) / sqrt(N),
    sin 2th = <a|-a> = e^{-2 a^2}, N = 1 - e^{-4 a^2}."""
    s2 = math.exp(-2.0 * amplitude * amplitude)
    th, n = 0.5 * math.asin(s2), -math.expm1(-4.0 * amplitude * amplitude)
    plus, minus = fock_ket(amplitude), fock_ket(-amplitude)
    return np.stack((math.cos(th) * plus - math.sin(th) * minus,
                     -math.sin(th) * plus + math.cos(th) * minus)) / math.sqrt(n)


def kraus_channel_density(alpha: float, r: float) -> tuple[np.ndarray, float]:
    """The channel density at (alpha, r) by the Kraus sums on B4's Fock vector,
    and that vector's tail bound: <e_i| K_k on each mode, then sum_k over both
    modes' environments."""
    fock = to_fock(bell_state(4, make_basis(alpha)), ORACLE_CUTOFF)
    bra_k = np.einsum("in,knm->ikm", logical_fock_kets(math.sqrt(1.0 - r * r) * alpha).conj(),
                      kraus(r))
    amps = np.einsum("akm,mn->akn", bra_k, fock.amps)
    amps = np.einsum("akn,bln->abkl", amps, bra_k).reshape(4, -1)
    return amps @ amps.conj().T, fock.tail_bound


def damp_single_dyad(beta, gamma, clock):
    """(coefficient, ket, bra) of the damped single-mode dyad |beta><gamma|."""
    dyad = CoherentOperator(np.ones(1, dtype=complex), np.array([[beta]], dtype=complex),
                            np.array([[gamma]], dtype=complex))
    out = decohere(dyad, clock)
    return out.coeffs[0], out.kets[0, 0], out.bras[0, 0]


# The 48 signed permutation matrices, permutation major; the 24 of determinant
# +1 are rotations.
SIGNED_PERMUTATIONS = np.array([np.eye(3)[list(perm)] * np.array(signs)[:, None]
                                for perm in itertools.permutations(range(3))
                                for signs in itertools.product((1.0, -1.0), repeat=3)])


def max_rotation_trace_enumerated(m: np.ndarray) -> float:
    """max Tr(M O) over the rotations among the signed permutations: the
    rotation optimum whenever M is diagonal, as the damped channel's is."""
    return max(float(np.trace(m @ o)) for o in SIGNED_PERMUTATIONS if np.linalg.det(o) > 0)


def rotation_trace_by_lu(m: np.ndarray) -> np.ndarray:
    """max_rotation_trace by singular values, with the sign of det M from
    LAPACK's LU: s1 + s2 + sgn(det M) s3."""
    sv = np.linalg.svd(m, compute_uv=False)
    return sv[..., 0] + sv[..., 1] + np.where(np.linalg.det(m) >= 0, sv[..., 2], -sv[..., 2])


def exact_det(m: np.ndarray) -> int:
    """The determinant of a 3x3 matrix of integers, in integer arithmetic."""
    (a, b, c), (d, e, f), (g, h, i) = m.astype(int).tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def bloch_transfer_reference(lam):
    """Q[k, m, n] = tr(s_m Lambda_k(s_n)) / 4 by direct contraction of the map."""
    return np.einsum("mli,kaAil,naA->kmn", PAULI_BASIS, lam, PAULI_BASIS).real / 4.0


# ---------------------------------------------------------------------------
# the references that library functions match bit for bit, and the edge
# cases they are matched on


def bell_reference(k, basis):
    """Bell state k as the consolidated sum of tensor products of psi_plus
    and psi_minus."""
    p, m = psi_plus(basis), psi_minus(basis)
    first, second = (tensor(p, p), tensor(m, m)) if k < 3 else (tensor(p, m), tensor(m, p))
    return consolidate((1.0 / math.sqrt(2.0))
                       * (first + second if k % 2 else first + (-1.0) * second))


def bell_coeffs_reference(k, basis):
    """``bell_coeffs`` as a loop over the basis entries in Python's scalar
    float and complex arithmetic, one coefficient at a time."""
    inv = complex(1.0 / math.sqrt(2.0))
    n_thetas, (coss, sins) = np.asarray(basis.n_theta), basis.cos_sin
    coeffs = []  # amplitude major
    for n_theta, cos_theta, sin_theta in zip(n_thetas.flat, coss.flat, sins.flat):
        c = 1.0 / math.sqrt(n_theta)
        cos, sin = c * float(cos_theta), c * float(sin_theta)
        plus = (complex(cos), complex(-sin))  # Psi+ on (|ta>, |-ta>)
        minus = (complex(-sin), complex(cos))  # Psi-
        u, v, w, x = (plus, plus, minus, minus) if k < 3 else (plus, minus, minus, plus)
        for i in (0, 1):
            for j in (0, 1):
                second = w[i] * x[j]
                if k % 2 == 0:  # B2, B4: a - b is a + (-1) * b
                    second = complex(-1.0) * second
                coeffs.append(inv * (u[i] * v[j]) + inv * second)
    return np.array(coeffs).reshape(-1, 4).T.reshape((4,) + n_thetas.shape)


# log-uniform amplitudes t * alpha from the degeneracy floor to the CLI's largest
# alpha; sin(theta) underflows to 0 from t * alpha ~ 19.3 on
BASIS_AMPLITUDES = np.exp(np.random.default_rng(50).uniform(np.log(6e-7), np.log(1e6), 20000))


def bell_coeff_bases():
    """``BASIS_AMPLITUDES`` at four t, 200 log-uniform alpha by 100 t, one scalar basis."""
    alphas = np.exp(np.random.default_rng(51).uniform(np.log(1.2e-5), np.log(1e6), 200))
    times = np.random.default_rng(52).uniform(0.05, 1.0, 100)
    return [make_basis(BASIS_AMPLITUDES / t, t) for t in (1.0, 0.8, 0.3, 0.05)] + [
        make_basis(alphas[:, None], times), make_basis(0.7, 0.9)]


def project_reference(rho, basis):
    """The projection as it was computed before it became one contraction:
    the coefficients split into real and imaginary parts, the grid flat and
    worked through in blocks of 128 points, each dyad's products taken on
    the (re, im) pair and viewed as complex at the end.  A real operator's
    imaginary parts are zeros, and it gives the real parts."""
    coords = logical_coords(np.concatenate((rho.kets[:, None], rho.bras[:, None]), axis=1), basis)
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
    out = out.view(complex).reshape(grid + (4, 4))
    if np.iscomplexobj(rho.coeffs):
        return out
    assert not out.imag.any()
    return np.ascontiguousarray(out.real)


def _summed_products(c, coords):
    """The sum over terms of c x ket0 x ket1 x bra0 x bra1, (points, 32),
    each product in that order on the (re, im) pair of c; the terms are
    summed from zero in order."""
    prod = c[:, None] * coords[:, 0, 0, :, None]
    prod = prod[:, :, None] * coords[:, 0, 1, None, :, None]
    prod = prod[:, :, :, None] * coords[:, 1, 0, None, None, :, None]
    prod = prod[:, :, :, :, None] * coords[:, 1, 1, None, None, None, :, None]
    return prod.sum(axis=0, initial=0.0).reshape(32, -1).T


def five_operand_einsum(rho, basis):
    """The projection as one five-operand contraction, c ket0 ket1 bra0 bra1
    multiplied left to right in einsum's generic loop and summed over the
    dyads from zero in term order."""
    coords = logical_coords(np.stack((rho.kets, rho.bras), axis=1), basis).astype(complex)
    out = np.einsum("t...,t...i,t...j,t...k,t...l->...ijkl", rho.coeffs,
                    coords[:, 0, 0], coords[:, 0, 1], coords[:, 1, 0], coords[:, 1, 1])
    return out.reshape(out.shape[:-4] + (4, 4))


def random_dyads(grid):
    """Six random complex coefficients on random +-t alpha dyads, one basis a point."""
    rng = np.random.default_rng(29)
    basis = make_basis(rng.uniform(0.05, 3.0, grid), rng.uniform(0.05, 1.0, grid))
    signs = rng.choice((-1.0, 1.0), size=(2, 6, 2) + grid)
    kets, bras = (signs * basis.amplitude).astype(complex)
    coeffs = rng.standard_normal((6,) + grid) + 1j * rng.standard_normal((6,) + grid)
    return CoherentOperator(coeffs, kets, bras), basis


def channel_projections():
    """Calls (operator, basis) of the projection: the decayed B4 dyad at six
    amplitudes on r grids with block edges (127-129, 257 points) and a (3, 400)
    grid, Bell dyads mixed, and what ``channel_rho4`` projects on an (alpha, r) grid."""
    cases = []
    for alpha in (1e-3, 0.1, 1.0, 2.5, 13.4, 1e6):
        b4 = dyad_from_pure(bell_state(4, make_basis(alpha, 1.0)))
        for shape in ((1,), (2,), (127,), (128,), (129,), (257,), (3, 400)):
            clock = DecayClock.from_r(np.linspace(0.0, 0.995, math.prod(shape)).reshape(shape))
            cases.append([(decohere(b4, clock), make_basis(alpha, clock.t))])
    b = make_basis(0.8, 1.0)
    mixture = operator_sum((1.0 / 1.5, dyad_from_pure(bell_state(2, b))),
                           (0.5 / 1.5, dyad_from_pure(bell_state(3, b))))
    seen = []
    with mock.patch.object(decoherence, "project_to_density", lambda *args: seen.append(args)):
        channel_rho4(np.array([1e-3, 0.4, 1.7, 13.4]), np.linspace(0.0, 0.9999, 131))
    return cases + [[(mixture, b)], seen]


def pauli_reference(rho: TwoQubitDensity) -> np.ndarray:
    """The complex contraction tr(rho s_m (x) s_n) that ``pauli_decompose``
    takes as signed sums of four parts."""
    return np.einsum("...ij,mnji->...mn", rho.matrix, PAULI_PRODUCTS).real


def signed_zero_density() -> TwoQubitDensity:
    """200 diagonal densities whose other parts are +-0 at random: some Pauli
    coordinates are then four parts that all read -0, and the contraction,
    which sums from +0, reads +0 in every coordinate."""
    rng = np.random.default_rng(28)
    m = np.where(rng.random((200, 4, 4, 2)) < 0.5, -0.0, 0.0)
    m[:, range(4), range(4), 0] = 0.25
    rho = TwoQubitDensity(m.view(complex)[..., 0])
    signed = rho.matrix.reshape(200, 16).view(float)[:, qe._PAULI_GATHER] * qe._PAULI_SIGN
    assert np.signbit(signed).all(axis=1).any()
    assert not np.signbit(pauli_reference(rho)).any()
    return rho


def real_densities() -> TwoQubitDensity:
    """Random real symmetric densities of ranks 1 to 4, then channel densities."""
    rng = np.random.default_rng(48)
    g = rng.standard_normal((2000, 4, 4)) * (rng.random((2000, 1, 4)) < 0.7)
    m = g @ g.swapaxes(-1, -2) + np.eye(4) * rng.choice((0.0, 1e-3), (2000, 1, 1))
    m = m[np.trace(m, axis1=-2, axis2=-1) > 0]
    m /= np.trace(m, axis1=-2, axis2=-1)[:, None, None]
    m = (m + m.swapaxes(-1, -2)) / 2.0
    grid = channel_rho4(np.array([2e-3, 0.1, 0.7, 2.5, 13.4]), np.linspace(0.0, 0.9999, 200))
    real = TwoQubitDensity(np.concatenate((m, grid.matrix.reshape(-1, 4, 4))))
    assert real.matrix.dtype == np.float64
    return real


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


def signed_zero_fock_states(modes):
    """150 (state, cutoff) pairs of 1-3 terms, where a zero part can reach an output
    amplitude: pure-imaginary and vacuum amplitudes, parts of +-0 and +-5e-324."""
    rng = np.random.default_rng([53, modes])
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 0.7, -1.3])
    out = []
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
        out.append((CoherentSuperposition(coeffs, amps), cutoff))
    return out


def sequential_merge(s):
    """``consolidate`` by the sequential merge: the kept coefficients and rows."""
    reps = []
    for c, row in zip(s.coeffs.tolist(), s.amps.tolist()):
        for i, (coeff, amps) in enumerate(reps):
            if row == amps:
                reps[i] = (coeff + c, amps)
                break
        else:
            reps.append((c, row))
    floor = DROP_TOL * max(abs(c) for c, _ in reps)
    kept = [(c, a) for c, a in reps if abs(c) > floor] or [(0.0 + 0.0j, s.amps[0].tolist())]
    return tuple(np.array(part, dtype=complex) for part in zip(*kept))


def ulp_apart_states():
    """200 states whose rows repeat from a few centres, some entries moved one
    ulp up or down, so that exact repeats and rows one ulp apart both occur."""
    rng = np.random.default_rng(50)
    out = []
    for _ in range(200):
        modes = int(rng.integers(1, 4))
        centers = rng.uniform(-1, 1, (3, modes)) + 1j * rng.uniform(-1, 1, (3, modes))
        n = int(rng.integers(1, 40))
        amps = centers[rng.integers(0, 3, n)]
        for part in (amps.real, amps.imag):
            moved = rng.uniform(size=(n, modes)) < 0.15
            part[moved] = np.nextafter(part[moved], rng.choice([-2.0, 2.0], moved.sum()))
        coeffs = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        out.append(CoherentSuperposition(coeffs, amps))
    return out


def signed_zero_repeats(terms):
    """``terms`` terms whose rows repeat from a few centres with parts of +-0, a
    repeat may flip a zero's sign, and coefficient parts are often -0.0."""
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
    assert len(sequential_merge(s)[0]) < terms
    return s


def bell_cells(state):
    """Every non-zero Fock cell of the split state, row-major, as a double
    loop over the grid: (outcome, probability) in Python ints and floats."""
    dist = photon_distribution(beam_split(state, 0, 1))
    return tuple((BellOutcome(classify_counts(n_f, n_g), (n_f, n_g)), float(dist.probs[n_f, n_g]))
                 for n_f in range(dist.cutoff + 1) for n_g in range(dist.cutoff + 1)
                 if dist.probs[n_f, n_g] > 0.0)


def mc_kernel_reference(q, samples, seed):
    """teleport_average_mc as it was with an (n, 4) layout, shot axis outermost,
    in one block: the kernel's bits do not depend on its block size."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, samples)
    ph = rng.uniform(0.0, 2.0 * math.pi, samples)
    u = rng.random(samples)
    s = np.sqrt((1.0 - z) * (1.0 + z))
    b = np.stack([np.ones_like(z), s * np.cos(ph), s * np.sin(ph), z])
    probs = sum(2.0 * q[:, 0, j] * b[j][:, None] for j in range(4))
    cum = np.cumsum(probs, axis=1)
    ks = (u[:, None] * cum[:, -1:] > cum).sum(axis=1)
    qk = q[ks]
    num = sum(b[i] * sum(qk[:, i, j] * b[j] for j in range(4)) for i in range(4))
    fids = num / probs[np.arange(samples), ks]
    mean = float(fids.mean())
    stderr = float(fids.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr


def mc_block_edges():
    """Calls (MC_CHUNK, transfer, shots, seed) of the Monte Carlo: blocks of 1, 7 and
    MC_CHUNK shots; 2 chunk and 2 chunk + 1 shots put block edges at the starts of
    the stream's segments, and the first seed runs again last.  Then transfers near
    underflow and of random densities, and MC_CHUNK +-1 shots in blocks of 7 and
    MC_CHUNK (blocks of 1 run above, at 1 to 8 shots).  Last, one block of each size
    that took cos and sin unsorted before every block sorted, 1808 shots being the
    tail of a default teleport-mc row."""
    chunk0, transfer = protocols.MC_CHUNK, protocols.bloch_transfer
    qs = [transfer(channel_rho4(*p)) for p in ((1.0, 0.0), (0.4, 0.6), (2.0, 0.93))]
    cases = [[(chunk, qs[k], n, 100 + k) for n in sorted(
        {1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1, 3 * chunk + 5} - {0})
        for k in (0, 1, 2, 0)] for chunk in (1, 7, chunk0)]
    for rho in [channel_rho4(*p) for p in ((1e-3, 0.4), (13.4, 0.0), (13.4, 0.7), (1e6, 0.9))
                ] + [random_density(seed) for seed in (1, 2, 3)]:
        cases.append([(chunk0, transfer(rho), n, n) for n in (1, 2, chunk0 - 1, chunk0 + 1)])
    q = transfer(random_density(4))
    cases += [[(chunk, q, chunk0 + offset, 17) for chunk in (7, chunk0)]
              for offset in (-1, 0, 1)]
    return cases + [[(chunk0, qs[k], n, n + k) for n in (300, 1000, 1808, 2559)]
                    for k in (0, 1, 2)]


# ---------------------------------------------------------------------------
# the CLI's tables: the row-dict writers that the column writers replaced


def _format_value(v) -> str:
    return str(int(v)) if isinstance(v, (int, np.integer)) else f"{float(v):.17g}"


def csv_by_rows(table) -> str:
    """The CSV text of a column table, one row dict at a time."""
    rows = row_dicts(table)
    if not rows:
        return "\n"
    cols = list(rows[0].keys())
    lines = [",".join(_format_value(row[c]) for c in cols) for row in rows]
    return "\n".join([",".join(cols)] + lines) + "\n"


def json_by_rows(table) -> str:
    """The JSON text of a column table, one row dict at a time."""
    plain = [{k: (int(v) if isinstance(v, (int, np.integer)) else float(v)) for k, v in r.items()}
             for r in row_dicts(table)]
    return json.dumps(plain, indent=2) + "\n"


def _broadcast_columns(table):
    """Each column of a column table broadcast to the table's shape, flat in C order."""
    shape = np.broadcast_shapes(*(col.shape for col in table.values()))
    return [np.broadcast_to(col, shape).ravel() for col in table.values()]


def row_dicts(table):
    """The per-row dicts of a column table, with numpy scalar values."""
    return [dict(zip(table, values)) for values in zip(*_broadcast_columns(table))]


def row_tuples(table):
    """The rows of a column table as tuples of Python values."""
    return list(zip(*[col.tolist() for col in _broadcast_columns(table)]))


def rows_per_alpha(argv):
    """The rows of each amplitude's own request, in order; a teleport-mc seed moves
    on by len(r) an amplitude, so that each row keeps its stream."""
    cfg, rows = cli._parse(argv), []
    for a, alpha in enumerate(cfg.alphas):
        one = dict(vars(cfg), alphas=[alpha])
        if "seed" in one:
            one["seed"] += a * cfg.r_steps
        rows += row_tuples(cli._ROW_BUILDERS[cfg.command](argparse.Namespace(**one)))
    return rows


def teleport_rows_per_point(argv):
    """A teleport-mc request's rows, point by point: each point's own channel
    density, transfer, exact average and Monte Carlo on its own stream."""
    cfg, rows = cli._parse(argv), []
    for a, alpha in enumerate(cfg.alphas):
        for i, r in enumerate(cli._r_grid(cfg).tolist()):
            q = protocols.bloch_transfer(channel_rho4(alpha, r))
            mean, stderr = protocols.teleport_average_mc(q, cfg.samples,
                                                         cfg.seed + a * cfg.r_steps + i)
            rows.append((alpha, r, protocols.average_fidelity(q), mean, stderr, cfg.samples))
    return rows


# Extreme values in flat columns, and in broadcast ones: NaN, +-inf, -0.0 next
# to 0.0, the least subnormal, and 0-d ints, in (A, 1), (1, R) and 0-d columns
_ALPHA_COL = np.array([[math.nan], [-0.0], [0.0], [math.inf], [5e-324]])
_R_COL = np.array([[-math.inf, 0.0, -0.0, 5e-324, 1.0 / 3.0, math.nan]])
WRITER_TABLES = {
    "flat": {"x": np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                            2.2250738585072014e-308, 1e300, -1e300, 1.0 / 3.0, 0.1, 1e16,
                            123456789.0]),
             "n": np.array([0, 1, -7, 2**62, -(2**62), 10, 3, 4, 5, 6, 7, 8, 9])},
    "flat-one-nan": {"only": np.array([math.nan])},
    "flat-mixed": {"a": np.array([1.5, -2.5]), "b_col": np.array([-0.0, math.inf]),
                   "k": np.array([1, 0]), "c": np.array([math.nan, 1e-320])},
    "with-full-column": {"alpha": _ALPHA_COL, "r": _R_COL,
                         "x": np.arange(30.0).reshape(5, 6) - 14.0,
                         "const": np.array(-0.0), "n": np.array(7), "big": np.array(-(2**62))},
    "no-full-column": {"n": np.array(3), "r": _R_COL, "alpha": _ALPHA_COL,
                       "nan": np.array(math.nan)},
    "flat-axis": {"alpha": _ALPHA_COL, "r": _R_COL[0], "inf": np.array(-math.inf)},
    "middle-axis": {"a": np.array([[[1.5, -0.0, math.inf]], [[math.nan, 0.0, 5e-324]]]),
                    "b": np.array([[-1.0], [0.0], [-0.0], [math.inf]]), "k": np.array(0)},
    "one-row": {"a": np.array(math.nan), "b": np.array([[-0.0]]), "n": np.array(1)},
}
DEFAULT_ARGV = {
    "fig2a": [], "fig2b": [], "fig3": [], "bellmeas": [], "concentrate": [], "cv": [],
    "teleport-mc": ["--samples", "50"],
}
