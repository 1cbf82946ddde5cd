"""The references that the tests read: the channel's and the swap's decimal
referees, the 40-digit Poisson tail, the one-amplitude routes of the channel
and its closed forms, shared points and shared numpy helpers.  Test
modules import them from here, never from one another, so a helper renamed in
one cannot break the collection of another.  pytest does not collect this
module (no ``test_`` prefix); its default import mode puts ``tests/`` on the
path.
"""
import decimal
import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ecsim.coherent_states import CoherentOperator, CoherentSuperposition, dyad_from_pure
from ecsim.decoherence import DecayClock, decohere
from ecsim.entanglement_metrics import closed_form_e, closed_form_f, closed_form_s
from ecsim.protocols import CORRECTIONS
from ecsim.qubit_encoding import (BELL_VECTORS, PAULIS, LogicalBasis, TwoQubitDensity,
                                  bell_state, make_basis, project_to_density)

# Python's a**2 (libm's pow) and a product differ on 0.45641438732799167,
# which moves its B4 coefficients, and on the N_theta of 0.6367562934712789;
# the rest span the CLI's range.
PINNED_ALPHAS = (0.45641438732799167, 0.6367562934712789, 0.15, 1e-3, 13.4, 1e6)
# The CLI's amplitude range, log-spaced.
LOG_ALPHAS = np.logspace(-3.0, 6.0, 19)
# The numeric route's error model, read by the error-model tests and the
# CLI's column checks: max |E - closed E|, |f - closed f|, the Pauli
# coordinates' and |tr rho - 1| are at most eps (ERROR_K / N_theta +
# ERROR_C), N_theta = 1 - exp(-4 alpha^2).  The K / N_theta part is the
# cancellation in the dyad sum, where B4's coefficients of +-1/(2 N_theta)
# meet in entries of order 1; C is the rounding of those entries.  On 25
# alpha in [1e-3, 2] by 1200 r it read at most 1.73 eps / N_theta up to
# alpha = 0.09, and 28 eps against a bound of 30.9 at alpha = 0.16, its
# tightest point.  S = 1 - tr(rho^2) has its own constants: on that grid it
# read at most 2.4 eps / N_theta up to alpha = 0.09, and 37 eps at 0.16; 800
# alpha in [1e-3, 16] by these r read up to 3.5 eps / N_theta below 0.09 and
# 15 eps past 1, and 4000 alpha in [1e-2, 16] at r = 0 up to 17 eps at 2.4.
ERROR_K, ERROR_C = 2.0, 10.0
S_ERROR_K, S_ERROR_C = 4.0, 20.0
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


def channel_one_amplitude(alpha: float, r):
    """The damped channel of one amplitude from the scalar pieces: the B4
    state of the undecayed basis, its dyad, the decay and the projection."""
    clock = DecayClock.from_r(r)
    rho = decohere(dyad_from_pure(bell_state(4, make_basis(alpha, 1.0))), clock)
    return project_to_density(rho, make_basis(alpha, clock.t))


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
