"""Closed-form vacuum (amplitude-damping) evolution of coherent dyads.

Each mode coupled to a zero-temperature bath evolves a dyad as

    |b><g|  ->  <g|b>^(1-t^2) |tb><tg|,     t = exp(-gamma tau / 2),

which is exact, trace preserving, and forms a semigroup in t.  The sweep
parameter used throughout is the normalized decoherence time
r = sqrt(1 - t^2) in [0, 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# dyad_from_pure stays bound here, uncalled: perfbench/test_perfbench.py
# checks that its tracer wraps the name in this namespace too.
from .coherent_states import CoherentOperator, dyad_from_pure, log_overlap  # noqa: F401
from .qubit_encoding import (
    PauliDecomposition,
    TwoQubitDensity,
    basis_from_squares,
    bell_coeffs,
    each_float,
    make_basis,
    project_to_density,
)

# Signs of the channel's dyad amplitudes over alpha, (ket/bra, term, mode):
# the dyads |k_i><k_j| of k_0 = (a, -a) and k_1 = (-a, a), ket term major.
_DYAD_SIGNS = np.array([[[1, -1], [1, -1], [-1, 1], [-1, 1]],
                        [[1, -1], [-1, 1], [1, -1], [-1, 1]]], dtype=complex)


@dataclass(frozen=True)
class DecayClock:
    """Amplitude decay factor t = exp(-gamma tau / 2); r = sqrt(1 - t^2).

    ``t`` may be an array of decay factors, one clock per entry.
    """

    t: float | np.ndarray

    def __post_init__(self):
        if not np.logical_and(0.0 < self.t, self.t <= 1.0).all():
            raise ValueError("decay factor t must lie in (0, 1]")

    @classmethod
    def from_r(cls, r) -> "DecayClock":
        if not np.logical_and(0.0 <= r, r < 1.0).all():
            raise ValueError("normalized time r must lie in [0, 1)")
        # every such r gives t = sqrt(1 - r^2) in (0, 1]: not checked again
        clock = object.__new__(cls)
        object.__setattr__(clock, "t", np.sqrt(1.0 - r * r))
        return clock


def decohere(rho: CoherentOperator, clock: DecayClock) -> CoherentOperator:
    """Damp every mode of a coherent operator independently.

    Each dyad coefficient gains <gamma|beta>^(1-t^2), evaluated as
    exp((1-t^2) w) with w the exact overlap exponent, so no branch choice is
    involved even for complex amplitudes.  Trace and Hermiticity are
    preserved exactly: the per-mode coefficient times <t gamma|t beta>
    recombines to the original <gamma|beta>.  With an array clock every
    coefficient and amplitude gains trailing axes of the clock's shape.
    """
    t = clock.t
    w = log_overlap(rho.bras, rho.kets).sum(axis=1)  # (terms, *batch)
    # term axis first: (terms, *batch, *clock) coefficients,
    # (terms, modes, *batch, *clock) amplitudes
    factor = np.exp(np.multiply.outer(w, 1.0 - t * t))
    coeffs = rho.coeffs.reshape(rho.coeffs.shape + (1,) * np.ndim(t)) * factor
    return CoherentOperator(
        coeffs, np.multiply.outer(rho.kets, t), np.multiply.outer(rho.bras, t)
    )


@dataclass(frozen=True)
class ChannelCoefficients:
    """Closed-form coefficients of the damped entangled channel.

    With W = ``w_coef`` = exp(-4 t^2 a^2) and the decoherence functional
    gamma_coef = exp(-4 r^2 a^2):

        a_coef = (1 - gamma_coef) W
        b_coef = (1 - gamma_coef) sqrt(W)
        c_coef = 2 - (1 + gamma_coef) W
        d_coef = -2 gamma_coef + (1 + gamma_coef) W

    Each of these fields has the broadcast shape of ``alpha`` and ``r``;
    ``n_theta`` = 1 - exp(-4 a^2), the time-independent normalization of
    the undecayed basis, has the shape of ``alpha``.
    """

    a_coef: float | np.ndarray
    b_coef: float | np.ndarray
    c_coef: float | np.ndarray
    d_coef: float | np.ndarray
    gamma_coef: float | np.ndarray
    w_coef: float | np.ndarray
    n_theta: float | np.ndarray

    @classmethod
    def evaluate(cls, alpha, r) -> "ChannelCoefficients":
        """The coefficients at amplitude ``alpha`` over ``r``, behind the guard
        of ``closed_form_normalization``.  An array ``alpha`` (a column against
        a row ``r``, say) gives each entry the bits of its own scalar call."""
        t = DecayClock.from_r(r).t
        n_theta = closed_form_normalization(alpha, t)
        t2 = t**2
        a2 = each_float(lambda a: a**2, alpha)
        g = np.exp(-4.0 * (1.0 - t2) * a2)
        w = np.exp(-4.0 * t2 * a2)
        loss, gw = 1.0 - g, (1.0 + g) * w
        return cls(
            a_coef=loss * w,
            b_coef=loss * np.sqrt(w),
            c_coef=2.0 - gw,
            d_coef=-2.0 * g + gw,
            gamma_coef=g,
            w_coef=w,
            n_theta=n_theta,
        )


def closed_form_normalization(alpha, t) -> float | np.ndarray:
    """N_theta = 1 - exp(-4 alpha^2), the time-independent normalization of
    the undecayed basis shared by the closed forms, in the shape of
    ``alpha`` (0-d for a scalar), each entry with the bits of a scalar call.

    Also their degeneracy guard, given the decay factors ``t`` of the grid:
    raises DegenerateBasisError when the decayed basis at any ``t`` is
    degenerate, as the numeric route would.  Its normalization rises with
    ``t``, so the basis at the least ``t`` decides, with the same message;
    of several amplitudes, the first degenerate one is named.
    """
    make_basis(alpha, t.min())
    return each_float(lambda a: -math.expm1(-4.0 * a**2), alpha)


def channel_rho4(alpha: float | np.ndarray, r) -> TwoQubitDensity:
    """Density matrix of the damped antisymmetric entangled channel.

    Builds the undecayed channel state, damps both modes to normalized time
    ``r``, and projects onto the decayed logical product basis.  All dyad
    amplitudes are +-(t alpha), so the projection is exact and trace
    preserving.  ``alpha`` and ``r`` may be arrays: the batch of densities,
    shape ``alpha.shape + r.shape + (4, 4)``, is built in one pass over the
    whole grid, each density with the bits of its own scalar call.  The
    undecayed B4 dyads of all amplitudes are built at once from
    ``bell_coeffs`` of one batched basis; every one has the same terms,
    (a, -a) and (-a, a) on both sides, since the B4 coefficients on (a, a)
    and (-a, -a) cancel exactly, and those on the mixed kets are
    +-1/sqrt(2 N_theta), never zero (``bell_state`` drops and keeps the same).
    """
    alpha = np.asarray(alpha, dtype=float)
    if not alpha.size:
        raise ValueError("alpha must hold at least one amplitude")
    if not alpha.min() > 0.0:
        raise ValueError("alpha must be positive")
    # make_basis(a, 1.0) of every amplitude a, each with the bits of its own
    # call: the squares one float at a time (Python's a**2 is libm's pow,
    # numpy squares by a product, and the two can differ in the last bit)
    undecayed = basis_from_squares(alpha, 1.0, each_float(lambda a: a**2, alpha))
    b4 = bell_coeffs(4, undecayed)[1:3]
    # |B4><B4| in dyad_from_pure's term order, the amplitude axes last:
    # coefficients (terms, *alpha), kets and bras (terms, modes, *alpha)
    coeffs = (b4[:, None] * b4.conj()[None]).reshape((4,) + alpha.shape)
    kets, bras = np.multiply.outer(_DYAD_SIGNS, alpha)
    clock = DecayClock.from_r(r)
    rho = decohere(CoherentOperator(coeffs, kets, bras), clock)
    # the amplitudes ahead of the decay-time axes; [()] makes a 0-d one a
    # scalar.  Both are in range: alpha is checked above, and a clock's t
    # lies in (0, 1].
    alpha = alpha.reshape(alpha.shape + (1,) * np.ndim(clock.t))[()]
    return project_to_density(rho, basis_from_squares(alpha, clock.t, (clock.t * alpha) ** 2))


def closed_form_vst(alpha: float, r) -> PauliDecomposition:
    """Closed-form Bloch vectors and correlation matrix of the channel.

    v = s = (b_coef/N_theta, 0, 0) and T is diagonal with entries
    (a+d, -a+d, a-c)/(2 N_theta); N_theta = 1 - exp(-4 alpha^2) is the
    time-independent normalization of the undecayed basis.  Broadcasts over
    an array ``r`` like ``channel_rho4``.
    """
    co = ChannelCoefficients.evaluate(alpha, r)
    v = np.zeros(np.shape(co.b_coef) + (3,))
    v[..., 0] = co.b_coef / co.n_theta
    diag = np.stack(
        [co.a_coef + co.d_coef, -co.a_coef + co.d_coef, co.a_coef - co.c_coef], axis=-1
    ) / (2.0 * co.n_theta)
    return PauliDecomposition(v=v, s=v.copy(), t_matrix=diag[..., None] * np.eye(3))
