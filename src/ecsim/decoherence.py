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

from .coherent_states import CoherentOperator, dyad_from_pure, log_overlap
from .qubit_encoding import (
    LogicalBasis,
    PauliDecomposition,
    TwoQubitDensity,
    bell_state,
    make_basis,
    project_to_density,
)


@dataclass(frozen=True)
class DecayClock:
    """Amplitude decay factor t = exp(-gamma tau / 2); r = sqrt(1 - t^2).

    ``t`` may be an array of decay factors, one clock per entry.
    """

    t: float | np.ndarray

    def __post_init__(self):
        if not np.logical_and(0.0 < self.t, self.t <= 1.0).all():
            raise ValueError("decay factor t must lie in (0, 1]")

    @property
    def r(self) -> float | np.ndarray:
        return np.sqrt(np.maximum(0.0, 1.0 - self.t * self.t))

    @classmethod
    def from_r(cls, r) -> "DecayClock":
        if not np.logical_and(0.0 <= r, r < 1.0).all():
            raise ValueError("normalized time r must lie in [0, 1)")
        return cls(t=np.sqrt(1.0 - r * r))

    @classmethod
    def from_interaction(cls, gamma: float, tau: float) -> "DecayClock":
        """Clock after evolving for time tau at energy decay rate gamma."""
        if gamma < 0 or tau < 0:
            raise ValueError("gamma and tau must be non-negative")
        return cls(t=math.exp(-0.5 * gamma * tau))


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

    Each field has the shape of ``r`` (a float for a scalar ``r``).
    """

    a_coef: float
    b_coef: float
    c_coef: float
    d_coef: float
    gamma_coef: float
    w_coef: float

    @classmethod
    def evaluate(cls, alpha: float, r) -> "ChannelCoefficients":
        t2 = DecayClock.from_r(r).t ** 2
        g = np.exp(-4.0 * (1.0 - t2) * alpha**2)
        w = np.exp(-4.0 * t2 * alpha**2)
        return cls(
            a_coef=(1.0 - g) * w,
            b_coef=(1.0 - g) * np.sqrt(w),
            c_coef=2.0 - (1.0 + g) * w,
            d_coef=-2.0 * g + (1.0 + g) * w,
            gamma_coef=g,
            w_coef=w,
        )


def decayed_basis(alpha: float, r) -> LogicalBasis:
    """Logical basis tracking the damped amplitude t * alpha."""
    return make_basis(alpha, DecayClock.from_r(r).t)


def closed_form_normalization(alpha: float, r) -> float:
    """N_theta = 1 - exp(-4 alpha^2), the time-independent normalization of
    the undecayed basis shared by the closed forms.

    Also their degeneracy guard: raises DegenerateBasisError when the decayed
    basis at any ``r`` is degenerate, as the numeric route would.
    """
    decayed_basis(alpha, r)
    return -math.expm1(-4.0 * alpha**2)


def channel_rho4(alpha: float, r) -> TwoQubitDensity:
    """Density matrix of the damped antisymmetric entangled channel.

    Builds the undecayed channel state, damps both modes to normalized time
    ``r``, and projects onto the decayed logical product basis.  All dyad
    amplitudes are +-(t alpha), so the projection is exact and trace
    preserving.  An array ``r`` gives the batch of densities, shape
    ``r.shape + (4, 4)``, in one pass.
    """
    basis0 = make_basis(alpha, 1.0)
    clock = DecayClock.from_r(r)
    rho = decohere(dyad_from_pure(bell_state(4, basis0)), clock)
    return project_to_density(rho, make_basis(alpha, clock.t))


def closed_form_vst(alpha: float, r) -> PauliDecomposition:
    """Closed-form Bloch vectors and correlation matrix of the channel.

    v = s = (b_coef/N_theta, 0, 0) and T is diagonal with entries
    (a+d, -a+d, a-c)/(2 N_theta); N_theta = 1 - exp(-4 alpha^2) is the
    time-independent normalization of the undecayed basis.  Broadcasts over
    an array ``r`` like ``channel_rho4``.
    """
    n_theta = closed_form_normalization(alpha, r)
    co = ChannelCoefficients.evaluate(alpha, r)
    v = np.zeros(np.shape(co.b_coef) + (3,))
    v[..., 0] = co.b_coef / n_theta
    diag = np.stack(
        [co.a_coef + co.d_coef, -co.a_coef + co.d_coef, co.a_coef - co.c_coef], axis=-1
    ) / (2.0 * n_theta)
    return PauliDecomposition(v=v, s=v.copy(), t_matrix=diag[..., None] * np.eye(3))
