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
        # every such r gives t = sqrt(1 - r^2) in (0, 1]: not checked again
        clock = object.__new__(cls)
        object.__setattr__(clock, "t", np.sqrt(1.0 - r * r))
        return clock

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

    Each of these fields has the shape of ``r`` (a float for a scalar ``r``);
    ``n_theta`` = 1 - exp(-4 a^2) is the time-independent normalization of
    the undecayed basis.
    """

    a_coef: float
    b_coef: float
    c_coef: float
    d_coef: float
    gamma_coef: float
    w_coef: float
    n_theta: float

    @classmethod
    def evaluate(cls, alpha: float, r) -> "ChannelCoefficients":
        """The coefficients at amplitude ``alpha`` over ``r``, behind the
        guard of ``closed_form_normalization``."""
        t = DecayClock.from_r(r).t
        n_theta = closed_form_normalization(alpha, t)
        t2 = t**2
        g = np.exp(-4.0 * (1.0 - t2) * alpha**2)
        w = np.exp(-4.0 * t2 * alpha**2)
        return cls(
            a_coef=(1.0 - g) * w,
            b_coef=(1.0 - g) * np.sqrt(w),
            c_coef=2.0 - (1.0 + g) * w,
            d_coef=-2.0 * g + (1.0 + g) * w,
            gamma_coef=g,
            w_coef=w,
            n_theta=n_theta,
        )


def closed_form_normalization(alpha: float, t) -> float:
    """N_theta = 1 - exp(-4 alpha^2), the time-independent normalization of
    the undecayed basis shared by the closed forms.

    Also their degeneracy guard, given the decay factors ``t`` of the grid:
    raises DegenerateBasisError when the decayed basis at any ``t`` is
    degenerate, as the numeric route would.  Its normalization rises with
    ``t``, so the basis at the least ``t`` decides, with the same message.
    """
    make_basis(alpha, t.min())
    return -math.expm1(-4.0 * alpha**2)


def channel_rho4(alpha: float | np.ndarray, r) -> TwoQubitDensity:
    """Density matrix of the damped antisymmetric entangled channel.

    Builds the undecayed channel state, damps both modes to normalized time
    ``r``, and projects onto the decayed logical product basis.  All dyad
    amplitudes are +-(t alpha), so the projection is exact and trace
    preserving.  ``alpha`` and ``r`` may be arrays: the batch of densities,
    shape ``alpha.shape + r.shape + (4, 4)``, is built in one pass over the
    whole grid, each density with the bits of its own scalar call.  Only the
    undecayed B4 dyad is built per amplitude; every one has the same terms,
    (ta, -ta) and (-ta, ta) on both sides, and a dyad with other terms
    raises ValueError.
    """
    alpha = np.asarray(alpha, dtype=float)
    amps = alpha.ravel().tolist()
    if not amps:
        raise ValueError("alpha must hold at least one amplitude")
    # the undecayed dyads with the amplitude axis last: coefficients
    # (terms, n), kets and bras (terms, modes, n)
    for i, a in enumerate(amps):
        dyad = dyad_from_pure(bell_state(4, make_basis(a, 1.0)))
        if i == 0:
            coeffs = np.empty(dyad.coeffs.shape + (len(amps),), dtype=complex)
            kets, bras = np.empty((2,) + dyad.kets.shape + (len(amps),), dtype=complex)
        elif dyad.kets.shape != kets.shape[:-1]:
            raise ValueError(
                f"the B4 dyad at alpha={a} has {len(dyad.coeffs)} terms, "
                f"not {len(coeffs)} as at alpha={amps[0]}"
            )
        coeffs[:, i], kets[..., i], bras[..., i] = dyad.coeffs, dyad.kets, dyad.bras
    clock = DecayClock.from_r(r)
    batch = alpha.shape
    dyads = CoherentOperator(
        coeffs.reshape(coeffs.shape[:1] + batch),
        kets.reshape(kets.shape[:2] + batch),
        bras.reshape(bras.shape[:2] + batch),
    )
    rho = decohere(dyads, clock)
    # the amplitudes ahead of the decay-time axes; [()] makes a 0-d one a scalar
    basis = make_basis(alpha.reshape(batch + (1,) * np.ndim(clock.t))[()], clock.t)
    return project_to_density(rho, basis)


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
