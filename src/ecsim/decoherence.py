"""Closed-form vacuum (amplitude-damping) evolution of coherent dyads.

Each mode coupled to a zero-temperature bath evolves a dyad as

    |b><g|  ->  <g|b>^(1-t^2) |tb><tg|,     t = exp(-gamma tau / 2),

which is exact, trace preserving, and forms a semigroup in t.  The sweep
parameter used throughout is the normalized decoherence time
r = sqrt(1 - t^2) in [0, 1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# dyad_from_pure stays bound here, uncalled: perfbench/test_perfbench.py
# checks that its tracer wraps the name in this namespace too.
from .coherent_states import CoherentOperator, dyad_from_pure, log_overlap  # noqa: F401
from .qubit_encoding import (
    TwoQubitDensity,
    basis_in_range,
    bell_coeffs,
    check_nondegenerate,
    project_to_density,
)

# Signs of the channel's dyad amplitudes over alpha, (ket/bra, term, mode):
# the dyads |k_i><k_j| of k_0 = (a, -a) and k_1 = (-a, a), ket term major.
_DYAD_SIGNS = np.array([[[1, -1], [1, -1], [-1, 1], [-1, 1]],
                        [[1, -1], [-1, 1], [1, -1], [-1, 1]]], dtype=complex)
_ALPHA_BOUND = float(np.sqrt(np.finfo(float).max))  # the largest alpha with a finite square


@dataclass(frozen=True)
class DecayClock:
    """Amplitude decay factor t = exp(-gamma tau / 2); r = sqrt(1 - t^2).

    ``t`` may be an array, one clock per entry; ``from_r`` also takes a list.
    """

    t: float | np.ndarray

    def __post_init__(self):
        if not np.logical_and(0.0 < self.t, self.t <= 1.0).all():
            raise ValueError("decay factor t must lie in (0, 1]")

    @classmethod
    def from_r(cls, r) -> "DecayClock":
        r = np.asarray(r, dtype=float)
        if not r.size:
            raise ValueError("r must hold at least one decay time")
        if not np.logical_and(0.0 <= r, r < 1.0).all():
            raise ValueError("normalized time r must lie in [0, 1)")
        return cls(np.sqrt(1.0 - r * r))


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


def channel_coefficients(alpha, r) -> tuple[np.ndarray, ...]:
    """Closed-form coefficients (a, b, c, d, gamma, W, N_theta) of the damped
    entangled channel, from ``closed_form_inputs``.

    With W = exp(-4 t^2 a^2) and the decoherence functional
    gamma = exp(-4 r^2 a^2):

        a = (1 - gamma) W
        b = (1 - gamma) sqrt(W)
        c = 2 - (1 + gamma) W
        d = -2 gamma + (1 + gamma) W

    Each of these has the shape ``alpha.shape + r.shape``; N_theta =
    1 - exp(-4 a^2), the time-independent normalization of the undecayed
    basis, has the shape of ``alpha`` with a length-1 axis for each of ``r``.
    """
    t, a2, n_theta = closed_form_inputs(alpha, r)
    t2 = t * t
    g = np.exp(-4.0 * (1.0 - t2) * a2)
    w = np.exp(-4.0 * t2 * a2)
    loss, gw = 1.0 - g, (1.0 + g) * w
    return loss * w, loss * np.sqrt(w), 2.0 - gw, -2.0 * g + gw, g, w, n_theta


def _amplitudes(alpha) -> np.ndarray:
    """``alpha`` as a float array, checked to hold positive amplitudes with finite squares."""
    alpha = np.asarray(alpha, dtype=float)
    if not alpha.size:
        raise ValueError("alpha must hold at least one amplitude")
    if not alpha.min() > 0.0:
        raise ValueError("alpha must be positive")
    if not alpha.max() <= _ALPHA_BOUND:
        raise ValueError(f"alpha must be at most {_ALPHA_BOUND!r}: beyond it alpha^2 overflows")
    return alpha


def closed_form_inputs(alpha, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, alpha^2, N_theta): t = sqrt(1 - r^2) shaped like ``r``, then alpha^2
    and the undecayed basis's normalization N_theta = 1 - exp(-4 alpha^2),
    shaped like ``alpha`` with a length-1 axis for each of ``r``: alpha's
    axes come ahead of r's, as in ``channel_rho4``.

    Checks ``alpha``, then ``r``, as ``channel_rho4`` does.  Also the closed
    forms' guard: raises DegenerateBasisError, with the same message, when
    the numeric route's basis is degenerate, which ``channel_rho4`` checks
    undecayed first and then at every t; the decayed basis is degenerate
    first at the least t, where N_theta alone is checked.
    """
    alpha = _amplitudes(alpha)
    t = DecayClock.from_r(r).t
    alpha = alpha.reshape(alpha.shape + (1,) * t.ndim)
    a2 = alpha * alpha
    n_theta = -np.expm1(-4.0 * a2)
    check_nondegenerate(alpha, 1.0, n_theta)
    t_min = t.min()
    ta = t_min * alpha
    check_nondegenerate(alpha, t_min, -np.expm1(-4.0 * (ta * ta)))
    return t, a2, n_theta


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
    alpha = _amplitudes(alpha)
    clock = DecayClock.from_r(r)
    b4 = bell_coeffs(4, basis_in_range(alpha, 1.0))[1:3]
    # |B4><B4| in dyad_from_pure's term order, the amplitude axes last:
    # coefficients (terms, *alpha), kets and bras (terms, modes, *alpha)
    coeffs = (b4[:, None] * b4.conj()[None]).reshape((4,) + alpha.shape)
    kets, bras = np.multiply.outer(_DYAD_SIGNS, alpha)
    rho = decohere(CoherentOperator(coeffs, kets, bras), clock)
    # the amplitudes ahead of the decay-time axes; [()] makes a 0-d one a
    # scalar.  Both are in range: alpha is checked above, and a clock's t
    # lies in (0, 1].
    alpha = alpha.reshape(alpha.shape + (1,) * np.ndim(clock.t))[()]
    return project_to_density(rho, basis_in_range(alpha, clock.t))


def closed_form_vst(alpha, r) -> np.ndarray:
    """Closed-form Pauli coordinates of the channel, as ``pauli_decompose``.

    Both Bloch vectors are (b/N_theta, 0, 0) and T is diagonal with entries
    (a+d, -a+d, a-c)/(2 N_theta), with a, b, c, d and N_theta from
    ``channel_coefficients``, and the trace c[..., 0, 0] is 1.  An array
    ``alpha`` and an array ``r`` give shape ``alpha.shape + r.shape + (4, 4)``,
    like ``closed_form_e``.
    """
    a, b, c, d, _, _, n_theta = channel_coefficients(alpha, r)
    coords = np.zeros(np.shape(b) + (4, 4))
    coords[..., 0, 0] = 1.0
    coords[..., 1, 0] = coords[..., 0, 1] = b / n_theta
    n2 = 2.0 * n_theta
    coords[..., 1, 1] = (a + d) / n2
    coords[..., 2, 2] = (-a + d) / n2
    coords[..., 3, 3] = (a - c) / n2
    return coords
