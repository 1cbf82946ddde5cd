"""Closed-form vacuum (amplitude-damping) evolution of coherent dyads.

Each mode coupled to a zero-temperature bath evolves a dyad as

    |b><g|  ->  <g|b>^(1-t^2) |tb><tg|,     t = exp(-gamma tau / 2),

which is exact, trace preserving, and forms a semigroup in t.  The sweep
parameter used throughout is the normalized decoherence time
r = sqrt(1 - t^2) in [0, 1).  The damping exponent 1 - t^2 = r^2 is formed
once, as a ``DecayClock``'s ``loss``, and both routes read it: ``decohere``
for the numeric route and ``channel_coefficients`` for the closed forms.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
_ALPHA_BOUND = float(np.sqrt(np.finfo(float).max)) / 2  # the largest alpha with a finite 4 alpha^2


@dataclass(frozen=True)
class DecayClock:
    """Amplitude decay factor t = exp(-gamma tau / 2); r = sqrt(1 - t^2).

    ``loss`` = 1 - t^2 = r^2, the damping exponent, is derived and formed
    once: from_r squares r, so it keeps its bits at small r, where t rounds
    r^2 away; the t constructor forms 1 - t * t.  ``t`` may be an array,
    one clock per entry; ``from_r`` also takes a list.
    """

    t: float | np.ndarray
    loss: float | np.ndarray = field(init=False)

    def __post_init__(self):
        ok = np.logical_and(0.0 < self.t, self.t <= 1.0)
        if not (ok.all() and ok.size):
            if not ok.size:
                raise ValueError("t must hold at least one decay factor")
            raise ValueError("decay factor t must lie in (0, 1]")
        object.__setattr__(self, "loss", 1.0 - self.t * self.t)

    @classmethod
    def from_r(cls, r) -> "DecayClock":
        """The clock at normalized times ``r``, checked once: r in [0, 1)
        puts t = sqrt((1 - r)(1 + r)) in (0, 1], so the constructor's check
        is skipped.  Neither t nor loss = r * r is formed as 1 - r * r."""
        r = np.asarray(r, dtype=float)
        if not r.size:
            raise ValueError("r must hold at least one decay time")
        if not np.logical_and(0.0 <= r, r < 1.0).all():
            raise ValueError("normalized time r must lie in [0, 1)")
        clock = object.__new__(cls)
        object.__setattr__(clock, "t", np.sqrt((1.0 - r) * (1.0 + r)))
        object.__setattr__(clock, "loss", r * r)
        return clock


def decohere(rho: CoherentOperator, clock: DecayClock) -> CoherentOperator:
    """Damp every mode of a coherent operator independently.

    Each dyad coefficient gains <gamma|beta>^(1-t^2), evaluated as
    exp(loss w) with the clock's loss = 1 - t^2 and w the exact overlap
    exponent, so no branch choice is involved even for complex amplitudes.
    Trace and Hermiticity are preserved exactly: the per-mode coefficient
    times <t gamma|t beta> recombines to the original <gamma|beta>.  With an
    array clock every coefficient and amplitude gains trailing axes of the
    clock's shape, and each entry has the bits of its own scalar call.
    """
    t = clock.t
    w = log_overlap(rho.bras, rho.kets).sum(axis=1)  # (terms, *batch)
    # term axis first: (terms, *batch, *clock) coefficients,
    # (terms, modes, *batch, *clock) amplitudes
    factor = np.exp(np.multiply.outer(w, clock.loss))
    coeffs = rho.coeffs.reshape(rho.coeffs.shape + (1,) * np.ndim(t)) * factor
    return CoherentOperator(
        coeffs, np.multiply.outer(rho.kets, t), np.multiply.outer(rho.bras, t)
    )


def _amplitudes(alpha) -> np.ndarray:
    """``alpha`` as a float array, checked to hold positive amplitudes with a finite 4 alpha^2."""
    alpha = np.asarray(alpha, dtype=float)
    if not alpha.size:
        raise ValueError("alpha must hold at least one amplitude")
    if not alpha.min() > 0.0:
        raise ValueError("alpha must be positive")
    if not alpha.max() <= _ALPHA_BOUND:
        raise ValueError(f"alpha must be at most {_ALPHA_BOUND!r}: beyond it 4 alpha^2 overflows")
    return alpha


def channel_coefficients(alpha, r) -> tuple[np.ndarray, ...]:
    """The seven quantities every closed form reads, (gamma, W, 1 - gamma,
    1 - W, N_theta, W - gamma, sqrt(W)).

    gamma = exp(-4 r^2 a^2) is the decoherence functional, its exponent from
    the clock's loss = r * r, and W = exp(-4 t^2 a^2); 1 - gamma and 1 - W
    are each an expm1, and so is W - gamma: with x = 4 a^2 (r * r - t * t) =
    log W - log gamma, it is gamma expm1(x) for x <= 0 and -W expm1(-x) for
    x > 0, the larger of the two times an expm1 that cannot overflow.
    sqrt(W) = exp(log W / 2) is not 0 where W underflows (4 t^2 a^2 past
    ~745).  These six have the shape
    ``alpha.shape + r.shape``: alpha's axes come ahead of r's, as in
    ``channel_rho4``.  N_theta = 1 - exp(-4 a^2), the time-independent
    normalization of the undecayed basis, has the shape of ``alpha`` with a
    length-1 axis for each of ``r``.

    Checks ``alpha``, then ``r``, as ``channel_rho4`` does.  Also the closed
    forms' guard: raises DegenerateBasisError, with the same message, when
    the numeric route's basis is degenerate, which ``channel_rho4`` checks
    undecayed first and then at every t; the decayed basis is degenerate
    first at the least t, where N_theta alone is checked.
    """
    alpha = _amplitudes(alpha)
    clock = DecayClock.from_r(r)
    t = clock.t
    alpha = alpha.reshape(alpha.shape + (1,) * t.ndim)
    a2 = alpha * alpha
    n_theta = -np.expm1(-4.0 * a2)
    check_nondegenerate(alpha, 1.0, n_theta)
    t_min = t.min()
    ta = t_min * alpha
    check_nondegenerate(alpha, t_min, -np.expm1(-4.0 * (ta * ta)))
    t2 = t * t
    log_g, log_w = -4.0 * clock.loss * a2, -4.0 * t2 * a2
    g, w = np.exp(log_g), np.exp(log_w)
    x = 4.0 * (clock.loss - t2) * a2
    w_minus_g = np.copysign(np.maximum(g, w) * -np.expm1(-np.abs(x)), x)
    return g, w, -np.expm1(log_g), -np.expm1(log_w), n_theta, w_minus_g, np.exp(0.5 * log_w)


def channel_rho4(alpha: float | np.ndarray, r) -> TwoQubitDensity:
    """Density matrix of the damped antisymmetric entangled channel.

    Builds the undecayed channel state, damps both modes to normalized time ``r``, and
    projects onto the decayed logical product basis.  All dyad amplitudes are +-(t alpha),
    so the projection is exact and trace preserving.  ``alpha`` and ``r`` may be arrays: the
    batch of densities, shape ``alpha.shape + r.shape + (4, 4)``, is built in one pass over
    the whole grid; each entry has the bits of its own scalar call, and each amplitude's
    part matches its reference bit for bit, the amplitude's own B4 dyad decayed and
    projected.  The undecayed B4 dyads of all amplitudes are built at once from
    ``bell_coeffs`` of one batched basis; every one has the same terms, (a, -a) and (-a, a)
    on both sides, since the B4 coefficients on (a, a) and (-a, -a) cancel exactly, and
    those on the mixed kets are +-1/sqrt(2 N_theta), never zero (``bell_state`` drops and
    keeps the same).  Alpha, t and the B4 coefficients are real, so the decayed operator's
    imaginary parts are exact zeros: its real parts give a float64 density.
    """
    alpha = _amplitudes(alpha)
    clock = DecayClock.from_r(r)
    b4 = bell_coeffs(4, basis_in_range(alpha, 1.0))[1:3]
    # |B4><B4| in dyad_from_pure's term order, the amplitude axes last:
    # coefficients (terms, *alpha), kets and bras (terms, modes, *alpha)
    coeffs = (b4[:, None] * b4.conj()[None]).reshape((4,) + alpha.shape)
    kets, bras = np.multiply.outer(_DYAD_SIGNS, alpha)
    rho = decohere(CoherentOperator(coeffs, kets, bras), clock)
    rho = CoherentOperator(rho.coeffs.real, rho.kets.real, rho.bras.real)
    # the amplitudes ahead of the decay-time axes; [()] makes a 0-d one a
    # scalar.  Both are in range: alpha is checked above, and a clock's t
    # lies in (0, 1].
    alpha = alpha.reshape(alpha.shape + (1,) * np.ndim(clock.t))[()]
    return project_to_density(rho, basis_in_range(alpha, clock.t))


def closed_form_vst(alpha, r) -> np.ndarray:
    """Closed-form Pauli coordinates of the channel, as ``pauli_decompose``.

    Both Bloch vectors are ((1 - gamma) sqrt(W) / N_theta, 0, 0) and T is
    diagonal with entries (W - gamma, -gamma (1 - W), -(1 - W)) / N_theta,
    from the quantities of ``channel_coefficients``, none of them a
    difference of two exps.  The trace
    c[..., 0, 0] is 1.  An array ``alpha`` and an array ``r`` give shape
    ``alpha.shape + r.shape + (4, 4)``, like ``closed_form_e``, and each entry
    has the bits of its own scalar call.
    """
    g, _, one_g, one_w, n_theta, w_minus_g, sqrt_w = channel_coefficients(alpha, r)
    coords = np.zeros(np.shape(g) + (4, 4))
    coords[..., 0, 0] = 1.0
    coords[..., 1, 0] = coords[..., 0, 1] = one_g * sqrt_w / n_theta
    coords[..., 1, 1] = w_minus_g / n_theta
    coords[..., 2, 2] = -(g * one_w) / n_theta
    coords[..., 3, 3] = -one_w / n_theta
    return coords
