"""Entanglement, fidelity, and mixedness functionals on two-qubit densities.

Every functional has two routes: a numeric one acting on the 4x4 matrix and
a closed form in (alpha, r) for the damped entangled channel; the pair is
cross-checked in the test suite.  Both take batches: a batched density, or
an array ``alpha`` and an array ``r`` (one closed-form call for a whole
sweep, shaped ``alpha.shape + r.shape`` like ``channel_rho4``), gives an
array of values, each entry with the bits of its own scalar call; a single
one gives a float.
"""
from __future__ import annotations

import numpy as np

from .decoherence import channel_coefficients, channel_rho4, closed_form_inputs
from .qubit_encoding import TwoQubitDensity, pauli_decompose

EIG_CLAMP = 1e-12  # eigenvalues this close to zero are treated as zero

CLASSICAL_FIDELITY_LIMIT = 2.0 / 3.0


def _value(x) -> float | np.ndarray:
    """A float for a single density or ``r``, the array for a batch."""
    return float(x) if np.ndim(x) == 0 else x


def partial_transpose(rho: TwoQubitDensity) -> np.ndarray:
    """Transpose on the second qubit in the fixed logical ordering."""
    m = rho.matrix
    pt = m.reshape(m.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1)
    return pt.reshape(m.shape)


def negativity_e(rho: TwoQubitDensity) -> float | np.ndarray:
    """E = -2 sum of negative eigenvalues of the partial transpose.

    Positive iff the state is inseparable (two-qubit partial transposition
    criterion); scaled so that E is 1 on maximally entangled states.  A
    separable state reads +0, not -0: the sum is subtracted from zero.
    """
    eigs = np.linalg.eigvalsh(partial_transpose(rho))
    eigs = np.where(np.abs(eigs) < EIG_CLAMP, 0.0, eigs)
    return _value(0.0 - 2.0 * np.where(eigs < 0, eigs, 0.0).sum(axis=-1))


def closed_form_e(alpha, r) -> float | np.ndarray:
    """Closed-form channel negativity.

    E = (sqrt(16 b^2 + (c-d)^2) - (2a + c + d)) / (4 N_theta).
    """
    a, b, c, d, _, _, n_theta = channel_coefficients(alpha, r)
    c_d = c - d
    root = np.sqrt(16.0 * (b * b) + c_d * c_d)
    return _value((root - (2.0 * a + c + d)) / (4.0 * n_theta))


def max_rotation_trace(m: np.ndarray) -> float | np.ndarray:
    """max over rotations O of Tr(M O), via singular values.

    Equals s1 + s2 + s3 when det M >= 0 and s1 + s2 - s3 otherwise.
    """
    m = np.asarray(m, dtype=float)
    sv = np.linalg.svd(m, compute_uv=False)
    flip = np.where(np.linalg.det(m) >= 0, sv[..., 2], -sv[..., 2])
    return _value(sv[..., 0] + sv[..., 1] + flip)


def singlet_fraction(rho: TwoQubitDensity) -> float | np.ndarray:
    """Maximal overlap with any maximally entangled state.

    F = (1 + max_O Tr(-T O)) / 4 over rotations O; maximally entangled
    states have no local Bloch vector, so only the correlation matrix
    enters.  For the channel's diagonal T the optimum is attained on the
    four Bell states of the decayed basis.
    """
    t = pauli_decompose(rho)[..., 1:, 1:]
    f = 0.25 * (1.0 + max_rotation_trace(-t))
    return _value(np.clip(f, 0.0, 1.0))


def optimal_fidelity(rho: TwoQubitDensity) -> float | np.ndarray:
    """Best fidelity achievable with local operations and classical
    communication over the given channel: (2 F + 1)/3, with F the singlet
    fraction (the qubit case of (F N + 1)/(N + 1) in dimension N)."""
    return (singlet_fraction(rho) * 2 + 1.0) / 3.0


def closed_form_f(alpha, r) -> float | np.ndarray:
    """Closed-form optimal fidelity of the damped channel.

    f = (1/3) max{ 1 + (e^{4a^2} - e^{4t^2a^2}) / (e^{4a^2} - 1),
                   (e^{4t^2a^2} - e^{4r^2a^2} + 2 e^{4a^2} - 2) / (e^{4a^2} - 1) }.
    Evaluated divided through by e^{4a^2}, as
    max{1 + (1 - gamma)/N_theta, 2 + (gamma - W)/N_theta} / 3 with gamma and
    W from ``channel_coefficients``, which cannot overflow at large amplitude.
    """
    *_, g, w, n_theta = channel_coefficients(alpha, r)
    return _value(np.maximum(1.0 + (1.0 - g) / n_theta, 2.0 + (g - w) / n_theta) / 3.0)


def linear_entropy(rho: TwoQubitDensity) -> float | np.ndarray:
    """S = 1 - tr(rho^2), in [0, 3/4] for two qubits."""
    m = rho.matrix
    return _value(1.0 - np.trace(m @ m, axis1=-2, axis2=-1).real)


def closed_form_s(alpha, r) -> float | np.ndarray:
    """Closed-form channel linear entropy.

    S = (e^{8 r^2 a^2} - 1)(e^{8 t^2 a^2} - 1) / (2 (e^{4 a^2} - 1)^2);
    symmetric under r^2 <-> t^2, hence peaked at r = 1/sqrt(2).  Evaluated
    as (1 - e^{-8 r^2 a^2})(1 - e^{-8 t^2 a^2}) / (2 N_theta^2), equal since
    r^2 + t^2 = 1: at large amplitude the peak is then flat to rounding,
    where the growing exponentials would scatter it by several ulps.
    """
    _, a2, n_theta = closed_form_inputs(alpha, r)
    r2 = np.square(r)  # r * r, for a list r too
    with np.errstate(over="ignore"):  # past a2 ~ 2.2e307 an exponent is -inf: expm1 gives -1
        num = np.expm1(-8.0 * r2 * a2) * np.expm1(-8.0 * (1.0 - r2) * a2)
    return _value(num / (2.0 * (n_theta * n_theta)))


def vn_entropy(rho: TwoQubitDensity) -> float | np.ndarray:
    """von Neumann entropy -sum l log2 l with 0 log 0 := 0."""
    eigs = np.linalg.eigvalsh(rho.matrix)
    eigs = np.where(np.abs(eigs) < EIG_CLAMP, 0.0, eigs)
    pos = np.where(eigs > 0, eigs, 1.0)  # log2(1) = 0 drops the rest
    return _value(-(pos * np.log2(pos)).sum(axis=-1))


def _fidelity_margin(alpha: float, r) -> np.ndarray:
    """closed_form_f(alpha, r) - 2/3, without cancelling against 2/3.

    Subtracting 2/3 inside the max of ``closed_form_f`` leaves
    max{e^{-4a^2} - gamma, gamma - W} / (3 N_theta).  Near r = 1 at large
    amplitude the margin is below the rounding of f: at alpha = 3 and
    r = 0.9995 it is -2.8e-18, where f - 2/3 reads 0.
    """
    *_, g, w, n_theta = channel_coefficients(alpha, r)
    return np.maximum(np.exp(-4.0 * (alpha * alpha)) - g, g - w) / (3.0 * n_theta)


def characteristic_time(alpha: float) -> float:
    """Normalized time where the channel fidelity crosses 2/3.

    Root of closed_form_f(alpha, r) = 2/3 on [1e-6, 0.9995], located to
    1e-10 by bisection generalized to 16 sub-intervals a step: each step
    evaluates the broadcast margin f - 2/3 once on 17 points and keeps the
    sub-interval where it changes sign.  Equals 1/sqrt(2) independently of
    alpha.
    """
    lo, hi = 1e-6, 0.9995
    ends = _fidelity_margin(alpha, np.array([lo, hi]))
    if ends[0] <= 0 or ends[1] >= 0:
        raise ValueError(f"no fidelity crossing bracketed for alpha={alpha}")
    while hi - lo > 1e-10:
        r = np.linspace(lo, hi, 17)
        k = int(np.argmax(_fidelity_margin(alpha, r) <= 0.0))
        lo, hi = float(r[k - 1]), float(r[k])
    return 0.5 * (lo + hi)


def mixedness_peak(alpha: float, measure: str = "linear") -> float:
    """Location of the mixedness maximum over r in [1e-4, 0.9995].

    ``measure`` selects the closed-form linear entropy or the numeric von
    Neumann entropy of the channel; both peak at the characteristic time,
    but neither search uses that: the entropy is evaluated on a 2001-point
    grid (one batched ``channel_rho4`` call for "vn"), then a least-squares
    quadratic is fitted on 201 points within 4 grid steps of the grid
    maximum, and again within 0.1 grid steps of that fit's vertex.

    Near the peak the entropy falls as S0 - 64 a^4 e^{-4 a^2} dr^2.  Above
    alpha ~ 2.15 that curvature is below double-precision resolution: S
    changes by less than a rounding step over |dr| < 1e-6, so no argmax read
    from single values is good to 1e-6 there.  The fits average that
    rounding over their 201 points; measured, the vertex stays within
    4e-8 of r = 1/sqrt(2) up to alpha = 2.15 and within 1e-6 up to
    alpha ~ 2.3, and is lost past alpha ~ 2.4.
    """
    if measure == "linear":
        f = lambda r: closed_form_s(alpha, r)
    elif measure == "vn":
        f = lambda r: vn_entropy(channel_rho4(alpha, r))
    else:
        raise ValueError("measure must be 'linear' or 'vn'")
    lo, hi = 1e-4, 0.9995
    r = np.linspace(lo, hi, 2001)
    x = float(r[np.argmax(f(r))])
    for half_width in (4.0 * (r[1] - r[0]), 0.1 * (r[1] - r[0])):
        window = np.linspace(max(lo, x - half_width), min(hi, x + half_width), 201)
        c2, c1, _ = np.polyfit(window - x, f(window), 2)
        x = min(max(x - c1 / (2.0 * c2), lo), hi)
    return x
