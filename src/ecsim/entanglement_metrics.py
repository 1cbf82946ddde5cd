"""Entanglement, fidelity, and mixedness functionals on two-qubit densities.

Every functional has two routes: a numeric one acting on the 4x4 matrix and
a closed form in (alpha, r) for the damped entangled channel; the pair is
cross-checked in the test suite.  Both take batches: a batched density, or
an array ``alpha`` and an array ``r`` (one closed-form call for a whole
sweep, shaped ``alpha.shape + r.shape`` like ``channel_rho4``), gives an
array of values; a single one gives a float.
"""
from __future__ import annotations

import numpy as np

from .decoherence import channel_coefficients, channel_rho4
from .qubit_encoding import TwoQubitDensity, float_or_array, pauli_decompose

CLASSICAL_FIDELITY_LIMIT = 2.0 / 3.0

# Horn's K(M), with q^T K q = tr(M R(q)) for R(q) the rotation of a unit
# quaternion q = (w, x, y, z), is sum_i m_i _HORN[i] over M's entries m_jk,
# i = 3 j + k.  Each entry of K below sums up to three of them, as +-(1 + i).
_HORN = np.array([[(1, 5, 9), (6, -8, 0), (7, -3, 0), (2, -4, 0)],
                  [(6, -8, 0), (1, -5, -9), (2, 4, 0), (3, 7, 0)],
                  [(7, -3, 0), (2, 4, 0), (-1, 5, -9), (6, 8, 0)],
                  [(2, -4, 0), (3, 7, 0), (6, 8, 0), (-1, -5, 9)]], float)
# built in floats: the integer sign and compare loops added ~0.3 MB to teleport-mc's peak RSS
_HORN = (np.sign(_HORN) * (np.abs(_HORN) == np.arange(1.0, 10.0).reshape(9, 1, 1, 1))).sum(-1)


def partial_transpose(rho: TwoQubitDensity) -> np.ndarray:
    """Transpose on the second qubit in the fixed logical ordering."""
    m = rho.matrix
    pt = m.reshape(m.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1)
    return pt.reshape(m.shape)


def _spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of Hermitian n x n matrices, and each spectrum's
    zero, n eps lambda_max as (..., 1): an eigenvalue within it of 0 is 0.

    LAPACK's eigenvalues are within a small multiple of eps ||M|| of the
    exact ones, and ||M|| = lambda_max for a density and for its partial
    transpose (lambda_min >= -1/2 leaves lambda_max >= (1 - lambda_min) / 3
    >= -lambda_min).  Over 640 000 random separable densities (mixtures of
    one to eight product states, real and complex) the partial transpose's
    lambda_min read >= -2.7 eps lambda_max: n = 4 covers it 1.5 times over.
    """
    eigs = np.linalg.eigvalsh(m)
    return eigs, eigs.shape[-1] * np.finfo(float).eps * eigs[..., -1:]


def negativity_e(rho: TwoQubitDensity) -> float | np.ndarray:
    """E = -2 lambda_min of the partial transpose where lambda_min < 0.

    A two-qubit partial transpose has at most one negative eigenvalue
    (Sanpera, Tarrach and Vidal, PRA 58, 826 (1998)), so E reads it alone:
    -2 lambda_min where lambda_min lies below the spectrum's rounding scale
    -n eps lambda_max (``_spectrum``), and +0 otherwise, not -0.  Positive
    iff the state is inseparable (two-qubit partial transposition criterion)
    up to that rounding; scaled so that E is 1 on maximally entangled states.
    A batch gives an array: each entry has the bits of its own scalar call.
    """
    eigs, zero = _spectrum(partial_transpose(rho))
    lam = eigs[..., 0]
    return float_or_array(0.0 - 2.0 * np.where(lam < -zero[..., 0], lam, 0.0))


def closed_form_e(alpha, r) -> float | np.ndarray:
    """Closed-form channel negativity.

    E = (root - (2a + c + d)) / (4 N_theta), root = sqrt(16 b^2 + (c-d)^2),
    in the paper's coefficients a = (1 - gamma) W, b = (1 - gamma) sqrt(W),
    c = 2 - (1 + gamma) W and d = -2 gamma + (1 + gamma) W, with gamma, W and N_theta
    from ``channel_coefficients``.  Since root^2 - (2a + c + d)^2 = 16 gamma (1 - W)^2,
    it is evaluated as E = 4 gamma (1 - W)^2 / (N_theta (root + 2a + c + d)), halved
    through, with 2a + c + d = 2 (1 - gamma)(1 + W), 16 b^2 = 16 (1 - gamma)^2 W and
    c - d = 2 (1 + gamma)(1 - W): every term is non-negative, and 1 - gamma and
    1 - W come from expm1, so nothing cancels.  E > 0 wherever gamma does not
    underflow.  Arrays give shape ``alpha.shape + r.shape``: each entry has the bits
    of its own scalar call, and each row matches its reference bit for bit, the form
    at one amplitude.
    """
    g, w, one_g, one_w, n_theta, _, _ = channel_coefficients(alpha, r)
    root = np.sqrt(4.0 * (one_g * one_g) * w + np.square((1.0 + g) * one_w))
    return float_or_array(2.0 * g * (one_w * one_w) / (n_theta * (root + one_g * (1.0 + w))))


def max_rotation_trace(m: np.ndarray) -> float | np.ndarray:
    """max over rotations O of Tr(M O): the largest eigenvalue of Horn's
    symmetric 4x4 K(M) (Horn, JOSA A 4, 629 (1987)).

    It is s1 + s2 + sgn(det M) s3 in M's singular values, continuous through
    det M = 0.  K is one einsum of exact products by +-1 and 0, summed from
    zero in M's entry order; LAPACK's eigenvalue is within 16 eps (s1 + s2 +
    s3) of the singular-value form (8.7 eps at most over 200 000 random M).
    Over any leading axes of ``m``: each entry has the bits of its own scalar call.
    """
    m = np.asarray(m, dtype=float)
    k = np.einsum("...i,iab->...ab", m.reshape(m.shape[:-2] + (9,)), _HORN)
    return float_or_array(np.linalg.eigvalsh(k)[..., -1])


def singlet_fraction(rho: TwoQubitDensity) -> float | np.ndarray:
    """Maximal overlap with any maximally entangled state.

    F = (1 + max_O Tr(-T O)) / 4 over rotations O (Horodecki, Horodecki and
    Horodecki, PRA 60, 1888 (1999)); the maximum is Horn's eigenvalue
    (``max_rotation_trace``), within 16 eps (s1 + s2 + s3).  Maximally entangled
    states have no local Bloch vector, so only the correlation matrix
    enters.  For the channel's diagonal T the optimum is attained on the four Bell
    states of the decayed basis.  A batch gives an array: each entry has the bits of
    its own scalar call; a real rho matches its reference bit for bit, its complex copy.
    """
    t = pauli_decompose(rho)[..., 1:, 1:]
    f = 0.25 * (1.0 + max_rotation_trace(-t))
    return float_or_array(np.minimum(np.maximum(f, 0.0), 1.0))  # np.clip's bits, ~1 us a call less


def optimal_fidelity(rho: TwoQubitDensity) -> float | np.ndarray:
    """Best fidelity achievable with local operations and classical communication over
    the given channel: (2 F + 1)/3 with F the singlet fraction, the qubit case of
    (F N + 1)/(N + 1).  A batch gives an array: each entry has the bits of its own
    scalar call; a real rho matches its reference bit for bit, its complex copy."""
    return (singlet_fraction(rho) * 2 + 1.0) / 3.0


def closed_form_f(alpha, r) -> float | np.ndarray:
    """Closed-form optimal fidelity of the damped channel.

    f = (1/3) max{ 1 + (e^{4a^2} - e^{4t^2a^2}) / (e^{4a^2} - 1),
                   (e^{4t^2a^2} - e^{4r^2a^2} + 2 e^{4a^2} - 2) / (e^{4a^2} - 1) }.
    Evaluated divided through by e^{4a^2}, as
    max{1 + (1 - gamma)/N_theta, 2 - (W - gamma)/N_theta} / 3 with 1 - gamma and W - gamma
    from ``channel_coefficients``, which cannot overflow at large amplitude and do not cancel.
    Arrays give shape ``alpha.shape + r.shape``: each entry has the bits of its own scalar
    call, and each row matches its reference bit for bit, the form at one amplitude.
    """
    _, _, one_g, _, n_theta, w_minus_g, _ = channel_coefficients(alpha, r)
    return float_or_array(np.maximum(1.0 + one_g / n_theta, 2.0 - w_minus_g / n_theta) / 3.0)


def linear_entropy(rho: TwoQubitDensity) -> float | np.ndarray:
    """S = 1 - tr(rho^2), in [0, 3/4] for two qubits up to the density's
    rounding, which is not clamped away: on the channel it lies within
    eps (4 / N_theta + 20) of ``closed_form_s`` (measured: at most
    3.5 eps / N_theta up to alpha = 0.09 and 17 eps from alpha ~ 1 on, over
    r in [0, 0.995]), and reads down to -4.6e-13 at r = 0, alpha ~ 0.011.

    The stored density is exactly Hermitian, so tr(rho^2) = sum |rho_ij|^2: its
    squared floats, summed for the whole batch (no BLAS) down the float view's
    columns, then in pairs, as numpy's pairwise sum of a complex rho's 32 floats (a
    real rho matches its reference bit for bit, its complex copy); within 2 ulps of
    the exact sum on the channel grids, where an einsum strays up to 4 ulps.  A
    batch gives an array: each entry has the bits of its own scalar call.
    """
    m = rho.matrix
    s = np.square(m.view(float))
    sums = ((s[..., 0, :] + s[..., 1, :]) + s[..., 2, :]) + s[..., 3, :]  # sum(-2): 2-4x slower
    while sums.shape[-1] > 1:
        sums = sums[..., ::2] + sums[..., 1::2]
    return float_or_array(1.0 - sums[..., 0])


def closed_form_s(alpha, r) -> float | np.ndarray:
    """Closed-form channel linear entropy.

    S = (e^{8 r^2 a^2} - 1)(e^{8 t^2 a^2} - 1) / (2 (e^{4 a^2} - 1)^2);
    symmetric under r^2 <-> t^2, hence peaked at r = 1/sqrt(2).  Evaluated divided
    through by e^{8 a^2}, as (1 - gamma)(1 + gamma)(1 - W)(1 + W) / (2 N_theta^2) with
    the quantities of ``channel_coefficients``: a product of non-negative factors,
    1 - gamma and 1 - W each an expm1, so nothing cancels, nothing overflows at large
    amplitude, and there the peak is flat to rounding, where the growing exponentials
    would scatter it by several ulps.  Arrays give shape ``alpha.shape + r.shape``:
    each entry has the bits of its own scalar call, and each row matches its reference
    bit for bit, the form at one amplitude.
    """
    g, w, one_g, one_w, n_theta, _, _ = channel_coefficients(alpha, r)
    return float_or_array(one_g * (1.0 + g) * (one_w * (1.0 + w)) / (2.0 * (n_theta * n_theta)))


def vn_entropy(rho: TwoQubitDensity) -> float | np.ndarray:
    """von Neumann entropy -sum l log2 l with 0 log 0 := 0.

    An eigenvalue at or under the spectrum's rounding scale n eps lambda_max
    counts as 0, and so does every negative one: a density has none beyond
    its rounding.  It is the zero of ``negativity_e`` (``_spectrum``), which
    reads the one negative eigenvalue a two-qubit partial transpose can have
    (Sanpera, Tarrach and Vidal, PRA 58, 826 (1998)).  A batch gives an
    array: each entry has the bits of its own scalar call.
    """
    eigs, zero = _spectrum(rho.matrix)
    pos = np.where(eigs > zero, eigs, 1.0)  # log2(1) = 0 drops the rest
    return float_or_array(-(pos * np.log2(pos)).sum(axis=-1))


def _fidelity_margin(alpha: float, r) -> np.ndarray:
    """closed_form_f(alpha, r) - 2/3, without cancelling against 2/3.

    Subtracting 2/3 inside the max of ``closed_form_f`` leaves
    max{e^{-4a^2} - gamma, gamma - W} / (3 N_theta), and e^{-4a^2} = gamma W
    makes the first term -gamma (1 - W), a product; the second is
    -(W - gamma) of ``channel_coefficients``.  Near r = 1 at large
    amplitude the margin is below the rounding of f: at alpha = 3 and
    r = 0.9995 it is -2.8e-18, where f - 2/3 reads 0.  An array ``r`` gives
    an array: each entry has the bits of its own scalar call.
    """
    g, _, _, one_w, n_theta, w_minus_g, _ = channel_coefficients(alpha, r)
    return np.maximum(-(g * one_w), -w_minus_g) / (3.0 * n_theta)


def characteristic_time(alpha: float) -> float:
    """Normalized time where the channel fidelity crosses 2/3.

    Root of closed_form_f(alpha, r) = 2/3 on [1e-6, 0.9995], located to
    1e-10 by bisection generalized to 16 sub-intervals a step: each step
    evaluates the broadcast margin f - 2/3 once on 17 points and keeps the
    sub-interval where it changes sign.  Equals 1/sqrt(2) at every alpha it
    accepts, which ends at alpha ~ 13.64: past it the margin at r = 0.9995,
    -gamma (1 - W) / (3 N_theta), underflows to 0 and no crossing is bracketed.
    """
    lo, hi = 1e-6, 0.9995
    ends = _fidelity_margin(alpha, np.array([lo, hi]))
    if ends[0] <= 0 or ends[1] >= 0:
        raise ValueError(f"no fidelity crossing bracketed for alpha={alpha}: the margin "
                         f"f - 2/3 underflows to 0 at r = {hi} past alpha ~ 13.64")
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
