"""Logical qubit encoding of coherent states.

A coherent pair {|a>, |-a>} spans a two-dimensional space; Gram-Schmidt
orthonormalization gives the logical basis (Psi+, Psi-), from which the four
maximally entangled Bell states are built.  All 4x4 matrices use the fixed
product ordering {Psi+Psi+, Psi+Psi-, Psi-Psi+, Psi-Psi-}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherent_states import DROP_TOL, CoherentOperator, CoherentSuperposition
from .errors import DegenerateBasisError, DensityError, SpanError

DEGENERACY_FLOOR = 1e-12  # minimum allowed value of 1 - exp(-4 t^2 a^2)
SPAN_TOL = 1e-9  # amplitude distance allowed when matching +-a
_ALPHA_BOUND = float(np.sqrt(np.finfo(float).max)) / 2  # the largest alpha with a finite 4 alpha^2

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
# s = (I, X, Y, Z), and every two-qubit product PAULI_PRODUCTS[m, n] = s_m (x) s_n.
PAULI_BASIS = np.stack((np.eye(2, dtype=complex),) + PAULIS)
PAULI_PRODUCTS = np.einsum("mij,nkl->mnikjl", PAULI_BASIS, PAULI_BASIS)
PAULI_PRODUCTS = PAULI_PRODUCTS.reshape(4, 4, 4, 4)


def _pauli_terms() -> tuple[np.ndarray, np.ndarray]:
    """``pauli_decompose``'s gather index and signs, each of shape (4, 16).

    Every s_m (x) s_n has one non-zero entry, +-1 or +-i, in each column, so
    Re tr(rho s_m (x) s_n) is a signed sum of four parts of rho, one from
    each row i: Re(x (+-1)) = +-Re x and Re(x (+-i)) = -+Im x.  Entry
    [i, 4 m + n] gives that part's index in the float view of rho's 16
    entries (8 i + 2 j, + 1 for an imaginary part) and its sign.
    """
    p = PAULI_PRODUCTS.reshape(16, 4, 4).transpose(2, 0, 1)  # [i, mn, j] = (s_m (x) s_n)[j, i]
    found = np.nonzero(p)  # one j for each (i, mn), in that order
    j, phase = found[2].reshape(4, 16), p[found].reshape(4, 16)
    imag = phase.imag != 0
    return 8 * np.arange(4)[:, None] + 2 * j + imag, np.where(imag, -phase.imag, phase.real)


_PAULI_GATHER, _PAULI_SIGN = _pauli_terms()
_PAULI_REAL = _PAULI_GATHER // 2, np.where(_PAULI_GATHER % 2, 0.0, _PAULI_SIGN)

# Added to a density before its Cholesky test: the factorization then
# completes exactly when every eigenvalue lies above -1e-10.
_PSD_SHIFT = 1e-10 * np.eye(4)

_SQ2 = np.sqrt(2.0)
# Ideal Bell vectors in logical coordinates (rows: B1..B4).
BELL_VECTORS = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, -1.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, 0.0],
    ]
) / _SQ2


def float_or_array(x) -> float | np.ndarray:
    """A float for a single value, the array for a batch."""
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class LogicalBasis:
    """Orthonormal pair built from |ta> and |-ta> at amplitude ``amplitude`` = ta.

    For the mixing angle with sin 2theta = <ta|-ta> = exp(-2 t^2 alpha^2),
    ``n_theta`` = cos^2 2theta normalizes the pair and ``cos_sin`` stacks
    cos theta = sqrt((1 + sqrt N_theta)/2) and sin theta = sin 2theta /
    (2 cos theta), formed without the angle: the cosine and sine of 1/2
    arcsin(sin 2theta) miss cos 2theta by up to 2.7e5 eps at small ta.
    Both are formed on each read, so a basis built only to be checked costs
    no more than its N_theta.  ``t = 1`` is the undecayed basis; smaller ``t``
    tracks amplitude decay.  Arrays ``alpha`` and ``t`` that broadcast give
    one basis per entry of their shape, each field's after ``cos_sin``'s pair axis.
    """

    amplitude: float | np.ndarray
    n_theta: float | np.ndarray

    @property
    def sin2theta(self) -> float | np.ndarray:
        return np.exp(-2.0 * (self.amplitude * self.amplitude))

    @property
    def cos_sin(self) -> np.ndarray:
        cos = np.sqrt((1.0 + np.sqrt(self.n_theta)) / 2.0)
        return np.array((cos, self.sin2theta / (2.0 * cos)))


def _amplitudes(alpha) -> np.ndarray:
    """``alpha`` as a float array, checked to hold positive amplitudes with a finite 4 alpha^2:
    the one rule on alpha of every entry point."""
    alpha = np.asarray(alpha, dtype=float)
    # one test, which NaN fails (its min is NaN); the error names the first rule broken
    if not (alpha.size and alpha.min() > 0.0 and alpha.max() <= _ALPHA_BOUND):
        if not alpha.size:
            raise ValueError("alpha must hold at least one amplitude")
        if not alpha.min() > 0.0:
            raise ValueError("alpha must be positive")
        raise ValueError(f"alpha must be at most {_ALPHA_BOUND!r}: beyond it 4 alpha^2 overflows")
    return alpha


def make_basis(alpha: float | np.ndarray, t: float | np.ndarray = 1.0) -> LogicalBasis:
    """Build the logical basis at amplitude ``t * alpha``.

    ``alpha`` and ``t`` may be arrays that broadcast against each other, one
    basis an entry: each entry has the bits of its own scalar call.  ``alpha``
    is held to ``_amplitudes``' rule, and ``t`` to (0, 1] here alone.  Fails
    loudly when 1 - exp(-4 t^2 alpha^2) < 1e-12 anywhere: there the pair
    {|ta>, |-ta>} is numerically collinear and the encoding is undefined.
    """
    alpha = float_or_array(_amplitudes(alpha))  # a scalar gives float fields, with its bits
    ok = np.logical_and(0.0 < t, t <= 1.0)
    if not (ok.all() and ok.size):
        if not ok.size:
            raise ValueError("t must hold at least one decay factor")
        raise ValueError("decay factor t must lie in (0, 1]")
    return basis_in_range(alpha, t)


def basis_in_range(alpha, t) -> LogicalBasis:
    """``make_basis(alpha, t)`` for ``alpha`` and ``t`` already known to be in
    range; only the degeneracy check is made, whose error names the first
    amplitude of ``alpha`` (broadcast) with N_theta below DEGENERACY_FLOOR, the
    least ``t`` and that amplitude's least N_theta.  The amplitude is squared by
    a product, not libm's pow, so each entry has the bits of its own scalar call."""
    ta = t * alpha
    n_theta = -np.expm1(-4.0 * (ta * ta))  # 1 - sin^2 2theta, stable
    if not n_theta.min() >= DEGENERACY_FLOOR:
        amps = np.broadcast_to(alpha, n_theta.shape)
        bad = amps[~(n_theta >= DEGENERACY_FLOOR)][0]
        raise DegenerateBasisError(
            f"basis degenerate at alpha={bad}, t={np.min(t)}: "
            f"1-exp(-4 t^2 a^2)={np.min(n_theta[amps == bad]):.3e}"
        )
    return LogicalBasis(amplitude=ta, n_theta=n_theta)


def logical_coords(amp, basis: LogicalBasis) -> np.ndarray:
    """Coordinates of a coherent ket |amp> in the (Psi+, Psi-) basis.

    Exact inversion of the basis definition: |ta> = cos th Psi+ + sin th Psi-
    and |-ta> = sin th Psi+ + cos th Psi-.  ``amp`` must equal +-ta.  Array
    amplitudes broadcast against the basis; the result has a trailing axis
    of length 2, a view whose memory holds that axis first, so that the
    last axis of the amplitudes runs innermost: on the natural layout,
    ``project_to_density``'s contraction took 1.2-1.9x as long.
    """
    a = basis.amplitude
    plus = np.abs(amp - a) < SPAN_TOL
    ok = plus | (np.abs(amp + a) < SPAN_TOL)
    if not ok.all():
        bad = np.broadcast_to(amp, ok.shape)[~ok][0]
        raise SpanError(f"amplitude {bad!r} is not +-{a} within {SPAN_TOL}")
    # (2, 1, ..., 1, *basis shape): the pair axis ahead of every axis of plus
    pair = basis.cos_sin.reshape((2,) + (1,) * (plus.ndim - np.ndim(a)) + np.shape(a))
    return np.where(plus, pair, pair[::-1]).transpose(*range(1, plus.ndim + 1), 0)


def bell_coeffs(k: int, basis: LogicalBasis) -> np.ndarray:
    """Coefficients of the k-th Bell state (k = 1..4) on the product kets
    (ta, ta), (ta, -ta), (-ta, ta), (-ta, -ta), shape (4, *basis shape).

    B1,2 = (Psi+Psi+ +- Psi-Psi-)/sqrt2;  B3,4 = (Psi+Psi- +- Psi-Psi+)/sqrt2,
    from the logical kets Psi+ = (cos th |ta> - sin th |-ta>) / sqrt(N_theta)
    = (a, b) and Psi- = (-sin th |ta> + cos th |-ta>) / sqrt(N_theta) = (b, a).
    Of B = inv (u v +- w x), inv = 1/sqrt2, the coefficient on (i, j) is inv u_i v_j
    + inv (+-w_i x_j), the sum ``consolidate`` takes of the tensor products.  Each
    product is inv a a, inv a b (= inv b a) or inv b b, and B2's and B4's second term
    is subtracted (a - b is a + (-1) * b): each coefficient is a sum or difference of
    two of those three, element-wise, cast to complex once.  It matches its reference
    bit for bit, that sum taken one coefficient at a time in Python's scalars.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError("Bell index must be 1..4")
    c, (cos, sin) = 1.0 / np.sqrt(basis.n_theta), basis.cos_sin
    a, b = c * cos, -(c * sin)
    inv = 1.0 / _SQ2
    aa, ab, bb = inv * (a * a), inv * (a * b), inv * (b * b)
    if k % 2:
        s, d = aa + bb, ab + ab
        coeffs = (s, d, d, s) if k == 1 else (d, s, s, d)
    else:
        z = ab - ab  # inv a b - inv b a: +0
        coeffs = (aa - bb, z, z, bb - aa) if k == 2 else (z, aa - bb, bb - aa, z)
    return np.array(coeffs, dtype=complex)


def bell_state(k: int, basis: LogicalBasis) -> CoherentSuperposition:
    """The k-th Bell state (k = 1..4) of a single basis as a two-mode
    coherent superposition.

    B2 and B4 are entangled coherent states exactly; B1 and B3 carry the
    extra -sin(2 theta) cross terms.  The terms are those of ``bell_coeffs``, in
    that order, less those at or below DROP_TOL of the largest: it matches its
    reference bit for bit, the consolidated tensor products of Psi+ and Psi-.
    """
    coeffs = bell_coeffs(k, basis)
    size = np.abs(coeffs)
    kept = size > DROP_TOL * size.max()
    a = basis.amplitude
    amps = np.array([[a, a], [a, -a], [-a, a], [-a, -a]], dtype=complex)
    return CoherentSuperposition(coeffs[kept], amps[kept])


# ---------------------------------------------------------------------------
# densities and Pauli coordinates


@dataclass(frozen=True)
class TwoQubitDensity:
    """4x4 density matrix in the logical product ordering.

    ``matrix`` may carry leading axes, shape (..., 4, 4): a batch of densities,
    each held to the same checks; float64 if real, else complex128.  A density
    must be Hermitian and of unit trace within 1e-10, and every eigenvalue of
    its Hermitian part must lie above -1e-10: tested as a Cholesky
    factorization of that part plus 1e-10 I, which completes exactly when its
    eigenvalues are positive (up to rounding at the threshold).  Each check is
    written so that a NaN fails it; a failed check raises DensityError.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        m = m.astype(np.promote_types(m.dtype, float), copy=False)
        if m.shape[-2:] != (4, 4):
            raise ValueError("density matrix must be 4x4")
        if not m.size:
            raise ValueError("a density batch must hold at least one density")
        # laid out like m, so that both uses below run on contiguous memory
        m_dag = np.conjugate(m.swapaxes(-1, -2), order="C")
        if not np.abs(m - m_dag).max() <= 1e-10:
            raise DensityError("density matrix is not Hermitian within 1e-10")
        # tr - 1 as floats, a complex one's real and imaginary parts side by side
        off = np.asarray(m.trace(axis1=-2, axis2=-1) - 1.0)[..., None].view(float)
        if not np.abs(off).max() <= 1e-10:
            raise DensityError("density matrix trace differs from 1 by more than 1e-10")
        m_dag += m
        m = m_dag
        m.view(float)[...] *= 0.5  # halves each part: a division by 2 + 0j took ~6x as long
        try:
            np.linalg.cholesky(m + _PSD_SHIFT)
        except np.linalg.LinAlgError:
            raise DensityError("density matrix has an eigenvalue below -1e-10") from None
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def project_to_density(rho: CoherentOperator, basis: LogicalBasis) -> TwoQubitDensity:
    """Express a two-mode coherent operator in the logical product basis.

    Every dyad amplitude must lie in the logical span per mode (exact for the channel
    states here, where decay maps +-a to +-ta); otherwise the projection would lose
    trace and a SpanError is raised instead.  Coefficients and amplitudes that are
    arrays (a decay-time grid, with a basis of the same shape) give a batched density
    of that shape: the contraction sum_t c_t ket0_t (x) ket1_t (x) bra0_t (x) bra1_t,
    multiplied left to right, c ket0 (x) ket1 by ufuncs and the rest by einsum's
    generic loop, which sums the dyads point by point from zero in term order: each
    entry has the bits of its own scalar call.  The coordinates are real; complex
    coefficients meet their imaginary parts of +0, so every product rounds once a
    part, fused or not: it matches its reference bit for bit, a five-operand einsum,
    or the products on each coefficient's (re, im) pair summed 128 points a block.
    """
    if rho.modes != 2:
        raise ValueError("expected a two-mode operator")
    # (terms, side, mode, *grid, logical index)
    coords = logical_coords(np.concatenate((rho.kets[:, None], rho.bras[:, None]), axis=1), basis)
    p = (rho.coeffs[..., None] * coords[:, 0, 0])[..., :, None] * coords[:, 0, 1, ..., None, :]
    out = np.einsum("t...ij,t...k,t...l->...ijkl", p, coords[:, 1, 0], coords[:, 1, 1])
    del coords, p  # 384 B a point for the channel's real ones, freed before the density check
    return TwoQubitDensity(out.reshape(out.shape[:-4] + (4, 4)))


def pauli_decompose(rho: TwoQubitDensity) -> np.ndarray:
    """Pauli coordinates c[..., m, n] = tr(rho s_m (x) s_n), s = (I, X, Y, Z),
    over any leading axes: c[0, 0] is the trace, c[1:, 0] and c[0, 1:] the
    local Bloch vectors and c[1:, 1:] the correlation matrix T, so that
    rho = (1/4) sum_mn c_mn s_m (x) s_n.

    Each coordinate is the signed sum of four parts of rho, one gather of
    the float view and one einsum over the +-1 signs (numpy's own loop, no
    BLAS).  The sum runs from zero over the rows i in order, as the complex
    contraction sum_ij rho_ij (s_m (x) s_n)_ji does, whose other twelve
    products are zeros: it matches its reference bit for bit, that contraction, and
    each entry has the bits of its own scalar call.  A real rho has the bits of its
    complex copy: its table gives each imaginary part the sign 0.
    """
    m = rho.matrix
    gather, sign = (_PAULI_GATHER, _PAULI_SIGN) if np.iscomplexobj(m) else _PAULI_REAL
    parts = m.reshape(m.shape[:-2] + (16,)).view(float).take(gather, axis=-1)
    return np.einsum("...im,im->...m", parts, sign).reshape(m.shape)


def pauli_reconstruct(c: np.ndarray) -> np.ndarray:
    """The 4x4 matrix of Pauli coordinates ``c`` (round-trip check)."""
    return np.einsum("...mn,mnij->...ij", c, PAULI_PRODUCTS) / 4.0
