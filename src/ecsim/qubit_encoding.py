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

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
# s = (I, X, Y, Z), and every two-qubit product PAULI_PRODUCTS[m, n] = s_m (x) s_n.
PAULI_BASIS = np.stack((np.eye(2, dtype=complex),) + PAULIS)
PAULI_PRODUCTS = np.einsum("mij,nkl->mnikjl", PAULI_BASIS, PAULI_BASIS)
PAULI_PRODUCTS = PAULI_PRODUCTS.reshape(4, 4, 4, 4)

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


@dataclass(frozen=True)
class LogicalBasis:
    """Orthonormal pair built from |ta> and |-ta> at amplitude ``amplitude`` = ta.

    ``theta`` is the mixing angle with sin(2 theta) = <ta|-ta> = exp(-2 t^2
    alpha^2); ``n_theta`` = cos^2(2 theta) is the normalization of the pair.
    ``t = 1`` is the undecayed basis; smaller ``t`` tracks amplitude decay.
    A basis built from arrays ``alpha`` and ``t`` that broadcast against each
    other (an amplitude axis ahead of a decay-time grid, say) holds one basis
    per entry of the broadcast shape: its fields are then arrays of that shape.
    """

    amplitude: float | np.ndarray
    theta: float | np.ndarray
    n_theta: float | np.ndarray

    @property
    def sin2theta(self) -> float | np.ndarray:
        a = self.amplitude
        return np.exp(-2.0 * (a * a))


def make_basis(alpha: float | np.ndarray, t: float | np.ndarray = 1.0) -> LogicalBasis:
    """Build the logical basis at amplitude ``t * alpha``.

    ``alpha`` and ``t`` may be arrays that broadcast against each other; each
    entry is computed element-wise, so its bits do not depend on the others.
    Fails loudly when 1 - exp(-4 t^2 alpha^2) < 1e-12 anywhere: there the
    pair {|ta>, |-ta>} is numerically collinear and the encoding is undefined.
    The error names the first such amplitude, the least ``t`` and that
    amplitude's least 1 - exp(-4 t^2 alpha^2).
    """
    # both range checks in one reduction; the error names the first that fails
    if not (np.logical_and(0.0 < t, t <= 1.0) & (alpha > 0)).all():
        if not np.greater(alpha, 0.0).all():
            raise ValueError("alpha must be positive")
        raise ValueError("decay factor t must lie in (0, 1]")
    return basis_in_range(alpha, t)


def basis_in_range(alpha, t) -> LogicalBasis:
    """``make_basis(alpha, t)`` for ``alpha`` and ``t`` already known to be in
    range; only the degeneracy check is made.  The amplitude is squared by a
    product, so a scalar call is the 0-d case of an array call, bit for bit."""
    ta = t * alpha
    a2 = ta * ta
    s2 = np.exp(-2.0 * a2)  # sin 2theta
    n_theta = -np.expm1(-4.0 * a2)  # 1 - sin^2 2theta, stable
    check_nondegenerate(alpha, t, n_theta)
    theta = 0.5 * np.arcsin(s2)
    return LogicalBasis(amplitude=ta, theta=theta, n_theta=n_theta)


def check_nondegenerate(alpha, t, n_theta) -> None:
    """Raise DegenerateBasisError where the normalization ``n_theta`` of the
    basis at ``alpha`` (broadcast to its shape) and ``t`` lies below
    DEGENERACY_FLOOR, naming the first such amplitude."""
    if not n_theta.min() >= DEGENERACY_FLOOR:
        amps = np.broadcast_to(alpha, n_theta.shape)
        bad = amps[~(n_theta >= DEGENERACY_FLOOR)][0]
        raise DegenerateBasisError(
            f"basis degenerate at alpha={bad}, t={np.min(t)}: "
            f"1-exp(-4 t^2 a^2)={np.min(n_theta[amps == bad]):.3e}"
        )


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
    pair = np.array((np.cos(basis.theta), np.sin(basis.theta)))
    # (2, 1, ..., 1, *basis shape): the pair axis ahead of every axis of plus
    pair = pair.reshape((2,) + (1,) * (plus.ndim - pair.ndim + 1) + pair.shape[1:])
    return np.where(plus, pair, pair[::-1]).transpose(*range(1, plus.ndim + 1), 0)


def bell_coeffs(k: int, basis: LogicalBasis) -> np.ndarray:
    """Coefficients of the k-th Bell state (k = 1..4) on the product kets
    (ta, ta), (ta, -ta), (-ta, ta), (-ta, -ta), shape (4, *basis shape).

    B1,2 = (Psi+Psi+ +- Psi-Psi-)/sqrt2;  B3,4 = (Psi+Psi- +- Psi-Psi+)/sqrt2,
    from the logical kets Psi+ = (cos th |ta> - sin th |-ta>) / sqrt(N_theta)
    = (a, b) and Psi- = (-sin th |ta> + cos th |-ta>) / sqrt(N_theta) = (b, a).
    Of B = inv (u v +- w x), inv = 1/sqrt2, the coefficient on (i, j) is
    inv u_i v_j + inv (+-w_i x_j), the sum ``consolidate`` takes of the
    tensor products, so its bits are theirs.  Each product is inv a a,
    inv a b (= inv b a) or inv b b, and B2's and B4's second term is
    subtracted (a - b is a + (-1) * b): each coefficient is a sum or
    difference of two of those three, element-wise, cast to complex once.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError("Bell index must be 1..4")
    c = 1.0 / np.sqrt(basis.n_theta)
    a, b = c * np.cos(basis.theta), -(c * np.sin(basis.theta))
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
    extra -sin(2 theta) cross terms.  The terms are those of ``bell_coeffs``,
    in that order; terms at or below DROP_TOL of the largest are dropped, as
    in ``consolidate``.
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

    ``matrix`` may carry leading axes, shape (..., 4, 4): a batch of
    densities, each held to the same checks.  A density must be Hermitian
    and of unit trace within 1e-10, and every eigenvalue of its Hermitian
    part must lie above -1e-10: tested as a Cholesky factorization of that
    part plus 1e-10 I, which completes exactly when its eigenvalues are
    positive (up to rounding at the threshold).  Each check is written so
    that a NaN fails it; a failed check raises DensityError.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape[-2:] != (4, 4):
            raise ValueError("density matrix must be 4x4")
        # laid out like m, so that both uses below run on contiguous memory
        m_dag = np.conjugate(m.swapaxes(-1, -2), order="C")
        if not np.abs(m - m_dag).max() <= 1e-10:
            raise DensityError("density matrix is not Hermitian within 1e-10")
        # the real and imaginary parts of tr - 1 side by side
        off = np.asarray(m.trace(axis1=-2, axis2=-1) - 1.0)[..., None].view(float)
        if not np.abs(off).max() <= 1e-10:
            raise DensityError("density matrix trace differs from 1 by more than 1e-10")
        m_dag += m
        m = m_dag
        m /= 2
        try:
            np.linalg.cholesky(m + _PSD_SHIFT)
        except np.linalg.LinAlgError:
            raise DensityError("density matrix has an eigenvalue below -1e-10") from None
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def project_to_density(rho: CoherentOperator, basis: LogicalBasis) -> TwoQubitDensity:
    """Express a two-mode coherent operator in the logical product basis.

    Every dyad amplitude must lie in the logical span per mode (exact for
    the channel states here, where decay maps +-a to +-ta); otherwise the
    projection would lose trace and a SpanError is raised instead.
    Coefficients and amplitudes that are arrays (a decay-time grid, with a
    basis of the same shape) give a batched density of that shape: one
    contraction sum_t c_t ket0_t (x) ket1_t (x) bra0_t (x) bra1_t, which
    einsum's generic loop (no ``optimize`` path to regroup the factors)
    takes point by point in that order, summing the dyads from zero in term
    order, so a point's bits do not depend on the grid.  The coordinates are
    real (no conj) and cast to complex once: an imaginary part of +0 keeps
    the bits, and einsum's own casting took up to 1.07x as long.
    """
    if rho.modes != 2:
        raise ValueError("expected a two-mode operator")
    # (terms, side, mode, *grid, logical index)
    coords = logical_coords(np.stack((rho.kets, rho.bras), axis=1), basis).astype(complex)
    out = np.einsum("t...,t...i,t...j,t...k,t...l->...ijkl", rho.coeffs,
                    coords[:, 0, 0], coords[:, 0, 1], coords[:, 1, 0], coords[:, 1, 1])
    del coords  # 512 B a point, freed before the density check sets the peak
    return TwoQubitDensity(out.reshape(out.shape[:-4] + (4, 4)))


def pauli_decompose(rho: TwoQubitDensity) -> np.ndarray:
    """Pauli coordinates c[..., m, n] = tr(rho s_m (x) s_n), s = (I, X, Y, Z),
    over any leading axes: c[0, 0] is the trace, c[1:, 0] and c[0, 1:] the
    local Bloch vectors and c[1:, 1:] the correlation matrix T, so that
    rho = (1/4) sum_mn c_mn s_m (x) s_n."""
    return np.einsum("...ij,mnji->...mn", rho.matrix, PAULI_PRODUCTS).real


def pauli_reconstruct(c: np.ndarray) -> np.ndarray:
    """The 4x4 matrix of Pauli coordinates ``c`` (round-trip check)."""
    return np.einsum("...mn,mnij->...ij", c, PAULI_PRODUCTS) / 4.0
