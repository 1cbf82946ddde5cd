"""Logical qubit encoding of coherent states.

A coherent pair {|a>, |-a>} spans a two-dimensional space; Gram-Schmidt
orthonormalization gives the logical basis (Psi+, Psi-), from which the four
maximally entangled Bell states are built.  All 4x4 matrices use the fixed
product ordering {Psi+Psi+, Psi+Psi-, Psi-Psi+, Psi-Psi-}.
"""
from __future__ import annotations

import math
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
# Grid points per block of project_to_density: its largest work array takes
# 256 B a point and dyad, 128 kB a block for the channel's 4 dyads.  Measured
# on 2-1200 point grids, larger blocks fault in more fresh pages per call and
# smaller ones pay more fixed cost.
_PROJECTION_BLOCK = 128

_SQ2 = math.sqrt(2.0)
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
    """Orthonormal pair built from |ta> and |-ta| for real amplitude a = alpha.

    ``theta`` is the mixing angle with sin(2 theta) = <ta|-ta> = exp(-2 t^2
    alpha^2); ``n_theta`` = cos^2(2 theta) is the normalization of the pair.
    ``t = 1`` is the undecayed basis; smaller ``t`` tracks amplitude decay.
    ``alpha`` and ``t`` may be arrays that broadcast against each other (an
    amplitude axis ahead of a decay-time grid, say), one basis per entry of
    the broadcast shape: ``theta``, ``n_theta`` and the properties are then
    arrays of that shape.
    """

    alpha: float | np.ndarray
    t: float | np.ndarray
    theta: float | np.ndarray
    n_theta: float | np.ndarray

    @property
    def amplitude(self) -> float | np.ndarray:
        return self.t * self.alpha

    @property
    def sin2theta(self) -> float | np.ndarray:
        return np.exp(-2.0 * (self.t * self.alpha) ** 2)


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
    return basis_from_squares(alpha, t, (t * alpha) ** 2)


def basis_from_squares(alpha, t, a2) -> LogicalBasis:
    """``make_basis(alpha, t)`` from the squared amplitudes ``a2`` = (t alpha)^2,
    for ``alpha`` and ``t`` already known to be in range; only the
    degeneracy check is made."""
    s2 = np.exp(-2.0 * a2)  # sin 2theta
    n_theta = -np.expm1(-4.0 * a2)  # 1 - sin^2 2theta, stable
    if not n_theta.min() >= DEGENERACY_FLOOR:
        amps = np.broadcast_to(alpha, n_theta.shape)
        bad = amps[~(n_theta >= DEGENERACY_FLOOR)][0]
        raise DegenerateBasisError(
            f"basis degenerate at alpha={bad}, t={np.min(t)}: "
            f"1-exp(-4 t^2 a^2)={np.min(n_theta[amps == bad]):.3e}"
        )
    theta = 0.5 * np.arcsin(s2)
    return LogicalBasis(alpha=alpha, t=t, theta=theta, n_theta=n_theta)


def each_float(f, x) -> np.ndarray:
    """``f`` applied to every entry of ``x`` as a Python float, shaped like
    ``x`` (0-d for a scalar): the bits of the scalar arithmetic, where
    Python's and numpy's differ (``**``, ``math.expm1``)."""
    x = np.asarray(x, dtype=float)
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


def logical_coords(amp, basis: LogicalBasis) -> np.ndarray:
    """Coordinates of a coherent ket |amp> in the (Psi+, Psi-) basis.

    Exact inversion of the basis definition: |ta> = cos th Psi+ + sin th Psi-
    and |-ta> = sin th Psi+ + cos th Psi-.  ``amp`` must equal +-ta.  Array
    amplitudes broadcast against the basis; the result has a trailing axis
    of length 2, a view whose memory holds that axis first, so that the
    last axis of the amplitudes runs innermost.
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
    and Psi- = (-sin th |ta> + cos th |-ta>) / sqrt(N_theta).  Each
    coefficient takes the complex products and sums that ``consolidate``
    applies to the tensor products of those kets, so its bits are theirs.
    Every entry of the basis is taken in Python's scalar float arithmetic,
    so its bits do not depend on the others.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError("Bell index must be 1..4")
    inv = complex(1.0 / _SQ2)
    n_thetas, thetas = np.asarray(basis.n_theta), np.asarray(basis.theta)
    coeffs = []  # amplitude major
    for n_theta, theta in zip(n_thetas.flat, thetas.flat):
        c = 1.0 / math.sqrt(n_theta)
        cos, sin = c * math.cos(theta), c * math.sin(theta)
        plus = (complex(cos), complex(-sin))  # Psi+ on (|ta>, |-ta>)
        minus = (complex(-sin), complex(cos))  # Psi-
        u, v, w, x = (plus, plus, minus, minus) if k < 3 else (plus, minus, minus, plus)
        for i in (0, 1):
            for j in (0, 1):
                second = w[i] * x[j]
                if k % 2 == 0:  # B2, B4: a - b is a + (-1) * b
                    second = complex(-1.0) * second
                coeffs.append(inv * (u[i] * v[j]) + inv * second)
    return np.array(coeffs).reshape(-1, 4).T.reshape((4,) + thetas.shape)


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
# densities and Pauli decomposition


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
    basis of the same shape) give a batched density of that shape: the sum
    over dyads of coefficient x outer product of the ket and bra product
    4-vectors, all element-wise, so a point's bits do not depend on the grid.
    """
    if rho.modes != 2:
        raise ValueError("expected a two-mode operator")
    # (terms, side, mode, logical index, *grid), the grid innermost in memory
    # too; the coordinates are real, so no conj
    coords = logical_coords(
        np.concatenate((rho.kets[:, None], rho.bras[:, None]), axis=1), basis
    )
    coords = coords.transpose(0, 1, 2, -1, *range(3, coords.ndim - 1))
    grid = coords.shape[4:]
    # from here on the grid is one flat axis (a view), which keeps the work
    # per point the same for any number of grid axes
    coords = coords.reshape(coords.shape[:4] + (-1,))
    c = rho.coeffs.reshape(len(rho.coeffs), 1, -1)
    c = np.concatenate((c.real, c.imag), axis=1)  # (terms, re/im, points)
    n = coords.shape[-1]
    out = np.empty((n, 32))
    for start in range(0, n, _PROJECTION_BLOCK):
        s = slice(start, start + _PROJECTION_BLOCK)
        out[s] = _summed_products(c[..., s], coords[..., s])
    del coords, c
    # (points, 16 entries, re/im) viewed as complex (*grid, 4, 4)
    return TwoQubitDensity(out.view(complex).reshape(grid + (4, 4)))


def _summed_products(c: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The sum over terms of c x ket0 x ket1 x bra0 x bra1, (points, 32).

    ``c`` is (terms, re/im, points) and ``coords`` (terms, side, mode,
    logical index, points).  Each product is taken in that order on the
    (re, im) pair of c: by real coordinates these are the bits of the
    complex products.  Its axes are the term, the ket0, ket1, bra0 and bra1
    logical indices, re/im and the points; the terms are summed from zero in
    order, so the sum never meets -0.
    """
    prod = c[:, None] * coords[:, 0, 0, :, None]
    prod = prod[:, :, None] * coords[:, 0, 1, None, :, None]
    prod = prod[:, :, :, None] * coords[:, 1, 0, None, None, :, None]
    prod = prod[:, :, :, :, None] * coords[:, 1, 1, None, None, None, :, None]
    return prod.sum(axis=0, initial=0.0).reshape(32, -1).T


@dataclass(frozen=True)
class PauliDecomposition:
    """Local Bloch vectors and correlation matrix of a two-qubit state.

    rho = (1/4)(II + v.sigma x I + I x s.sigma + sum t_nm sigma_n x sigma_m).
    """

    v: np.ndarray
    s: np.ndarray
    t_matrix: np.ndarray


def pauli_decompose(rho: TwoQubitDensity) -> PauliDecomposition:
    """tr(rho s_m (x) s_n) for every Pauli pair, over any leading axes."""
    c = np.einsum("...ij,mnji->...mn", rho.matrix, PAULI_PRODUCTS).real
    return PauliDecomposition(v=c[..., 1:, 0], s=c[..., 0, 1:], t_matrix=c[..., 1:, 1:])


def pauli_reconstruct(dec: PauliDecomposition) -> np.ndarray:
    """Rebuild the 4x4 matrix from a Pauli decomposition (round-trip check)."""
    c = np.zeros(np.shape(dec.v)[:-1] + (4, 4))
    c[..., 0, 0] = 1.0
    c[..., 1:, 0] = dec.v
    c[..., 0, 1:] = dec.s
    c[..., 1:, 1:] = dec.t_matrix
    return np.einsum("...mn,mnij->...ij", c, PAULI_PRODUCTS) / 4.0
