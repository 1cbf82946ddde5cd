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

from .coherent_states import (
    CoherentOperator,
    CoherentSuperposition,
    consolidate,
    tensor,
)
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
    An array ``t`` gives one basis per entry: ``theta``, ``n_theta`` and the
    properties are then arrays of its shape.
    """

    alpha: float
    t: float | np.ndarray
    theta: float | np.ndarray
    n_theta: float | np.ndarray

    @property
    def amplitude(self) -> float | np.ndarray:
        return self.t * self.alpha

    @property
    def sin2theta(self) -> float | np.ndarray:
        return np.exp(-2.0 * (self.t * self.alpha) ** 2)


def make_basis(alpha: float, t: float | np.ndarray = 1.0) -> LogicalBasis:
    """Build the logical basis at amplitude ``t * alpha`` (``t`` may be an array).

    Fails loudly when 1 - exp(-4 t^2 alpha^2) < 1e-12 at any ``t``: there the
    pair {|ta>, |-ta>} is numerically collinear and the encoding is undefined.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not np.all((0.0 < t) & (t <= 1.0)):
        raise ValueError("decay factor t must lie in (0, 1]")
    s2 = np.exp(-2.0 * (t * alpha) ** 2)  # sin 2theta
    n_theta = -np.expm1(-4.0 * (t * alpha) ** 2)  # 1 - sin^2 2theta, stable
    if np.any(n_theta < DEGENERACY_FLOOR):
        raise DegenerateBasisError(
            f"basis degenerate at alpha={alpha}, t={np.min(t)}: "
            f"1-exp(-4 t^2 a^2)={np.min(n_theta):.3e}"
        )
    theta = 0.5 * np.arcsin(s2)
    return LogicalBasis(alpha=float(alpha), t=t, theta=theta, n_theta=n_theta)


def _on_pair(basis: LogicalBasis, plus: float, minus: float) -> CoherentSuperposition:
    """plus |ta> + minus |-ta>."""
    a = basis.amplitude
    return CoherentSuperposition(
        np.array([plus, minus], dtype=complex), np.array([[a], [-a]], dtype=complex)
    )


def psi_plus(basis: LogicalBasis) -> CoherentSuperposition:
    """|Psi+> = (cos th |ta> - sin th |-ta>) / sqrt(N_theta)."""
    c = 1.0 / math.sqrt(basis.n_theta)
    return _on_pair(basis, c * math.cos(basis.theta), -c * math.sin(basis.theta))


def psi_minus(basis: LogicalBasis) -> CoherentSuperposition:
    """|Psi-> = (-sin th |ta> + cos th |-ta>) / sqrt(N_theta)."""
    c = 1.0 / math.sqrt(basis.n_theta)
    return _on_pair(basis, -c * math.sin(basis.theta), c * math.cos(basis.theta))


def logical_coords(amp, basis: LogicalBasis) -> np.ndarray:
    """Coordinates of a coherent ket |amp> in the (Psi+, Psi-) basis.

    Exact inversion of the basis definition: |ta> = cos th Psi+ + sin th Psi-
    and |-ta> = sin th Psi+ + cos th Psi-.  ``amp`` must equal +-ta.  Array
    amplitudes broadcast against the basis; the result has a trailing axis
    of length 2.
    """
    a = basis.amplitude
    plus = np.abs(amp - a) < SPAN_TOL
    ok = plus | (np.abs(amp + a) < SPAN_TOL)
    if not ok.all():
        bad = np.broadcast_to(amp, ok.shape)[~ok][0]
        raise SpanError(f"amplitude {bad!r} is not +-{a} within {SPAN_TOL}")
    c, s = np.cos(basis.theta), np.sin(basis.theta)
    return np.stack([np.where(plus, c, s), np.where(plus, s, c)], axis=-1)


def bell_state(k: int, basis: LogicalBasis) -> CoherentSuperposition:
    """The k-th Bell state (k = 1..4) as a two-mode coherent superposition.

    B1,2 = (Psi+Psi+ +- Psi-Psi-)/sqrt2;  B3,4 = (Psi+Psi- +- Psi-Psi+)/sqrt2.
    B2 and B4 are entangled coherent states exactly; B1 and B3 carry the
    extra -sin(2 theta) cross terms.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError("Bell index must be 1..4")
    p = psi_plus(basis)
    m = psi_minus(basis)
    inv = 1.0 / _SQ2
    if k == 1:
        s = inv * (tensor(p, p) + tensor(m, m))
    elif k == 2:
        s = inv * (tensor(p, p) - tensor(m, m))
    elif k == 3:
        s = inv * (tensor(p, m) + tensor(m, p))
    else:
        s = inv * (tensor(p, m) - tensor(m, p))
    return consolidate(s)


# ---------------------------------------------------------------------------
# logical qubit vectors


@dataclass(frozen=True)
class QubitVector:
    """Unit vector in the logical basis: plus * Psi+ + minus * Psi-."""

    plus: complex
    minus: complex

    def __post_init__(self):
        n2 = abs(self.plus) ** 2 + abs(self.minus) ** 2
        if abs(n2 - 1.0) > 1e-12:
            raise ValueError(f"qubit vector norm^2 = {n2!r}, expected 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.plus, self.minus], dtype=complex)


def from_amplitudes(a: complex, b: complex, basis: LogicalBasis) -> QubitVector:
    """Logical coordinates of  a |ta> + b |-ta>.

    The exact basis inversion gives plus = a cos th + b sin th and
    minus = a sin th + b cos th (the 1/cos 2th from inverting the 2x2 system
    cancels against sqrt(N_theta) identically).  The coefficient norm equals
    the physical state norm, so normalization only rescales unnormalized
    inputs.
    """
    a = complex(a)
    b = complex(b)
    if abs(a) == 0 and abs(b) == 0:
        raise ValueError("amplitudes must not both vanish")
    c, s = math.cos(basis.theta), math.sin(basis.theta)
    plus = a * c + b * s
    minus = a * s + b * c
    n = math.sqrt(abs(plus) ** 2 + abs(minus) ** 2)
    return QubitVector(plus / n, minus / n)


def qubit_to_coherent(q: QubitVector, basis: LogicalBasis) -> CoherentSuperposition:
    """Realize a logical vector as the corresponding coherent superposition."""
    return consolidate(q.plus * psi_plus(basis) + q.minus * psi_minus(basis))


def to_logical_qubit(state: CoherentSuperposition, basis: LogicalBasis) -> np.ndarray:
    """Project a single-mode state in span{|ta>, |-ta>} onto (Psi+, Psi-)."""
    if state.modes != 1:
        raise ValueError("expected a single-mode state")
    return state.coeffs @ logical_coords(state.amps[:, 0], basis)


def to_logical_vector(state: CoherentSuperposition, basis: LogicalBasis) -> np.ndarray:
    """Project a two-mode state onto the logical product basis (4-vector)."""
    if state.modes != 2:
        raise ValueError("expected a two-mode state")
    c0, c1 = logical_coords(state.amps, basis).transpose(1, 0, 2)
    return np.einsum("t,ti,tj->ij", state.coeffs, c0, c1).reshape(4)


# ---------------------------------------------------------------------------
# densities and Pauli decomposition


@dataclass(frozen=True)
class TwoQubitDensity:
    """4x4 density matrix in the logical product ordering.

    ``matrix`` may carry leading axes, shape (..., 4, 4): a batch of
    densities, each held to the same checks.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape[-2:] != (4, 4):
            raise ValueError("density matrix must be 4x4")
        m_dag = m.conj().swapaxes(-1, -2)
        if np.max(np.abs(m - m_dag)) > 1e-10:
            raise DensityError("density matrix is not Hermitian within 1e-10")
        tr = np.trace(m, axis1=-2, axis2=-1)
        if np.any(np.abs(tr.real - 1.0) > 1e-10) or np.any(np.abs(tr.imag) > 1e-10):
            raise DensityError("density matrix trace differs from 1 by more than 1e-10")
        m = (m + m_dag) / 2
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise DensityError("density matrix has an eigenvalue below -1e-10")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __getitem__(self, i) -> "TwoQubitDensity":
        """Density ``i`` of a batch: a read-only view, not checked again."""
        if self.matrix.ndim < 3:
            raise TypeError("a single density has no rows")
        row = object.__new__(TwoQubitDensity)
        object.__setattr__(row, "matrix", self.matrix[i])
        return row

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


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
    # (terms, side, mode, *grid, 2); the coordinates are real, so no conj
    coords = logical_coords(np.stack((rho.kets, rho.bras), axis=1), basis)
    out = np.zeros(coords.shape[3:-1] + (2, 2, 2, 2), dtype=complex)
    for c, (ket0, ket1), (bra0, bra1) in zip(rho.coeffs, coords[:, 0], coords[:, 1]):
        out += ((c[..., None] * ket0)[..., :, None, None, None] * ket1[..., None, :, None, None]
                * bra0[..., None, None, :, None] * bra1[..., None, None, None, :])
    return TwoQubitDensity(out.reshape(out.shape[:-4] + (4, 4)))


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


def reduced(rho: TwoQubitDensity, which_mode: int) -> np.ndarray:
    """Partial trace down to one qubit; equals (I + bloch.sigma)/2."""
    m = rho.matrix.reshape(2, 2, 2, 2)
    if which_mode == 0:
        return np.einsum("ikjk->ij", m)
    if which_mode == 1:
        return np.einsum("kikj->ij", m)
    raise ValueError("which_mode must be 0 or 1")
