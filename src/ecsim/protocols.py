"""Executable protocols over the coherent-state qubit encoding.

Covers Bell discrimination behind a 50:50 beam splitter with photon
counting, qubit teleportation over mixed channels (the exact average and the
Monte Carlo, through a constant Bloch-transfer kernel built at import from
the Bell-outcome map), entanglement concentration by swapping,
and the continuous-variable fidelity of the entangled coherent channel.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .coherent_states import (
    CoherentSuperposition,
    beam_split,
    inner,
    normalized,
    photon_distribution,
    project_modes,
    tensor,
)
from .errors import ZeroNormError
from .qubit_encoding import (
    BELL_VECTORS,
    PAULI_BASIS,
    PAULIS,
    LogicalBasis,
    TwoQubitDensity,
    bell_state,
    make_basis,
)

class BellLabel(enum.Enum):
    B1 = "B1"
    B2 = "B2"
    B3 = "B3"
    B4 = "B4"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class BellOutcome:
    """One detector event: declared label plus the (n_f, n_g) counts."""

    label: BellLabel
    counts: tuple[int, int]


def classify_counts(n_f: int, n_g: int) -> BellLabel:
    """Detection rule of the beam-splitter discriminator.

    Odd count in f declares B2, odd count in g declares B4; a non-zero even
    count declares B1 (mode f) or B3 (mode g); double vacuum is ambiguous.
    """
    if n_f % 2 == 1:
        return BellLabel.B2
    if n_g % 2 == 1:
        return BellLabel.B4
    if n_f > 0:
        return BellLabel.B1
    if n_g > 0:
        return BellLabel.B3
    return BellLabel.AMBIGUOUS


@dataclass(frozen=True)
class BellMeasurement:
    """Joint count distribution after the beam splitter, with labels."""

    outcomes: tuple[tuple[BellOutcome, float], ...]
    tail_bound: float

    def mass(self, label: BellLabel) -> float:
        return sum(p for o, p in self.outcomes if o.label is label)

    def misidentification(self) -> float:
        """Wrong-estimation probability when the measured state is B1.

        Conditioned on an even-count declaration, B1 is declared B3 with
        probability wrong/(wrong+right); averaged over the four equiprobable
        Bell inputs (B3 symmetrically, B2/B4 never) that confusion is halved.
        """
        wrong = self.mass(BellLabel.B3)
        right = self.mass(BellLabel.B1)
        return 0.5 * wrong / (wrong + right)


# Most (n_f, n_g) records bell_measure_distribution keeps for reuse: every
# cell of a cutoff-63 grid.
BELL_RECORDS_CACHED = 4096


@functools.lru_cache(maxsize=BELL_RECORDS_CACHED)
def _bell_outcome(n_f: int, n_g: int) -> BellOutcome:
    return BellOutcome(classify_counts(n_f, n_g), (n_f, n_g))


def bell_measure_distribution(
    state: CoherentSuperposition, cutoff: int | None = None
) -> BellMeasurement:
    """Distribution of Bell-discrimination outcomes for a two-mode state.

    Applies the 50:50 beam splitter to the two modes and counts photons in
    both outputs; each count pair is classified by ``classify_counts``.  The
    record keeps the Fock truncation's tail bound.  Equal counts give the same
    frozen ``BellOutcome`` object, from a cache of the last
    ``BELL_RECORDS_CACHED`` count pairs.
    """
    if state.modes != 2:
        raise ValueError("expected a two-mode state")
    dist = photon_distribution(beam_split(state, 0, 1), cutoff)
    # only the non-zero cells, ~2 cutoff of the (cutoff + 1)^2, in row-major order
    probs = dist.probs.ravel()
    cells = (probs > 0.0).nonzero()[0]
    n_f, n_g = np.divmod(cells, dist.cutoff + 1)
    outcomes = tuple(zip(map(_bell_outcome, n_f.tolist(), n_g.tolist()), probs[cells].tolist()))
    return BellMeasurement(outcomes=outcomes, tail_bound=dist.tail_bound)


def misid_probability_closed(alpha: float) -> float:
    """Closed-form wrong-estimation probability 1 / (2 (1 + e^{4 a^2})).

    Evaluated as x / (2 (1 + x)) with x = e^{-4 a^2}, which cannot overflow
    at large amplitude.
    """
    x = math.exp(-4.0 * alpha**2)
    return 0.5 * x / (1.0 + x)


# ---------------------------------------------------------------------------
# teleportation over a logical channel

# Outcome -> correction: B1 -> i sigma_y, B2 -> sigma_x, B3 -> -sigma_z, B4 -> identity.
CORRECTIONS = np.stack((1j * PAULIS[1], PAULIS[0], -PAULIS[2], np.eye(2, dtype=complex)))
# Average fidelity = _FIDELITY_WEIGHTS . sum_k Q[k, m, m]: E[b_m b_n] =
# (1, 1/3, 1/3, 1/3)_m delta_mn for inputs b = (1, n) uniform on the sphere.
# A (1, 4) row, so that the product with the diagonal is a fixed-shape matmul.
_FIDELITY_WEIGHTS = np.array([[1.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]])
# Shots per block in teleport_average_mc; bounds its working memory.
MC_CHUNK = 4096


def bell_outcome_map(m: np.ndarray) -> np.ndarray:
    """Bell-outcome superoperator Lambda[..., k, a, A, i, l], shape (..., 4, 2, 2, 2, 2).

    sum_{a,A} x[a, A] Lambda[k, a, A] is Bob's corrected, unnormalized state
    U_k <B_k|(x (x) rho)|B_k> U_k^dag for an input operator x and outcome k
    (B1..B4, U_k = ``CORRECTIONS[k]``).  For an input projector its trace is
    the outcome probability.  ``m`` is a channel matrix, shape (..., 4, 4).
    """
    bell = BELL_VECTORS.reshape(4, 2, 2)
    return np.einsum("kab,...bcBC,kAB,kic,klC->...kaAil", bell.conj(),
                     m.reshape(m.shape[:-2] + (2, 2, 2, 2)), bell, CORRECTIONS, CORRECTIONS.conj())


# Q[k, m, n] = tr(s_m Lambda_k(s_n)) / 4 is linear in rho: it is
# Re(_TRANSFER_KERNEL @ vec rho)[16 k + 4 m + n], column x from the x-th matrix unit.
_TRANSFER_KERNEL = np.einsum("mli,xkaAil,naA->kmnx", PAULI_BASIS, bell_outcome_map(
    np.eye(16).reshape(16, 4, 4)), PAULI_BASIS).reshape(64, 16) / 4.0


def bloch_transfer(channel: TwoQubitDensity) -> np.ndarray:
    """The Bell-outcome map in Bloch coordinates, Q[..., k, m, n] (real).

    An input projector is (1/2) sum_n b_n s_n with b = (1, Bloch vector), so
    outcome k has probability 2 Q[k, 0] . b and fidelity numerator b . Q[k] . b.
    One fixed contraction over any leading axes: a row's bits do not depend on them.
    """
    m = channel.matrix
    q = np.einsum("xj,...j->...x", _TRANSFER_KERNEL, m.reshape(m.shape[:-2] + (16,)))
    return q.real.reshape(m.shape[:-2] + (4, 4, 4))


def teleport_average_mc(q: np.ndarray, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo average fidelity of the standard scheme: (mean, stderr).

    Inputs are drawn uniformly from the logical Bloch sphere and one outcome
    is sampled per shot from its Born probability, through the channel's
    Bell-outcome map in Bloch coordinates: ``q`` is the ``bloch_transfer`` Q
    of one density, shape (4, 4, 4).  The random numbers are drawn up front
    and the shots evaluated in blocks of ``MC_CHUNK``, which bounds the
    working memory and does not change the result.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if q.shape != (4, 4, 4):
        raise ValueError("the Monte Carlo takes one Bloch transfer of shape (4, 4, 4), "
                         f"not {q.shape}")
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, samples)
    ph = rng.uniform(0.0, 2.0 * math.pi, samples)
    u = rng.random(samples)  # u * total is uniform(0, total) bit for bit
    qt = q.transpose(2, 1, 0)  # [n, m, k]: Q[k, m, n]
    prob_rows = 2.0 * qt[:, 0, :, None]  # [n, k]: 2 Q[k, 0, n]
    # [3 n + m - 1, k]: Q[k, m, n] for m = 1..3.  The m = 0 numerator row,
    # sum_n Q[k, 0, n] b_n, is half the probability of k bit for bit: the
    # probability sums the same products of 2 Q, and doubling is exact (a
    # subnormal product can round apart, which can show only in the sum of an
    # outcome of vanishing probability; the tests pin amplitudes near underflow).
    q_cols = qt[:, 1:].reshape(12, 4)
    fids = np.empty(samples)
    # one block's work arrays, shot axis innermost; a short last block uses a prefix
    width = min(samples, MC_CHUNK)
    work, index = np.empty((27, width)), np.empty((2, width), dtype=np.intp)
    hits, shot = np.empty(width, dtype=bool), np.arange(width)
    for start in range(0, samples, MC_CHUNK):
        block = slice(start, start + MC_CHUNK)
        zb, fb = z[block], fids[block]
        n = len(zb)
        w, hit = work[:, :n], hits[:n]
        probs, b, tmp, qk, rows, pk = w[:4], w[4:7], w[7:11], w[11:23], w[23:26], w[26]
        ks, at = index[:, :n]  # outcomes, and where probs[ks, i] sits in work.ravel()
        # b = (b1, b2, b3) = (s cos ph, s sin ph, z) with s = sqrt((1 - z)(1 + z)); b0 = 1
        np.subtract(1.0, zb, out=tmp[0])
        np.add(1.0, zb, out=tmp[1])
        s = np.multiply(tmp[0], tmp[1], out=tmp[2])
        np.sqrt(s, out=s)
        np.cos(ph[block], out=b[0])
        np.sin(ph[block], out=b[1])
        b[:2] *= s
        b[2] = zb
        # probabilities (4, shots): sum_n 2 Q[k, 0, n] b_n in the order n = 0, 1, 2, 3
        np.multiply(prob_rows[1], b[0], out=probs)
        probs += prob_rows[0]
        probs += np.multiply(prob_rows[2], b[1], out=tmp)
        probs += np.multiply(prob_rows[3], b[2], out=tmp)
        # outcome: the number of cumulative sums below u * total
        cum1 = np.add(probs[0], probs[1], out=tmp[0])
        cum2 = np.add(cum1, probs[2], out=tmp[1])
        draw = np.add(cum2, probs[3], out=tmp[2])
        draw *= u[block]
        np.greater(draw, probs[0], out=ks)
        ks += np.greater(draw, cum1, out=hit)
        ks += np.greater(draw, cum2, out=hit)
        # gathers by outcome; ks is in 0..3, so "clip" never clips (and unlike
        # "raise", does not copy through a buffer)
        np.take(q_cols, ks, axis=1, out=qk, mode="clip")
        np.multiply(ks, width, out=at)
        at += shot[:n]
        np.take(work.ravel(), at, out=pk, mode="clip")
        # numerator rows m = 1..3: sum_n Q[k, m, n] b_n in the order n = 0, 1, 2, 3
        qk = qk.reshape(4, 3, n)
        np.multiply(qk[1], b[0], out=rows)
        rows += qk[0]
        rows += np.multiply(qk[2], b[1], out=tmp[:3])
        rows += np.multiply(qk[3], b[2], out=tmp[:3])
        # numerator sum_m row_m b_m in the order m = 0, 1, 2, 3, over the probability
        rows *= b
        np.multiply(pk, 0.5, out=fb)
        fb += rows[0]
        fb += rows[1]
        fb += rows[2]
        fb /= pk
    # mean and std(ddof=1) by numpy's own steps, the sum taken once and the
    # deviations squared in place, so nothing is allocated after the blocks
    mean = fids.sum() / samples
    stderr = 0.0
    if samples > 1:
        fids -= mean
        var = np.square(fids, out=fids).sum() / (samples - 1)
        stderr = float(math.sqrt(var) / math.sqrt(samples))
    return float(mean), stderr


def average_fidelity(q: np.ndarray) -> float | np.ndarray:
    """Exact input-averaged fidelity of the standard scheme.

    The fidelity summed over outcomes is quadratic in the input's Bloch
    coordinates; the uniform input average replaces their products by the
    isotropic second moments.  ``q`` is the ``bloch_transfer`` Q[..., k, m, n]
    of one density or a batch; the result is a float for one channel, an
    array over the batch otherwise, each entry with the bits of its own
    single call.
    """
    diag = np.einsum("...kmm->...m", q)
    f = (_FIDELITY_WEIGHTS @ diag[..., None])[..., 0, 0]
    return float(f) if f.ndim == 0 else f


# ---------------------------------------------------------------------------
# concentration by entanglement swapping
#
# Wiring: the channel occupies modes (b, c) and the auxiliary pair, prepared
# in the same state, modes (b', b''); the Bell measurement acts on (b'', b)
# and the concentrated pair is reported on (b', c).  Mode order of the
# four-mode tensors is (b', b'', b, c).


def concentrate_ideal(eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Swap two copies of  cos(eta) |+-> - sin(eta) |-+>  (logical qubits).

    Explicit four-qubit construction: tensor the two pairs, project the
    measured pair on each Bell vector, and read off probabilities and
    post-measurement states: the outcome probabilities of B1..B4, shape (4,),
    and the normalized post-measurement pair states, shape (4, 4).  Outcomes
    B1 and B2 occur with probability cos^2(eta) sin^2(eta) each and leave a
    maximally entangled pair.
    """
    if not (0.0 < eta < math.pi / 2.0):
        raise ValueError("eta must lie in (0, pi/2)")
    e4 = np.zeros(4)
    e4[1] = math.cos(eta)
    e4[2] = -math.sin(eta)
    psi = np.kron(e4, e4).reshape(2, 2, 2, 2)  # (b', b'', b, c)
    probs = []
    states = []
    for k in range(4):
        bk = BELL_VECTORS[k].reshape(2, 2)
        chi = np.einsum("ab,iabj->ij", bk.conj(), psi).reshape(4)
        p = float(np.vdot(chi, chi).real)
        probs.append(p)
        states.append(chi / math.sqrt(p) if p > 0 else chi)
    return np.array(probs), np.array(states)


def partial_pair_state(basis: LogicalBasis, eta: float) -> CoherentSuperposition:
    """Normalized partially entangled pair cos(eta)|a,-a> - sin(eta)|-a,a> at
    the amplitude a of ``basis``, built by ``make_basis``, which guards it."""
    if not (0.0 < eta < math.pi / 2.0):
        raise ValueError("eta must lie in (0, pi/2)")
    a = basis.amplitude
    coeffs = np.array([math.cos(eta), -math.sin(eta)], dtype=complex)
    return normalized(CoherentSuperposition(coeffs, np.array([[a, -a], [-a, a]], dtype=complex)))


@dataclass(frozen=True)
class ExactConcentration:
    """Antisymmetric-outcome swap result in the full coherent representation."""

    success_probability: float
    state: CoherentSuperposition


def concentrate_exact(alpha: float, eta: float) -> ExactConcentration:
    """Swap two partially entangled coherent pairs, keeping the B2 outcome.

    Full coherent-representation construction: both pairs in the normalized
    partial state, Bell projection of the measured modes onto the B2 state.
    The surviving pair is exactly B2 at any amplitude.
    """
    basis = make_basis(alpha, 1.0)
    d4 = partial_pair_state(basis, eta)
    joint = tensor(d4, d4)  # (b', b'', b, c)
    chi = project_modes(joint, (1, 2), bell_state(2, basis))
    p = inner(chi, chi).real
    # normalized(chi), without computing <chi|chi> a second time
    n = math.sqrt(max(p, 0.0))
    if n == 0.0:
        raise ZeroNormError("cannot normalize a zero state")
    return ExactConcentration(success_probability=float(p), state=(1.0 / n) * chi)


def concentration_success_closed_form(alpha: float, eta: float) -> float:
    """Closed-form success probability of the B2-outcome swap.

    Equals cos^4(2 th) sin^2(2 eta) / (4 (1 - sin^2(2 th) sin(2 eta))^2):
    the numerator from the two Bell projections, one normalization factor
    1 - sin^2(2 th) sin(2 eta) per input pair.  Verified against the
    explicit swap and an independent truncated-Fock computation.
    """
    basis = make_basis(alpha, 1.0)
    u2 = basis.sin2theta**2
    n_eta = 1.0 - u2 * math.sin(2.0 * eta)
    return basis.n_theta**2 * math.sin(2.0 * eta) ** 2 / (4.0 * n_eta**2)


# ---------------------------------------------------------------------------
# continuous-variable teleportation fidelity


def cv_fidelity(alpha_r: float) -> float:
    """Fidelity for teleporting an unknown coherent state over the channel.

    f = (1 + e^{-2 x^2}) / (2 (1 + e^{-4 x^2})) with x the real part of the
    channel amplitude; independent of the teleported amplitude.
    """
    x2 = alpha_r * alpha_r
    return (1.0 + math.exp(-2.0 * x2)) / (2.0 * (1.0 + math.exp(-4.0 * x2)))


def cv_max() -> tuple[float, float]:
    """Maximize the continuous-variable fidelity over the amplitude.

    Golden-section search on [0, 5], where the fidelity is unimodal, to a
    bracket of 1e-10 (Brent, Algorithms for Minimization without
    Derivatives, 1973).  The optimum sits at amplitude
    sqrt(ln(1 + sqrt 2)/2), about 0.664, with fidelity (1 + sqrt 2)/4, about
    0.60; the fidelity is flat to rounding within ~1e-8 of it, which bounds
    how well any search can place the amplitude.
    """
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 5.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = cv_fidelity(c), cv_fidelity(d)
    while b - a > 1e-10:
        if fc >= fd:  # the maximum lies in [a, d]
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = cv_fidelity(c)
        else:  # in [c, b]
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = cv_fidelity(d)
    x = 0.5 * (a + b)
    return x, cv_fidelity(x)
