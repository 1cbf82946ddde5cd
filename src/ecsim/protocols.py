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
    normalized_by,
    photon_distribution,
    project_modes,
    tensor,
)
from .qubit_encoding import (
    BELL_VECTORS,
    PAULI_BASIS,
    PAULIS,
    LogicalBasis,
    TwoQubitDensity,
    _amplitudes,
    bell_state,
    float_or_array,
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

    Applies the 50:50 beam splitter to the two modes and counts photons in both
    outputs; each count pair is classified by ``classify_counts``.  It matches its
    reference bit for bit, a double loop over the Fock grid's non-zero cells, and
    keeps the truncation's tail bound.  Equal counts give the same frozen
    ``BellOutcome`` object, from a cache of the last ``BELL_RECORDS_CACHED`` pairs.
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
    at large amplitude.  ``alpha`` is one amplitude, not a batch.  Refuses the
    amplitudes that ``make_basis`` refuses.
    """
    _amplitudes(alpha)
    x = math.exp(-4.0 * (alpha * alpha))
    return 0.5 * x / (1.0 + x)


# ---------------------------------------------------------------------------
# teleportation over a logical channel

# Outcome -> correction: B1 -> i sigma_y, B2 -> sigma_x, B3 -> -sigma_z, B4 -> identity.
CORRECTIONS = np.stack((1j * PAULIS[1], PAULIS[0], -PAULIS[2], np.eye(2, dtype=complex)))
# Average fidelity = _FIDELITY_WEIGHTS . sum_k Q[k, m, m]: E[b_m b_n] =
# (1, 1/3, 1/3, 1/3)_m delta_mn for inputs b = (1, n) uniform on the sphere.
# A (1, 4) row, so that the product with the diagonal is a fixed-shape matmul.
_FIDELITY_WEIGHTS = np.array([[1.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]])
# Shots per block in teleport_average_mc; bounds its working memory.  18 work rows of
# 8192 shots (~1.5 MB) fit a 2 MB L2 and halve the blocks of 4096; 16384 was no faster.
MC_CHUNK = 8192


def bell_outcome_map(m: np.ndarray) -> np.ndarray:
    """Bell-outcome superoperator Lambda[..., k, a, A, i, l], shape (..., 4, 2, 2, 2, 2).

    sum_{a,A} x[a, A] Lambda[k, a, A] is Bob's corrected, unnormalized state
    U_k <B_k|(x (x) rho)|B_k> U_k^dag for an input operator x and outcome k
    (B1..B4, U_k = ``CORRECTIONS[k]``).  For an input projector its trace is
    the outcome probability.  ``m`` is a channel matrix, shape (..., 4, 4):
    each entry has the bits of its own scalar call.
    """
    bell = BELL_VECTORS.reshape(4, 2, 2)
    return np.einsum("kab,...bcBC,kAB,kic,klC->...kaAil", bell.conj(),
                     m.reshape(m.shape[:-2] + (2, 2, 2, 2)), bell, CORRECTIONS, CORRECTIONS.conj())


# Q[k, m, n] = tr(s_m Lambda_k(s_n)) / 4 is linear in rho: it is Re(K @ vec rho)
# [16 k + 4 m + n], column x of K from the x-th matrix unit.  Held as the float
# view of conj K, (Re K, -Im K) interleaved, to contract with that of vec rho.
_TRANSFER_KERNEL = (np.einsum("mli,xkaAil,naA->kmnx", PAULI_BASIS, bell_outcome_map(
    np.eye(16).reshape(16, 4, 4)), PAULI_BASIS).reshape(64, 16) / 4.0).conj().view(np.float64)


def bloch_transfer(channel: TwoQubitDensity) -> np.ndarray:
    """The Bell-outcome map in Bloch coordinates, Q[..., k, m, n] (real).

    An input projector is (1/2) sum_n b_n s_n with b = (1, Bloch vector), so
    outcome k has probability 2 Q[k, 0] . b and fidelity numerator b . Q[k] . b.
    One fixed contraction over any leading axes: each entry has the bits of its own scalar call.
    """
    m = channel.matrix
    kernel = _TRANSFER_KERNEL if np.iscomplexobj(m) else _TRANSFER_KERNEL[:, ::2]  # Re K: real m
    q = np.einsum("xj,...j->...x", kernel, m.reshape(m.shape[:-2] + (16,)).view(np.float64))
    return q.reshape(m.shape[:-2] + (4, 4, 4))


def teleport_average_mc(q: np.ndarray, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo average fidelity of the standard scheme: (mean, stderr).

    Inputs are drawn uniformly from the logical Bloch sphere and one outcome is sampled
    per shot from its Born probability, through the channel's Bell-outcome map in Bloch
    coordinates: ``q`` is the ``bloch_transfer`` Q of one density, shape (4, 4, 4).  The
    shots run in blocks of ``MC_CHUNK``, each drawing its slice of the seed's stream
    when it runs (z at draws [0, S), phases at [S, 2S), outcome draws at [2S, 3S),
    S = ``samples``; PCG64 jumps ahead), so only the fidelities grow with S, no bit
    depends on the block size, and it matches its reference bit for bit, a shot-major kernel.
    Only a block after the first resets the generator to its start state, so a call of
    one block neither resets nor jumps: it draws the three segments in stream order.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if q.shape != (4, 4, 4):
        raise ValueError("the Monte Carlo takes one Bloch transfer of shape (4, 4, 4), "
                         f"not {q.shape}")
    rng = np.random.default_rng(seed)
    origin = rng.bit_generator.state
    qt = q.transpose(2, 1, 0)  # [n, m, k]: Q[k, m, n]
    prob_rows = 2.0 * qt[:, 0, :, None]  # [n, k]: 2 Q[k, 0, n]
    # [n, m - 1, k]: Q[k, m, n] for m = 1..3.  The m = 0 numerator row,
    # sum_n Q[k, 0, n] b_n, is half the probability of k bit for bit: the
    # probability sums the same products of 2 Q, and doubling is exact (a
    # subnormal product can round apart, which can show only in the sum of an
    # outcome of vanishing probability; the tests pin amplitudes near underflow).
    q_cols = np.ascontiguousarray(qt[:, 1:])
    fids = np.empty(samples)
    # one block's work arrays, shot axis innermost; a short last block packs its rows
    # into a prefix, so that every row it reads or writes is contiguous
    width = min(samples, MC_CHUNK)
    work, index = np.empty(18 * width), np.empty((2, width), dtype=np.intp)
    hits, shot = np.empty(width, dtype=bool), np.arange(width)
    for start in range(0, samples, MC_CHUNK):
        fb = fids[start:start + MC_CHUNK]
        n = len(fb)
        w, hit = work[:18 * n].reshape(18, n), hits[:n]
        probs, b, tmp, qn, rows, pk = w[:4], w[4:7], w[7:11], w[11:14], w[14:17], w[17]
        ks, at = index[:, :n]  # outcomes, and where probs[ks, i] sits in work
        # each draw fills a row that is free until it is read, from the block's slice
        # of its segment; z and the phase are rng.uniform's low + (high - low) d, one
        # rounding each, fused or not (2 d is exact); u * total is uniform(0, total)
        zb, phb, ub = b[2], tmp[3], pk
        if start:
            rng.bit_generator.state = origin
        for skip, row in ((start, zb), (samples - n, phb), (samples - n, ub)):
            if skip:
                rng.bit_generator.advance(skip)
            rng.random(out=row)
        zb *= 2.0
        zb -= 1.0
        phb *= 2.0 * math.pi
        # b = (b1, b2, b3) = (s cos ph, s sin ph, z) with s = sqrt((1 - z)(1 + z)); b0 = 1
        np.subtract(1.0, zb, out=tmp[0])
        np.add(1.0, zb, out=tmp[1])
        s = np.multiply(tmp[0], tmp[1], out=tmp[2])
        np.sqrt(s, out=s)
        # libm's cos and sin branch on the argument's size; over phases in runs of
        # one size (int8(8 ph) bins, stable radix argsort, rows free until read) they
        # mispredict less, and each result is still a function of its own phase
        key = np.multiply(phb, 8.0, out=hit.view(np.int8), casting="unsafe")
        order = np.argsort(key, kind="stable")
        np.take(phb, order, out=probs[0])
        np.cos(probs[0], out=probs[1])
        np.sin(probs[0], out=probs[2])
        b[0][order], b[1][order] = probs[1], probs[2]
        b[:2] *= s
        # probabilities (4, shots): sum_n 2 Q[k, 0, n] b_n in the order n = 0, 1, 2, 3
        np.multiply(prob_rows[1], b[0], out=probs)
        probs += prob_rows[0]
        probs += np.multiply(prob_rows[2], b[1], out=tmp)
        probs += np.multiply(prob_rows[3], b[2], out=tmp)
        # outcome: the number of cumulative sums below u * total
        cum1 = np.add(probs[0], probs[1], out=tmp[0])
        cum2 = np.add(cum1, probs[2], out=tmp[1])
        draw = np.add(cum2, probs[3], out=tmp[2])
        draw *= ub
        np.greater(draw, probs[0], out=ks)
        ks += np.greater(draw, cum1, out=hit)
        ks += np.greater(draw, cum2, out=hit)
        # gathers by outcome; ks is in 0..3, so "clip" never clips (and unlike
        # "raise", does not copy through a buffer)
        np.multiply(ks, n, out=at)
        at += shot[:n]
        np.take(work, at, out=pk, mode="clip")
        # numerator rows m = 1..3: sum_n Q[k, m, n] b_n in the order n = 0, 1, 2, 3
        np.multiply(np.take(q_cols[1], ks, axis=1, out=qn, mode="clip"), b[0], out=rows)
        rows += np.take(q_cols[0], ks, axis=1, out=qn, mode="clip")
        rows += np.multiply(np.take(q_cols[2], ks, axis=1, out=qn, mode="clip"), b[1], out=qn)
        rows += np.multiply(np.take(q_cols[3], ks, axis=1, out=qn, mode="clip"), b[2], out=qn)
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
    array over the batch otherwise: each entry has the bits of its own scalar
    call.
    """
    diag = np.einsum("...kmm->...m", q)
    return float_or_array((_FIDELITY_WEIGHTS @ diag[..., None])[..., 0, 0])


# ---------------------------------------------------------------------------
# concentration by entanglement swapping
#
# Wiring: the channel occupies modes (b, c) and the auxiliary pair, prepared
# in the same state, modes (b', b''); the Bell measurement acts on (b'', b)
# and the concentrated pair is reported on (b', c).  Mode order of the
# four-mode tensors is (b', b'', b, c).


def _check_eta(eta) -> None:
    """The one rule on the concentration angle: every eta in (0, pi/2), which NaN fails."""
    if not np.logical_and(0.0 < eta, eta < math.pi / 2.0).all():
        raise ValueError("eta must lie in (0, pi/2)")


def concentrate_ideal(eta: float | np.ndarray) -> np.ndarray:
    """Swap two copies of  cos(eta) |+-> - sin(eta) |-+>  (logical qubits).

    Explicit four-qubit construction: the two pairs' product, projected on the
    four Bell vectors of the measured qubits in one contraction.  Returns the
    outcome probabilities of B1..B4, shape ``eta.shape + (4,)``; each entry has
    the bits of its own scalar call.  B1 and B2 occur with probability
    cos^2(eta) sin^2(eta) each and leave a maximally entangled pair.
    """
    eta = np.asarray(eta, dtype=float)
    _check_eta(eta)
    pair = np.zeros(eta.shape + (4,))
    pair[..., 1], pair[..., 2] = np.cos(eta), -np.sin(eta)
    psi = (pair[..., :, None] * pair[..., None, :]).reshape(eta.shape + (2, 2, 2, 2))
    chi = np.einsum("kab,...iabj->...kij", BELL_VECTORS.reshape(4, 2, 2), psi)
    return np.einsum("...kij,...kij->...k", chi, chi)


def partial_pair_state(basis: LogicalBasis, eta: float) -> CoherentSuperposition:
    """Normalized partially entangled pair cos(eta)|a,-a> - sin(eta)|-a,a> at
    the amplitude a of ``basis``, built by ``make_basis``, which guards it."""
    _check_eta(eta)
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
    state = normalized_by(chi, math.sqrt(max(p, 0.0)))
    return ExactConcentration(success_probability=float(p), state=state)


def concentration_success_closed_form(alpha, eta) -> float | np.ndarray:
    """Closed-form success probability of the B2-outcome swap.

    Equals cos^4(2 th) sin^2(2 eta) / (4 (1 - sin^2(2 th) sin(2 eta))^2):
    the numerator from the two Bell projections, one normalization factor
    1 - sin^2(2 th) sin(2 eta) per input pair.  That factor is evaluated as
    N_theta + sin^2(2 th) cos^2(2 eta) / (1 + sin(2 eta)), which does not
    cancel near eta = pi/4: within 8 eps relative of the stated form, and 1/4
    at eta = fl(pi/4).  ``alpha`` broadcasts against ``eta``, and each entry
    has the bits of its own scalar call.  Refuses what ``make_basis`` and
    ``concentrate_ideal`` refuse.  Verified against the explicit swap and an
    independent truncated-Fock computation.
    """
    basis = make_basis(alpha, 1.0)
    _check_eta(eta)
    s, c, u = np.sin(2.0 * eta), np.cos(2.0 * eta), basis.sin2theta
    # products, not ** 2: a numpy scalar's square is libm's pow, which can round apart
    y = 1.0 + (u * u) * (c * c) / ((1.0 + s) * basis.n_theta)
    return float_or_array(s * s / (4.0 * (y * y)))


# ---------------------------------------------------------------------------
# continuous-variable teleportation fidelity


@np.errstate(over="ignore")  # x^2 = inf past |x| ~ 1.3e154, where f is 1/2 at e^{-2 x^2} = 0
def cv_fidelity(alpha_r: float | np.ndarray) -> float | np.ndarray:
    """Fidelity for teleporting an unknown coherent state over the channel.

    f = (1 + e^{-2 x^2}) / (2 (1 + e^{-4 x^2})) with x the real part of the
    channel amplitude; independent of the teleported amplitude.  An array gives
    an array, and each entry has the bits of its own scalar call; a float
    gives a float.
    """
    x2 = np.multiply(alpha_r, alpha_r)
    return float_or_array((1.0 + np.exp(-2.0 * x2)) / (2.0 * (1.0 + np.exp(-4.0 * x2))))


def cv_max() -> tuple[float, float]:
    """The continuous-variable fidelity's maximum over the amplitude, (x*, f*).

    With y = e^{-2 x^2}, f = (1 + y) / (2 (1 + y^2)) peaks at y = sqrt 2 - 1,
    the root of y^2 + 2 y - 1: x* = sqrt(ln(1 + sqrt 2)/2), about 0.664, and
    f* = (1 + sqrt 2)/4, about 0.604.
    """
    return math.sqrt(math.log(1.0 + math.sqrt(2.0)) / 2.0), (1.0 + math.sqrt(2.0)) / 4.0
