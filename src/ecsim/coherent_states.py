"""Exact algebra of multimode superpositions of coherent states.

States are kept symbolically as weighted sums of products of coherent kets,
so inner products, linear-optical elements and amplitude damping act in
closed form.  A truncated-Fock representation is provided as an independent
numerical oracle (photon counting, cross-checks); it is never used by the
analytic code paths.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import stats

from .errors import CutoffError, ModeMismatchError

# Term consolidation: amplitudes closer than MERGE_TOL (per mode, max norm)
# are treated as the same ket; coefficients below DROP_TOL relative to the
# largest are discarded.  Both sit far below the physical scales in use
# (|amp| <= ~3), and keep term counts bounded under repeated maps.
MERGE_TOL = 1e-12
DROP_TOL = 1e-15


def _as_complex_tuple(amps: Iterable[complex]) -> tuple[complex, ...]:
    out = tuple(complex(a) for a in amps)
    for a in out:
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError(f"non-finite coherent amplitude {a!r}")
    return out


@dataclass(frozen=True)
class CoherentTerm:
    """One weighted product ket  coeff * |amps[0]> |amps[1]> ... ."""

    coeff: complex
    amps: tuple[complex, ...]


@dataclass(frozen=True)
class CoherentSuperposition:
    """A pure multimode state as a sum of coherent product kets.

    The coherent kets form a non-orthogonal basis; norms and overlaps are
    evaluated through the Gram matrix of pairwise coherent overlaps.
    """

    modes: int
    terms: tuple[CoherentTerm, ...]

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError("modes must be a positive integer")
        for term in self.terms:
            if len(term.amps) != self.modes:
                raise ValueError(
                    f"term has {len(term.amps)} amplitudes, state has {self.modes} modes"
                )

    @classmethod
    def ket(cls, *amps: complex, coeff: complex = 1.0) -> "CoherentSuperposition":
        """Single coherent product ket  coeff * |amps[0], amps[1], ...>."""
        a = _as_complex_tuple(amps)
        return cls(modes=len(a), terms=(CoherentTerm(complex(coeff), a),))

    @classmethod
    def vacuum(cls, modes: int = 1) -> "CoherentSuperposition":
        return cls.ket(*([0.0] * modes))

    def __add__(self, other: "CoherentSuperposition") -> "CoherentSuperposition":
        if self.modes != other.modes:
            raise ModeMismatchError(f"{self.modes} modes vs {other.modes} modes")
        return CoherentSuperposition(self.modes, self.terms + other.terms)

    def __sub__(self, other: "CoherentSuperposition") -> "CoherentSuperposition":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "CoherentSuperposition":
        s = complex(scalar)
        return CoherentSuperposition(
            self.modes, tuple(CoherentTerm(s * t.coeff, t.amps) for t in self.terms)
        )

    def __neg__(self) -> "CoherentSuperposition":
        return (-1.0) * self


@dataclass(frozen=True)
class DyadTerm:
    """One weighted dyad  coeff * |ket_amps><bra_amps|."""

    coeff: complex
    ket_amps: tuple[complex, ...]
    bra_amps: tuple[complex, ...]


@dataclass(frozen=True)
class CoherentOperator:
    """A (generally mixed) operator as a sum of multimode coherent dyads."""

    modes: int
    terms: tuple[DyadTerm, ...]

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError("modes must be a positive integer")
        for term in self.terms:
            if len(term.ket_amps) != self.modes or len(term.bra_amps) != self.modes:
                raise ValueError("dyad amplitude lists must match the mode count")

    def __add__(self, other: "CoherentOperator") -> "CoherentOperator":
        if self.modes != other.modes:
            raise ModeMismatchError(f"{self.modes} modes vs {other.modes} modes")
        return CoherentOperator(self.modes, self.terms + other.terms)

    def __rmul__(self, scalar: complex) -> "CoherentOperator":
        s = complex(scalar)
        return CoherentOperator(
            self.modes,
            tuple(DyadTerm(s * t.coeff, t.ket_amps, t.bra_amps) for t in self.terms),
        )


@dataclass(frozen=True)
class FockVector:
    """Truncated-Fock amplitudes of a multimode state.

    ``amps`` has shape ``(cutoff + 1,) * modes``; ``tail_bound`` is an upper
    bound on the squared norm lost to truncation.
    """

    cutoff: int
    modes: int
    amps: np.ndarray
    tail_bound: float


# ---------------------------------------------------------------------------
# overlaps and inner products


def log_overlap(beta: complex, gamma: complex) -> complex:
    """log <beta|gamma> = -|beta|^2/2 - |gamma|^2/2 + conj(beta)*gamma.

    Returned as the natural (un-wrapped) exponent, so fractional powers of
    the overlap can be formed without branch ambiguity.
    """
    beta = complex(beta)
    gamma = complex(gamma)
    return -0.5 * abs(beta) ** 2 - 0.5 * abs(gamma) ** 2 + beta.conjugate() * gamma


def overlap(beta: complex, gamma: complex) -> complex:
    """Coherent-state overlap <beta|gamma>; |result| <= 1."""
    return cmath.exp(log_overlap(beta, gamma))


def inner(a: CoherentSuperposition, b: CoherentSuperposition) -> complex:
    """Sesquilinear inner product <a|b> via the coherent Gram matrix."""
    if a.modes != b.modes:
        raise ModeMismatchError(f"{a.modes} modes vs {b.modes} modes")
    total = 0.0 + 0.0j
    for ta in a.terms:
        for tb in b.terms:
            ex = sum(log_overlap(x, y) for x, y in zip(ta.amps, tb.amps))
            total += ta.coeff.conjugate() * tb.coeff * cmath.exp(ex)
    return total


def norm(s: CoherentSuperposition) -> float:
    n2 = inner(s, s).real
    return math.sqrt(max(n2, 0.0))


def normalized(s: CoherentSuperposition) -> CoherentSuperposition:
    n = norm(s)
    if n == 0.0:
        raise ValueError("cannot normalize a zero state")
    return (1.0 / n) * s


def tensor(a: CoherentSuperposition, b: CoherentSuperposition) -> CoherentSuperposition:
    """Tensor product; modes of ``b`` are appended after those of ``a``."""
    terms = tuple(
        CoherentTerm(ta.coeff * tb.coeff, ta.amps + tb.amps)
        for ta in a.terms
        for tb in b.terms
    )
    return CoherentSuperposition(a.modes + b.modes, terms)


def consolidate(s: CoherentSuperposition) -> CoherentSuperposition:
    """Merge terms with coinciding amplitudes and drop negligible ones."""
    reps: list[tuple[complex, tuple[complex, ...]]] = []
    for term in s.terms:
        for i, (coeff, amps) in enumerate(reps):
            if all(abs(x - y) < MERGE_TOL for x, y in zip(term.amps, amps)):
                reps[i] = (coeff + term.coeff, amps)
                break
        else:
            reps.append((term.coeff, term.amps))
    if not reps:
        return s
    floor = DROP_TOL * max(abs(c) for c, _ in reps)
    kept = tuple(CoherentTerm(c, a) for c, a in reps if abs(c) > floor)
    if not kept:
        # keep a single zero-coefficient vacuum-shaped term rather than none
        kept = (CoherentTerm(0.0 + 0.0j, s.terms[0].amps),)
    return CoherentSuperposition(s.modes, kept)


# ---------------------------------------------------------------------------
# linear optics


def _check_mode(s: CoherentSuperposition, i: int) -> None:
    if not (0 <= i < s.modes):
        raise ValueError(f"mode index {i} out of range for {s.modes} modes")


def beam_split(s: CoherentSuperposition, i: int, j: int) -> CoherentSuperposition:
    """Lossless 50:50 beam splitter on modes ``i`` and ``j``.

    Convention: per term, (b_i, b_j) -> ((b_i+b_j)/sqrt2, (b_i-b_j)/sqrt2).
    Self-inverse; norms are preserved exactly.
    """
    _check_mode(s, i)
    _check_mode(s, j)
    if i == j:
        raise ValueError("beam splitter needs two distinct modes")
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    new_terms = []
    for term in s.terms:
        amps = list(term.amps)
        bi, bj = amps[i], amps[j]
        amps[i] = (bi + bj) * inv_sqrt2
        amps[j] = (bi - bj) * inv_sqrt2
        new_terms.append(CoherentTerm(term.coeff, tuple(amps)))
    return CoherentSuperposition(s.modes, tuple(new_terms))


def phase_shift(s: CoherentSuperposition, i: int, phi: float) -> CoherentSuperposition:
    """Phase shifter on mode ``i``: coherent amplitude b_i -> b_i * e^{i phi}."""
    _check_mode(s, i)
    factor = cmath.exp(1j * phi)
    new_terms = []
    for term in s.terms:
        amps = list(term.amps)
        amps[i] = amps[i] * factor
        new_terms.append(CoherentTerm(term.coeff, tuple(amps)))
    return CoherentSuperposition(s.modes, tuple(new_terms))


def project_modes(
    s: CoherentSuperposition, modes: Sequence[int], onto: CoherentSuperposition
) -> CoherentSuperposition:
    """Partial inner product <onto|_modes |s>, a state on the remaining modes.

    ``onto`` must have exactly ``len(modes)`` modes; its k-th mode is paired
    with ``modes[k]`` of ``s``.  The result is unnormalized; its squared norm
    is the probability of projecting onto ``onto`` when that state is
    normalized.
    """
    if onto.modes != len(modes):
        raise ModeMismatchError(
            f"projector has {onto.modes} modes, {len(modes)} indices given"
        )
    for m in modes:
        _check_mode(s, m)
    if len(set(modes)) != len(modes):
        raise ValueError("projection mode indices must be distinct")
    keep = [m for m in range(s.modes) if m not in set(modes)]
    if not keep:
        raise ValueError("projection must leave at least one mode")
    new_terms = []
    for ts in s.terms:
        for tp in onto.terms:
            ex = sum(
                log_overlap(tp.amps[k], ts.amps[m]) for k, m in enumerate(modes)
            )
            coeff = tp.coeff.conjugate() * ts.coeff * cmath.exp(ex)
            new_terms.append(CoherentTerm(coeff, tuple(ts.amps[m] for m in keep)))
    return consolidate(CoherentSuperposition(len(keep), tuple(new_terms)))


# ---------------------------------------------------------------------------
# dyads


def dyad_from_pure(s: CoherentSuperposition) -> CoherentOperator:
    """|s><s| as a coherent operator."""
    terms = tuple(
        DyadTerm(tk.coeff * tb.coeff.conjugate(), tk.amps, tb.amps)
        for tk in s.terms
        for tb in s.terms
    )
    return CoherentOperator(s.modes, terms)


def operator_trace(rho: CoherentOperator) -> complex:
    """tr rho;  tr |b><g| = <g|b>."""
    total = 0.0 + 0.0j
    for term in rho.terms:
        ex = sum(log_overlap(g, b) for g, b in zip(term.bra_amps, term.ket_amps))
        total += term.coeff * cmath.exp(ex)
    return total


def hermiticity_defect(rho: CoherentOperator) -> float:
    """Max coefficient mismatch between each dyad and its conjugate partner."""
    worst = 0.0
    for term in rho.terms:
        partner = 0.0 + 0.0j
        for other in rho.terms:
            if all(
                abs(x - y) < MERGE_TOL for x, y in zip(other.ket_amps, term.bra_amps)
            ) and all(
                abs(x - y) < MERGE_TOL for x, y in zip(other.bra_amps, term.ket_amps)
            ):
                partner += other.coeff
        mine = 0.0 + 0.0j
        for other in rho.terms:
            if all(
                abs(x - y) < MERGE_TOL for x, y in zip(other.ket_amps, term.ket_amps)
            ) and all(
                abs(x - y) < MERGE_TOL for x, y in zip(other.bra_amps, term.bra_amps)
            ):
                mine += other.coeff
        worst = max(worst, abs(partner.conjugate() - mine))
    return worst


# ---------------------------------------------------------------------------
# truncated-Fock oracle


def _coherent_fock_amps(beta: complex, cutoff: int) -> np.ndarray:
    """<n|beta> for n = 0..cutoff, built by stable recursion."""
    out = np.empty(cutoff + 1, dtype=complex)
    c = math.exp(-0.5 * abs(beta) ** 2)
    for n in range(cutoff + 1):
        out[n] = c
        c = c * beta / math.sqrt(n + 1)
    return out


def auto_cutoff(s: CoherentSuperposition) -> int:
    """Cutoff heuristic 2m + 10 sqrt(m) + 20 with m the max per-mode |b|^2.

    Keeps the truncation tail below ~1e-12 for |b| <= 3.
    """
    m = 0.0
    for term in s.terms:
        for a in term.amps:
            m = max(m, abs(a) ** 2)
    return math.ceil(2.0 * m + 10.0 * math.sqrt(m) + 20.0)


def truncation_tail_bound(s: CoherentSuperposition, cutoff: int) -> float:
    """Upper bound on the squared norm beyond the cutoff.

    Per ket, the per-mode photon distribution is Poisson(|b|^2); the lost
    norm of the product ket is bounded by the summed per-mode tails.  The
    triangle inequality then bounds the superposition's loss.
    """
    total = 0.0
    for term in s.terms:
        tail = 0.0
        for a in term.amps:
            lam = abs(a) ** 2
            tail += float(stats.poisson.sf(cutoff, lam)) if lam > 0 else 0.0
        total += abs(term.coeff) * math.sqrt(tail)
    return total * total


def to_fock(
    s: CoherentSuperposition, cutoff: int | None = None, tail_tol: float | None = None
) -> FockVector:
    """Truncated-Fock representation of ``s``.

    Raises CutoffError when ``tail_tol`` is given and the recorded tail bound
    exceeds it; truncation is never silent beyond the recorded bound.
    """
    if cutoff is None:
        cutoff = auto_cutoff(s)
    if cutoff < 1:
        raise CutoffError("cutoff must be >= 1")
    tail = truncation_tail_bound(s, cutoff)
    if tail_tol is not None and tail > tail_tol:
        raise CutoffError(
            f"cutoff {cutoff} leaves tail bound {tail:.3e} > requested {tail_tol:.3e}"
        )
    shape = (cutoff + 1,) * s.modes
    amps = np.zeros(shape, dtype=complex)
    for term in s.terms:
        vec = _coherent_fock_amps(term.amps[0], cutoff)
        for a in term.amps[1:]:
            vec = np.multiply.outer(vec, _coherent_fock_amps(a, cutoff))
        amps += term.coeff * vec
    return FockVector(cutoff=cutoff, modes=s.modes, amps=amps, tail_bound=tail)


def fock_inner(a: FockVector, b: FockVector) -> complex:
    if a.modes != b.modes or a.cutoff != b.cutoff:
        raise ModeMismatchError("fock vectors must share modes and cutoff")
    return complex(np.vdot(a.amps, b.amps))


@dataclass(frozen=True)
class PhotonDistribution:
    """Joint photon-count probabilities P(n_0, ..., n_{M-1})."""

    cutoff: int
    modes: int
    probs: np.ndarray
    tail_bound: float


def photon_distribution(
    s: CoherentSuperposition, cutoff: int | None = None, tail_tol: float | None = None
) -> PhotonDistribution:
    """Photon counting statistics of a (normalized) state; ``tail_tol`` as in
    ``to_fock``."""
    fv = to_fock(s, cutoff, tail_tol)
    return PhotonDistribution(
        cutoff=fv.cutoff,
        modes=fv.modes,
        probs=np.abs(fv.amps) ** 2,
        tail_bound=fv.tail_bound,
    )
