"""Exact algebra of multimode superpositions of coherent states.

A pure state  sum_t c_t |b_t0> |b_t1> ...  is a ``CoherentSuperposition``
of two read-only arrays: ``coeffs`` of shape (T,) and ``amps`` of shape
(T, M), one row of coherent amplitudes per term.  An operator
sum_t c_t |k_t><g_t|  is a ``CoherentOperator`` of ``coeffs`` (T, *batch),
``kets`` and ``bras`` (T, M, *batch); optional trailing batch axes carry a
parameter grid, one operator per entry.  Each type is built from its arrays
alone; ``CoherentSuperposition.ket``, ``+`` and scalar ``*`` compose states,
and operators are composed by their callers' array operations.

Every operation acts on whole arrays.  Inner products, partial projections
and traces exponentiate sums of ``log_overlap`` built by broadcasting, so
the non-orthogonal coherent kets are handled in closed form; linear optics
rewrites amplitude columns.

A truncated-Fock representation is provided as an independent numerical
oracle (photon counting, cross-checks); it is never used by the analytic
code paths.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CutoffError, ModeMismatchError, ZeroNormError

# Term consolidation discards coefficients below DROP_TOL relative to the
# largest, far below the physical scales in use, which keeps term counts
# bounded under repeated maps.
DROP_TOL = 1e-15
# Largest Fock grid, (cutoff + 1) ** modes amplitudes, and largest working
# array, (cutoff + 1) ** max(modes - 1, 1) per term, that to_fock builds
# (256 MiB of complex amplitudes); a larger request raises CutoffError.
FOCK_CELL_BUDGET = 2**24
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# poisson_tail_bound's relative slack in eps (k + 1 + |log P|): twice the unscaled
# bound's largest shortfall below the exact tail, 0.96 at cutoffs 0..300 (0.57 to 3e5).
TAIL_SLACK = 2.0


@dataclass(frozen=True, eq=False)
class CoherentSuperposition:
    """A pure multimode state as a sum of coherent product kets.

    ``coeffs`` (T,) and ``amps`` (T, M), M >= 1, are complex arrays, taken
    over without a copy and made read-only.  The coherent kets form a
    non-orthogonal basis; norms and overlaps are evaluated through the Gram
    matrix of pairwise coherent overlaps.  Only ``ket`` refuses non-finite
    values; the constructor checks shapes and takes the values as given.

    A private memo, a dict made with the state, holds the arrays derived from
    ``amps`` alone, each computed on first use: the mode-major amplitudes and
    their conjugates with the halves +-|amp|^2/2 of ``log_overlap`` (for
    ``inner``), |amp|^2, and the per-term roots of the Poisson tail upper
    bounds at each cutoff (for ``to_fock``), none larger than T x M.  It
    relies on ``amps`` staying read-only.  A scalar multiple keeps ``amps``,
    and so shares the memo; two threads that fill one entry at once store
    equal arrays.
    """

    coeffs: np.ndarray
    amps: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        coeffs, amps = self.coeffs, self.amps
        if amps.ndim != 2 or amps.shape[1] < 1:
            raise ValueError(
                f"amplitudes of shape {amps.shape} are not (terms, modes >= 1)"
            )
        if coeffs.shape != amps.shape[:1]:
            raise ValueError(
                f"{len(amps)} amplitude rows for coefficients of shape {coeffs.shape}"
            )
        for a in (coeffs, amps):
            a.setflags(write=False)

    @property
    def modes(self) -> int:
        return self.amps.shape[1]

    @classmethod
    def ket(cls, *amps: complex, coeff: complex = 1.0) -> "CoherentSuperposition":
        """Single coherent product ket  coeff * |amps[0], amps[1], ...>."""
        coeffs, rows = np.array([coeff], dtype=complex), np.array([amps], dtype=complex)
        if not (np.isfinite(coeffs).all() and np.isfinite(rows).all()):
            raise ValueError(f"non-finite coefficient {coeff!r} or amplitudes {amps!r}")
        return cls(coeffs, rows)

    def __add__(self, other: "CoherentSuperposition") -> "CoherentSuperposition":
        if self.modes != other.modes:
            raise ModeMismatchError(f"{self.modes} modes vs {other.modes} modes")
        return CoherentSuperposition(
            np.concatenate((self.coeffs, other.coeffs)),
            np.concatenate((self.amps, other.amps)),
        )

    def __rmul__(self, scalar: complex) -> "CoherentSuperposition":
        out = CoherentSuperposition(complex(scalar) * self.coeffs, self.amps)
        object.__setattr__(out, "_memo", self._memo)  # same amps, same derived arrays
        return out


@dataclass(frozen=True, eq=False)
class CoherentOperator:
    """A (generally mixed) operator as a sum of multimode coherent dyads.

    ``coeffs`` (T, *batch), ``kets`` and ``bras`` (T, M, *batch), M >= 1, are
    complex (or all real) arrays, taken over without a copy and made read-only;
    the optional trailing batch axes carry one operator per entry.  The type
    has no arithmetic: a sum of operators is the concatenation of their three
    arrays along the term axis, and a scalar multiple scales ``coeffs``.
    Like ``CoherentSuperposition``'s, the constructor checks shapes only and
    takes the values as given, finite or not.
    """

    coeffs: np.ndarray
    kets: np.ndarray
    bras: np.ndarray

    def __post_init__(self):
        coeffs, kets, bras = self.coeffs, self.kets, self.bras
        if kets.ndim < 2 or kets.shape[1] < 1:
            raise ValueError(
                f"kets of shape {kets.shape} are not (terms, modes >= 1, *batch)"
            )
        shape = coeffs.shape[:1] + kets.shape[1:2] + coeffs.shape[1:]
        if kets.shape != shape or bras.shape != shape:
            raise ValueError(
                f"kets {kets.shape} and bras {bras.shape} do not match "
                f"coefficients {coeffs.shape} as (terms, modes, *batch)"
            )
        for a in (coeffs, kets, bras):
            a.setflags(write=False)

    @property
    def modes(self) -> int:
        return self.kets.shape[1]


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

    @property
    def probs(self) -> np.ndarray:
        """Joint photon-count probabilities P(n_0, ..., n_{M-1})."""
        return np.abs(self.amps) ** 2


# ---------------------------------------------------------------------------
# overlaps and inner products


def log_overlap(beta, gamma):
    """log <beta|gamma> = -|beta|^2/2 - |gamma|^2/2 + conj(beta)*gamma.

    Element-wise over broadcast arrays: summed over a mode axis it is the
    log-overlap of two product kets, and with the term axes of a bra and a
    ket set apart it is the log-Gram matrix.  Returned as the natural
    (un-wrapped) exponent, so fractional powers of the overlap can be formed
    without branch ambiguity.
    """
    return -0.5 * np.abs(beta) ** 2 - 0.5 * np.abs(gamma) ** 2 + np.conj(beta) * gamma


def inner(a: CoherentSuperposition, b: CoherentSuperposition) -> complex:
    """Sesquilinear inner product <a|b> = c_a^dag exp(L) c_b, with L the
    log-Gram matrix of the two term sets.  Each state's side of L comes from
    its memo; L is summed as ``log_overlap`` sums it."""
    # written out in full (no property, no helper call): inner is the hottest
    # call, mostly on fresh states
    if a.amps.shape[1] != b.amps.shape[1]:
        raise ModeMismatchError(f"{a.modes} modes vs {b.modes} modes")
    memo = a._memo
    bra = memo.get("bra")
    if bra is None:  # conj(b) and -|b|^2/2 of the mode-major amplitudes, (M, T, 1)
        amps = np.ascontiguousarray(a.amps.T)
        abs2 = np.square(np.abs(amps))
        bra = memo["bra"] = (np.conj(amps[:, :, None]), -0.5 * abs2[:, :, None])
        if b is a:  # <a|a>: the ket side from the same amplitudes and |amp|^2
            memo["ket"] = (amps[:, None, :], 0.5 * abs2[:, None, :])
    memo = b._memo
    ket = memo.get("ket")
    if ket is None:  # g and |g|^2/2 of the mode-major amplitudes, (M, 1, T)
        kets = np.ascontiguousarray(b.amps.T)[:, None, :]
        ket = memo["ket"] = (kets, 0.5 * np.square(np.abs(kets)))
    # log_overlap's (-|b|^2/2 - |g|^2/2) + conj(b) g, added in place: the sum
    # commutes exactly
    exps = bra[0] * ket[0]
    exps += bra[1] - ket[1]
    gram = np.exp(np.add.reduce(exps, 0))
    return complex(a.coeffs.conj() @ gram @ b.coeffs)


def norm(s: CoherentSuperposition) -> float:
    n2 = inner(s, s).real
    return math.sqrt(max(n2, 0.0))


def normalized(s: CoherentSuperposition) -> CoherentSuperposition:
    n = norm(s)
    if n == 0.0:
        raise ZeroNormError("cannot normalize a zero state")
    return (1.0 / n) * s


def tensor(a: CoherentSuperposition, b: CoherentSuperposition) -> CoherentSuperposition:
    """Tensor product; modes of ``b`` are appended after those of ``a``.

    Terms run over the pairs (a-term, b-term), a-term major.
    """
    amps = np.empty((len(a.coeffs), len(b.coeffs), a.modes + b.modes), dtype=complex)
    amps[:, :, : a.modes] = a.amps[:, None, :]
    amps[:, :, a.modes :] = b.amps[None, :, :]
    return CoherentSuperposition(
        np.multiply.outer(a.coeffs, b.coeffs).ravel(), amps.reshape(-1, a.modes + b.modes)
    )


def consolidate(s: CoherentSuperposition) -> CoherentSuperposition:
    """Merge terms with equal amplitudes and drop negligible ones.

    A term whose amplitude row equals, in value, that of an earlier term adds its
    coefficient to the first such term: that term's own coefficient comes first,
    then the others' in term order.  Merged terms keep first-occurrence order, and
    those with |coeff| <= DROP_TOL times the largest are dropped (if all are, one
    zero-coefficient term on the first amplitudes is kept).  It matches its
    reference bit for bit, that merge made term by term in Python's complex sums.
    """
    n = len(s.coeffs)
    if n == 0:
        return s
    # rows are matched by a keyed lookup on their bytes (adding 0.0 turns -0.0
    # into 0.0, so rows equal in value have equal bytes), in one pass in term
    # order: a row's first occurrence opens its sum, each repeat adds to it
    amps = np.add(s.amps, 0.0, order="C")
    keys = amps.view(f"V{amps.itemsize * amps.shape[1]}").ravel().tolist()
    sums, leaders = {}, {}  # per distinct row: its coefficient sum, its first term
    for k, key, c in zip(range(n), keys, s.coeffs.tolist()):
        if key in sums:
            sums[key] += c
        else:
            sums[key], leaders[key] = c, k
    coeffs = np.fromiter(sums.values(), s.coeffs.dtype, len(sums))
    size = np.abs(coeffs)
    kept = size > DROP_TOL * size.max()
    if not kept.any():
        return CoherentSuperposition(np.zeros(1, dtype=complex), s.amps[:1])
    rows = s.amps[np.fromiter(leaders.values(), np.intp, len(leaders))]
    return CoherentSuperposition(coeffs[kept], rows[kept])


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
    bi, bj = s.amps[:, i], s.amps[:, j]
    amps = s.amps.copy()
    np.multiply(bi + bj, inv_sqrt2, out=amps[:, i])
    np.multiply(bi - bj, inv_sqrt2, out=amps[:, j])
    return CoherentSuperposition(s.coeffs, amps)


def phase_shift(s: CoherentSuperposition, i: int, phi: float) -> CoherentSuperposition:
    """Phase shifter on mode ``i``: coherent amplitude b_i -> b_i * e^{i phi}."""
    _check_mode(s, i)
    amps = s.amps.copy()
    amps[:, i] *= cmath.exp(1j * phi)
    return CoherentSuperposition(s.coeffs, amps)


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
    keep = [m for m in range(s.modes) if m not in modes]
    if not keep:
        raise ValueError("projection must leave at least one mode")
    # (onto term, s term) log-overlaps on the projected modes, from contiguous
    # mode-major (M, T) copies, so that the work runs along the terms
    bras, kets = np.ascontiguousarray(onto.amps.T), np.ascontiguousarray(s.amps[:, list(modes)].T)
    exps = np.add.reduce(log_overlap(bras[:, :, None], kets[:, None, :]), 0)
    coeffs = onto.coeffs.conj()[:, None] * s.coeffs[None, :] * np.exp(exps)
    amps = s.amps[:, keep].repeat(len(onto.coeffs), 0)
    return consolidate(CoherentSuperposition(coeffs.T.ravel(), amps))


# ---------------------------------------------------------------------------
# dyads


def dyad_from_pure(s: CoherentSuperposition) -> CoherentOperator:
    """|s><s| as a coherent operator (ket term major)."""
    n = len(s.coeffs)
    return CoherentOperator(
        np.multiply.outer(s.coeffs, s.coeffs.conj()).ravel(),
        s.amps.repeat(n, axis=0),
        s.amps[None].repeat(n, axis=0).reshape(n * n, s.modes),
    )


def operator_trace(rho: CoherentOperator) -> complex:
    """tr rho;  tr |b><g| = <g|b>."""
    return complex((rho.coeffs * np.exp(log_overlap(rho.bras, rho.kets).sum(axis=1))).sum(axis=0))


# ---------------------------------------------------------------------------
# truncated-Fock oracle


def _abs2(s: CoherentSuperposition) -> np.ndarray:
    """|amps|^2, shape (T, M), from the state's memo."""
    memo = s._memo
    abs2 = memo.get("abs2")
    if abs2 is None:
        abs2 = memo["abs2"] = np.square(np.abs(s.amps))
    return abs2


def auto_cutoff(s: CoherentSuperposition) -> int:
    """Cutoff heuristic 2m + 10 sqrt(m) + 20 with m the max per-mode |b|^2.

    Keeps the upper bound on the truncation loss below ~1e-12 for |b| <= 3.
    """
    m = float(_abs2(s).max(initial=0.0))
    return math.ceil(2.0 * m + 10.0 * math.sqrt(m) + 20.0)


def _poisson_pmf(k: int, m: np.ndarray) -> np.ndarray:
    """P(N = k) for N ~ Poisson(m), element-wise over means m >= 0.

    Taken in the saddle-point form
    exp(k log(m/k) - (m - k)) / (sqrt(2 pi k) e^delta(k)), with
    delta(k) = log k! - log(Stirling's k!) from its series above k = 15: the
    exponent's rounding error is then ~eps (k + |log P|), where
    k log m - m - log k! would carry eps log k!.
    """
    if k == 0:
        return np.exp(-m)
    if k > 15:
        r = 1.0 / (k * k)
        delta = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / k
    else:
        delta = math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _LOG_SQRT_2PI
    with np.errstate(divide="ignore"):  # log 0 = -inf: P(N = k) = 0 at m = 0
        log_ratio = np.log(m / k)
    # m - k is exact for m within a factor of 2 of k, where the terms cancel most
    return np.exp(k * log_ratio - (m - k) - (_LOG_SQRT_2PI + 0.5 * math.log(k) + delta))


def poisson_tail_bound(cutoff: int, m: np.ndarray) -> np.ndarray:
    """Upper bound on P(N > k), k = cutoff, N ~ Poisson(m), for means m >= 0.

    For m < k + 2 it is P(N = k + 1) (k + 2)/(k + 2 - m), since every ratio
    of successive terms beyond k + 1 is at most m/(k + 2); it is 1 elsewhere
    and clipped to 1.  ``_poisson_pmf`` rounds P = P(N = k + 1) to within
    ~eps (k + 1 + |log P|), and |log P| < 745 for any non-zero double, so the
    bound is scaled by 1 + TAIL_SLACK eps (k + 746); a non-zero bound also
    gains one subnormal spacing, the pmf's rounding below the normal range.
    Where k >= ``auto_cutoff`` it exceeds the exact tail by less than 0.07%.
    An array ``m`` gives an array: each entry has the bits of its own scalar call.
    """
    mean = np.minimum(m, cutoff + 2.0)
    p = _poisson_pmf(cutoff + 1, mean)
    scale = (cutoff + 2) * (1.0 + TAIL_SLACK * sys.float_info.epsilon * (cutoff + 746))
    with np.errstate(divide="ignore"):  # x/0 = inf at mean = cutoff + 2, clipped to 1
        bound = p * (scale / (cutoff + 2 - mean))
    return np.minimum(bound + np.minimum(bound, math.ulp(0.0)), 1.0)


def truncation_tail_bound(s: CoherentSuperposition, cutoff: int) -> float:
    """Upper bound on the squared norm beyond the cutoff.

    Per ket, the per-mode photon distribution is Poisson(|b|^2), whose mass
    above the cutoff is at most ``poisson_tail_bound``; the lost norm of the
    product ket is at most the sum of those per-mode upper bounds.  The
    triangle inequality then bounds the superposition's loss.  The per-term
    roots of those sums are kept in the state's memo, one array per cutoff.
    """
    memo = s._memo
    roots = memo.get(("root_tails", cutoff))  # per term
    if roots is None:
        roots = memo["root_tails", cutoff] = np.sqrt(
            np.add.reduce(poisson_tail_bound(cutoff, _abs2(s)), 1))
    total = float(np.abs(s.coeffs) @ roots)
    return total * total


def to_fock(s: CoherentSuperposition, cutoff: int | None = None) -> FockVector:
    """Truncated-Fock representation of ``s``.

    Raises CutoffError, before allocating, when the grid or the working arrays (per
    term, cutoff+1 amplitudes a mode and (cutoff+1)^(modes-1) in the outer product)
    would hold more than FOCK_CELL_BUDGET amplitudes, and when a vacuum amplitude
    e^{-|amp|^2/2} falls below the normal range (|amp| > ~37.6).  Truncation is never
    silent: the record holds an upper bound on the norm lost beyond it,
    ``truncation_tail_bound``.  |amp|^2 and the per-term roots of the tail upper
    bounds come from the state's memo; the row 1/sqrt(1..cutoff) and the table are
    built anew on every call.  It matches its reference bit for bit, zero signs too:
    the stable recursion <n+1|b> = <n|b> b / sqrt(n+1) by numpy's complex quotient.
    """
    if cutoff is None:
        cutoff = auto_cutoff(s)
    if cutoff < 1:
        raise CutoffError("cutoff must be >= 1")
    cells = max((cutoff + 1) ** s.modes, len(s.coeffs) * (cutoff + 1) ** max(s.modes - 1, 1))
    if cells > FOCK_CELL_BUDGET:
        raise CutoffError(
            f"cutoff {cutoff} on {s.modes} modes and {len(s.coeffs)} terms needs "
            f"{cells} Fock amplitudes, more than the budget of {FOCK_CELL_BUDGET}"
        )
    # <0|b> per amplitude; below the normal range the row n = 0..cutoff
    # built on it loses precision, then vanishes
    vacuum = np.exp(-0.5 * _abs2(s))
    if vacuum.min(initial=1.0) < sys.float_info.min:
        raise CutoffError(
            f"|amp| = {np.abs(s.amps).max():.4g}: the Fock vacuum amplitude "
            "e^(-|amp|^2/2) underflows past |amp| ~ 37.6"
        )
    # <n|b> for n = 0..cutoff per amplitude, shape (T, M, cutoff + 1), as a cumulative
    # product; numpy's quotient b / sqrt(n+1) is the parts of b (1 - 0j) times 1/sqrt(n+1)
    table = np.empty(s.amps.shape + (cutoff + 1,), dtype=complex)
    table[..., 0] = vacuum
    parts, step = s.amps * complex(1.0, -0.0), table[..., 1:]
    inv_roots = 1.0 / np.sqrt(np.arange(1, cutoff + 1))
    np.multiply(parts.real[..., None], inv_roots, out=step.real)
    np.multiply(parts.imag[..., None], inv_roots, out=step.imag)
    np.multiply.accumulate(table, axis=-1, out=table)
    # sum_t c_t table[t, 0] (x) ... (x) table[t, M-1]: the coefficient rides on
    # mode 0, modes 1.. form a row-wise outer product, and one matrix product
    # sums the terms.
    rest = np.ones((len(s.coeffs), 1), dtype=complex)
    for m in range(1, s.modes):
        rest = (rest[:, :, None] * table[:, m, None, :]).reshape(len(s.coeffs), -1)
    amps = ((s.coeffs[:, None] * table[:, 0]).T @ rest).reshape((cutoff + 1,) * s.modes)
    return FockVector(cutoff=cutoff, modes=s.modes, amps=amps,
                      tail_bound=truncation_tail_bound(s, cutoff))


def photon_distribution(s: CoherentSuperposition, cutoff: int | None = None) -> FockVector:
    """Photon counting statistics of a (normalized) state: its Fock record,
    whose ``probs`` are the count probabilities."""
    return to_fock(s, cutoff)
