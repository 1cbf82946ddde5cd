"""Argument guards of the library, one contract: each row of ``GUARDS`` is a
call that must raise exactly its exception class (not a subclass) with a
message that starts with the row's fragment, and every ``raise`` in
``src/ecsim`` is the raise of some row.  ``cli.py`` is left out: its exits
are the rows of ``test_cli.py``'s ``EXITS``."""
import ast
import math
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest

from ecsim import coherent_states as cs
from ecsim import decoherence as dec
from ecsim import entanglement_metrics as em
from ecsim import protocols as pr
from ecsim import qubit_encoding as qe
from ecsim.coherent_states import CoherentOperator, CoherentSuperposition
from ecsim.decoherence import DecayClock
from ecsim.errors import (CutoffError, DegenerateBasisError, DensityError, ModeMismatchError,
                          SpanError, ZeroNormError)
from ecsim.qubit_encoding import TwoQubitDensity

ONE = CoherentSuperposition.ket(1.0)
TWO = CoherentSuperposition.ket(1.0, -1.0)
BASIS = qe.make_basis(1.0, 1.0)
Q = pr.bloch_transfer(dec.channel_rho4(1.3, 0.4))
# messages that several rows share
R_RANGE = "normalized time r must lie in [0, 1)"
T_RANGE = "decay factor t must lie in (0, 1]"
NO_R = "r must hold at least one decay time"
NO_T = "t must hold at least one decay factor"
NO_ALPHA = "alpha must hold at least one amplitude"
NOT_POSITIVE = "alpha must be positive"
OVERFLOWS = "alpha must be at most 6.703903964971298e+153: beyond it 4 alpha^2 overflows"
ETA_RANGE = "eta must lie in (0, pi/2)"
DEGENERATE = "basis degenerate at alpha=0.0001, t=0.001: 1-exp(-4 t^2 a^2)=4.000e-14"
# at alpha = 1e-3 the decayed basis degenerates only as r -> 1
NEAR_ONE = np.array([0.0, 0.5, 0.9999999])
# The largest alpha with a finite 4 alpha^2, the log-overlap exponent of the
# channel's (a, -a) dyads; past it that exponent is -inf, and at r = 0 decohere
# multiplies it by 1 - t^2 = 0, which gives NaN.
ALPHA_BOUND = math.sqrt(sys.float_info.max) / 2
ABOVE = math.nextafter(ALPHA_BOUND, math.inf)


def _entry(m, index, value):
    """A copy of ``m`` with one entry replaced."""
    m = m.copy()
    m[index] = value
    return m


def _among(bad):
    """``bad`` as the middle one of three densities, the others good."""
    good = np.eye(4, dtype=bad.dtype) / 4.0
    return np.stack([good, bad, good])


def _operator(coeffs, kets, bras):
    """An operator of ones and zeros, its three arrays of the given shapes."""
    return CoherentOperator(np.ones(coeffs), np.zeros(kets), np.zeros(bras))


# densities that fail one check each, complex and real
EYE = np.eye(4, dtype=complex) / 4.0
REAL = np.eye(4) / 4.0
ASYMMETRIC, REAL_ASYMMETRIC = _entry(EYE, (0, 1), 0.2), _entry(REAL, (0, 1), 0.2)
ONE_NAN, REAL_NAN = _entry(EYE, (0, 0), np.nan), _entry(REAL, (2, 2), np.nan)
ALL_NAN = np.full((4, 4), np.nan, dtype=complex)
NEGATIVE = np.diag([0.6, 0.5, -0.05, -0.05])
COMPLEX_NEGATIVE = NEGATIVE.astype(complex)
NOT_HERMITIAN = "density matrix is not Hermitian within 1e-10"
TRACE_OFF = "density matrix trace differs from 1 by more than 1e-10"
EIGENVALUE_BELOW = "density matrix has an eigenvalue below -1e-10"


def _project_dyad(amps, basis):
    """Project the dyad |amps><amps| (one term, or one term per basis entry)."""
    amps = np.array(amps, dtype=complex)
    coeffs = np.ones((1,) + amps.shape[2:], dtype=complex)
    return qe.project_to_density(CoherentOperator(coeffs, amps, amps), basis)


BATCH_BASIS = qe.make_basis(0.8, np.array([1.0, 0.6, 0.25]))
# one dyad amplitude off +-t alpha, at the second decay factor
OFF = _entry(BATCH_BASIS.amplitude, 1, 0.5)

# (id, call, exception class, start of its message)
GUARDS = [
    # coherent_states
    ("superposition-zero-modes", lambda: CoherentSuperposition(np.ones(1), np.zeros((1, 0))),
     ValueError, "amplitudes of shape (1, 0) are not (terms, modes >= 1)"),
    ("superposition-flat-amplitudes", lambda: CoherentSuperposition(np.ones(2), np.zeros(2)),
     ValueError, "amplitudes of shape (2,) are not (terms, modes >= 1)"),
    ("ket-no-mode", lambda: CoherentSuperposition.ket(),
     ValueError, "amplitudes of shape (1, 0) are not (terms, modes >= 1)"),
    ("superposition-row-count", lambda: CoherentSuperposition(np.ones(2), np.zeros((3, 1))),
     ValueError, "3 amplitude rows for coefficients of shape (2,)"),
    ("superposition-2d-coefficients",
     lambda: CoherentSuperposition(np.ones((2, 1)), np.zeros((2, 1))), ValueError,
     "2 amplitude rows for coefficients of shape (2, 1)"),
    ("ket-infinite-amplitude", lambda: CoherentSuperposition.ket(complex("inf")),
     ValueError, "non-finite coefficient 1.0 or amplitudes ((inf+0j),)"),
    ("ket-infinite-coefficient", lambda: CoherentSuperposition.ket(0.5, coeff=math.inf),
     ValueError, "non-finite coefficient inf or amplitudes (0.5,)"),
    ("ket-nan-coefficient", lambda: CoherentSuperposition.ket(0.5, coeff=math.nan),
     ValueError, "non-finite coefficient nan or amplitudes (0.5,)"),
    ("ket-imaginary-infinite-coefficient",
     lambda: CoherentSuperposition.ket(0.5, coeff=complex(0.0, -math.inf)), ValueError,
     "non-finite coefficient -infj or amplitudes (0.5,)"),
    ("state-sum-modes", lambda: ONE + TWO, ModeMismatchError, "1 modes vs 2 modes"),
    ("operator-zero-modes", lambda: _operator((1,), (1, 0), (1, 0)), ValueError,
     "kets of shape (1, 0) are not (terms, modes >= 1, *batch)"),
    ("operator-row-count", lambda: _operator((2,), (3, 1), (3, 1)), ValueError,
     "kets (3, 1) and bras (3, 1) do not match coefficients (2,) as (terms, modes, *batch)"),
    ("operator-bras-modes", lambda: _operator((1,), (1, 1), (1, 2)), ValueError,
     "kets (1, 1) and bras (1, 2) do not match coefficients (1,) as (terms, modes, *batch)"),
    ("operator-batched-amplitudes", lambda: _operator((1,), (1, 1, 2), (1, 1, 2)), ValueError,
     "kets (1, 1, 2) and bras (1, 1, 2) do not match coefficients (1,) as (terms, modes, *batch)"),
    ("operator-batch-sizes", lambda: _operator((1, 3), (1, 1, 2), (1, 1, 2)), ValueError,
     "kets (1, 1, 2) and bras (1, 1, 2) do not match coefficients (1, 3) as (terms, modes, "
     "*batch)"),
    ("operator-batched-coefficients", lambda: _operator((1, 2), (1, 1), (1, 1)), ValueError,
     "kets (1, 1) and bras (1, 1) do not match coefficients (1, 2) as (terms, modes, *batch)"),
    ("inner-modes", lambda: cs.inner(ONE, TWO), ModeMismatchError, "1 modes vs 2 modes"),
    ("normalize-zero", lambda: cs.normalized(0.0 * ONE),
     ZeroNormError, "cannot normalize a zero state"),
    ("beam-split-mode-range", lambda: cs.beam_split(CoherentSuperposition.ket(1.0, 0.0), 0, 2),
     ValueError, "mode index 2 out of range for 2 modes"),
    ("beam-split-one-mode", lambda: cs.beam_split(CoherentSuperposition.ket(1.0, 0.0), 0, 0),
     ValueError, "beam splitter needs two distinct modes"),
    ("project-onto-modes", lambda: cs.project_modes(TWO, [0, 1], ONE),
     ModeMismatchError, "projector has 1 modes, 2 indices given"),
    ("project-repeated-mode", lambda: cs.project_modes(TWO, [0, 0], TWO),
     ValueError, "projection mode indices must be distinct"),
    ("project-every-mode", lambda: cs.project_modes(TWO, [0, 1], TWO),
     ValueError, "projection must leave at least one mode"),
    ("fock-cutoff-0", lambda: cs.to_fock(ONE, 0), CutoffError, "cutoff must be >= 1"),
    ("fock-budget-two-modes",
     lambda: cs.to_fock(CoherentSuperposition.ket(1.0, 1.0), 4096), CutoffError,
     "cutoff 4096 on 2 modes and 1 terms needs 16785409 Fock amplitudes, "
     "more than the budget of 16777216"),
    ("fock-budget-three-modes",
     lambda: cs.to_fock(CoherentSuperposition.ket(1.0, 1.0, 1.0), 256), CutoffError,
     "cutoff 256 on 3 modes and 1 terms needs 16974593 Fock amplitudes, "
     "more than the budget of 16777216"),
    ("fock-vacuum-underflow",
     lambda: cs.to_fock(CoherentSuperposition.ket(37.7)), CutoffError,
     "|amp| = 37.7: the Fock vacuum amplitude e^(-|amp|^2/2) underflows past |amp| ~ 37.6"),
    ("photons-vacuum-underflow",
     lambda: cs.photon_distribution(CoherentSuperposition.ket(0.5, 40.0j), 10), CutoffError,
     "|amp| = 40: the Fock vacuum amplitude e^(-|amp|^2/2) underflows past |amp| ~ 37.6"),
    # decoherence: the clock, by its t and by its r, each alone and in a batch
    ("clock-t-nan", lambda: DecayClock(math.nan), ValueError, T_RANGE),
    ("clock-t-nan-batch", lambda: DecayClock(np.array([0.5, math.nan])), ValueError, T_RANGE),
    ("clock-t-inf", lambda: DecayClock(math.inf), ValueError, T_RANGE),
    ("clock-t-inf-batch", lambda: DecayClock(np.array([0.5, math.inf])), ValueError, T_RANGE),
    ("clock-t-0", lambda: DecayClock(0.0), ValueError, T_RANGE),
    ("clock-t-0-batch", lambda: DecayClock(np.array([0.5, 0.0])), ValueError, T_RANGE),
    ("clock-t-negative", lambda: DecayClock(-0.5), ValueError, T_RANGE),
    ("clock-t-negative-batch", lambda: DecayClock(np.array([0.5, -0.5])), ValueError, T_RANGE),
    ("clock-t-above-1", lambda: DecayClock(1.0 + 2.0**-52), ValueError, T_RANGE),
    ("clock-t-above-1-batch", lambda: DecayClock(np.array([0.5, 1.0 + 2.0**-52])),
     ValueError, T_RANGE),
    ("clock-t-1.5", lambda: DecayClock(1.5), ValueError, T_RANGE),
    ("clock-t-1.5-batch", lambda: DecayClock(np.array([0.5, 1.5])), ValueError, T_RANGE),
    ("clock-t-empty", lambda: DecayClock(np.array([])), ValueError, NO_T),
    ("clock-r-nan", lambda: DecayClock.from_r(math.nan), ValueError, R_RANGE),
    ("clock-r-nan-list", lambda: DecayClock.from_r([0.5, math.nan]), ValueError, R_RANGE),
    ("clock-r-inf", lambda: DecayClock.from_r(math.inf), ValueError, R_RANGE),
    ("clock-r-inf-list", lambda: DecayClock.from_r([0.5, math.inf]), ValueError, R_RANGE),
    ("clock-r-minus-inf", lambda: DecayClock.from_r(-math.inf), ValueError, R_RANGE),
    ("clock-r-minus-inf-list", lambda: DecayClock.from_r([0.5, -math.inf]), ValueError, R_RANGE),
    ("clock-r-negative", lambda: DecayClock.from_r(-0.1), ValueError, R_RANGE),
    ("clock-r-negative-list", lambda: DecayClock.from_r([0.5, -0.1]), ValueError, R_RANGE),
    ("clock-r-least-negative", lambda: DecayClock.from_r(-5e-324), ValueError, R_RANGE),
    ("clock-r-least-negative-list", lambda: DecayClock.from_r([0.5, -5e-324]), ValueError, R_RANGE),
    ("clock-r-1", lambda: DecayClock.from_r(1.0), ValueError, R_RANGE),
    ("clock-r-1-list", lambda: DecayClock.from_r([0.5, 1.0]), ValueError, R_RANGE),
    ("clock-r-1.5", lambda: DecayClock.from_r(1.5), ValueError, R_RANGE),
    ("clock-r-1.5-list", lambda: DecayClock.from_r([0.5, 1.5]), ValueError, R_RANGE),
    ("closed-form-r-empty", lambda: em.closed_form_e(1.0, []), ValueError, NO_R),
    ("channel-r-empty", lambda: dec.channel_rho4(1.0, []), ValueError, NO_R),
    ("closed-form-alpha-empty", lambda: em.closed_form_e(np.array([]), 0.5), ValueError, NO_ALPHA),
    ("channel-alpha-empty", lambda: dec.channel_rho4(np.array([]), 0.5), ValueError, NO_ALPHA),
    ("closed-form-alpha-0", lambda: em.closed_form_e(0.0, 0.5), ValueError, NOT_POSITIVE),
    ("channel-alpha-negative", lambda: dec.channel_rho4(-1.0, 0.5), ValueError, NOT_POSITIVE),
    # one ulp past the bound, on both routes (r = 0 is where an unchecked alpha gives NaN)
    ("channel-above-the-bound", lambda: dec.channel_rho4(ABOVE, 0.0), ValueError, OVERFLOWS),
    ("e-above-the-bound", lambda: em.closed_form_e(ABOVE, 0.0), ValueError, OVERFLOWS),
    ("f-above-the-bound", lambda: em.closed_form_f(ABOVE, 0.0), ValueError, OVERFLOWS),
    ("s-above-the-bound", lambda: em.closed_form_s(ABOVE, 0.0), ValueError, OVERFLOWS),
    ("closed-form-alpha-inf", lambda: em.closed_form_f(math.inf, 0.5), ValueError, OVERFLOWS),
    ("channel-alpha-inf", lambda: dec.channel_rho4([1.0, math.inf], 0.5), ValueError, OVERFLOWS),
    # qubit_encoding
    ("basis-alpha-negative", lambda: qe.make_basis(-1.0, 1.0), ValueError, NOT_POSITIVE),
    ("basis-alpha-empty", lambda: qe.make_basis(np.array([]), 1.0), ValueError, NO_ALPHA),
    ("basis-t-empty", lambda: qe.make_basis(1.0, np.array([])), ValueError, NO_T),
    ("basis-t-0", lambda: qe.make_basis(1.0, 0.0), ValueError, T_RANGE),
    ("basis-t-1.5", lambda: qe.make_basis(1.0, 1.5), ValueError, T_RANGE),
    ("basis-t-1.5-batch", lambda: qe.make_basis(1.0, np.array([0.5, 1.5])), ValueError, T_RANGE),
    ("basis-degenerate", lambda: qe.make_basis(1e-4, 1e-3), DegenerateBasisError, DEGENERATE),
    ("basis-degenerate-batch", lambda: qe.make_basis(1e-4, np.array([1.0, 1e-3])),
     DegenerateBasisError, DEGENERATE),
    ("channel-degenerate", lambda: dec.channel_rho4(1e-7, 0.5),
     DegenerateBasisError, "basis degenerate at alpha=1e-07, t=1.0: 1-exp(-4 t^2 a^2)=4.000e-14"),
    ("channel-degenerate-near-r-1", lambda: dec.channel_rho4(1e-3, NEAR_ONE),
     DegenerateBasisError, "basis degenerate at alpha=0.001, t=0.0004472135842019212: "
     "1-exp(-4 t^2 a^2)=8.000e-13"),
    ("density-outside-span", lambda: _project_dyad([[0.5, 1.0]], BASIS),
     SpanError, f"amplitude {np.complex128(0.5)!r} is not +-1.0 within 1e-09"),
    ("density-outside-span-batch",
     lambda: _project_dyad([[BATCH_BASIS.amplitude, OFF]], BATCH_BASIS), SpanError,
     f"amplitude {np.complex128(0.5)!r} is not +-{BATCH_BASIS.amplitude} within 1e-09"),
    ("bell-index-5", lambda: qe.bell_state(5, BASIS), ValueError, "Bell index must be 1..4"),
    ("density-one-mode", lambda: qe.project_to_density(cs.dyad_from_pure(ONE), BASIS),
     ValueError, "expected a two-mode operator"),
    ("density-not-4x4", lambda: TwoQubitDensity(np.ones((3, 4, 3)) / 4.0),
     ValueError, "density matrix must be 4x4"),
    ("density-empty", lambda: TwoQubitDensity(np.zeros((0, 4, 4))),
     ValueError, "a density batch must hold at least one density"),
    ("density-not-hermitian", lambda: TwoQubitDensity(ASYMMETRIC), DensityError, NOT_HERMITIAN),
    ("density-not-hermitian-batch", lambda: TwoQubitDensity(_among(ASYMMETRIC)),
     DensityError, NOT_HERMITIAN),
    ("density-one-nan", lambda: TwoQubitDensity(ONE_NAN), DensityError, NOT_HERMITIAN),
    ("density-one-nan-batch", lambda: TwoQubitDensity(_among(ONE_NAN)),
     DensityError, NOT_HERMITIAN),
    ("density-all-nan", lambda: TwoQubitDensity(ALL_NAN), DensityError, NOT_HERMITIAN),
    ("density-all-nan-batch", lambda: TwoQubitDensity(_among(ALL_NAN)),
     DensityError, NOT_HERMITIAN),
    ("real-density-not-hermitian", lambda: TwoQubitDensity(REAL_ASYMMETRIC),
     DensityError, NOT_HERMITIAN),
    ("real-density-not-hermitian-batch", lambda: TwoQubitDensity(_among(REAL_ASYMMETRIC)),
     DensityError, NOT_HERMITIAN),
    ("real-density-nan", lambda: TwoQubitDensity(REAL_NAN), DensityError, NOT_HERMITIAN),
    ("real-density-nan-batch", lambda: TwoQubitDensity(_among(REAL_NAN)),
     DensityError, NOT_HERMITIAN),
    ("density-trace", lambda: TwoQubitDensity(2.0 * EYE), DensityError, TRACE_OFF),
    ("density-trace-batch", lambda: TwoQubitDensity(np.stack([EYE, EYE, 2.0 * EYE])),
     DensityError, TRACE_OFF),
    ("real-density-trace", lambda: TwoQubitDensity(2.0 * REAL), DensityError, TRACE_OFF),
    ("real-density-trace-batch", lambda: TwoQubitDensity(_among(2.0 * REAL)),
     DensityError, TRACE_OFF),
    ("density-negative", lambda: TwoQubitDensity(COMPLEX_NEGATIVE), DensityError, EIGENVALUE_BELOW),
    ("density-negative-batch", lambda: TwoQubitDensity(_among(COMPLEX_NEGATIVE)),
     DensityError, EIGENVALUE_BELOW),
    ("real-density-negative", lambda: TwoQubitDensity(NEGATIVE), DensityError, EIGENVALUE_BELOW),
    ("real-density-negative-batch", lambda: TwoQubitDensity(_among(NEGATIVE)),
     DensityError, EIGENVALUE_BELOW),
    # entanglement_metrics
    ("crossing-unbracketed", lambda: em.characteristic_time(30.0),
     ValueError, "no fidelity crossing bracketed for alpha=30.0"),
    # the first amplitude of two decimals whose margin at r = 0.9995 underflows
    ("crossing-underflows", lambda: em.characteristic_time(13.65), ValueError,
     "no fidelity crossing bracketed for alpha=13.65: the margin f - 2/3 underflows to 0"),
    ("peak-unknown-measure", lambda: em.mixedness_peak(1.0, "renyi"),
     ValueError, "measure must be 'linear' or 'vn'"),
    # protocols
    ("bell-one-mode", lambda: pr.bell_measure_distribution(ONE),
     ValueError, "expected a two-mode state"),
    ("mc-no-samples", lambda: pr.teleport_average_mc(Q, 0, 1), ValueError, "samples must be >= 1"),
    ("mc-density", lambda: pr.teleport_average_mc(dec.channel_rho4(1.3, 0.4).matrix, 10, 1),
     ValueError, "the Monte Carlo takes one Bloch transfer of shape (4, 4, 4), not (4, 4)"),
    ("mc-two-transfers", lambda: pr.teleport_average_mc(np.stack([Q, Q]), 10, 1),
     ValueError, "the Monte Carlo takes one Bloch transfer of shape (4, 4, 4), not (2, 4, 4, 4)"),
    ("ideal-eta-0", lambda: pr.concentrate_ideal(0.0), ValueError, ETA_RANGE),
    ("ideal-eta-half-pi", lambda: pr.concentrate_ideal(math.pi / 2), ValueError, ETA_RANGE),
    ("ideal-eta-nan", lambda: pr.concentrate_ideal(math.nan), ValueError, ETA_RANGE),
    ("ideal-eta-0-batch", lambda: pr.concentrate_ideal(np.array([0.3, 0.0])),
     ValueError, ETA_RANGE),
    ("ideal-eta-2-column", lambda: pr.concentrate_ideal(np.array([[0.3], [2.0]])),
     ValueError, ETA_RANGE),
    ("pair-eta-0", lambda: pr.partial_pair_state(BASIS, 0.0), ValueError, ETA_RANGE),
    ("pair-eta-half-pi", lambda: pr.partial_pair_state(BASIS, math.pi / 2), ValueError, ETA_RANGE),
    # the B2 projection's norm underflows (the CLI's `concentrate --etas 1e-170`)
    ("swap-zero-norm", lambda: pr.concentrate_exact(1.0, 1e-170),
     ZeroNormError, "cannot normalize a zero state"),
]


def _raised(call):
    """The exception that ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:
        return exc
    return None


@pytest.mark.parametrize("call,cls,start", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_guard_raises_its_class_and_names_the_fault(call, cls, start):
    exc = _raised(call)
    assert type(exc) is cls, f"raised {exc!r}"
    assert str(exc).startswith(start), str(exc)


LIBRARY = Path(cs.__file__).resolve().parent


def test_every_raise_in_the_library_has_a_row():
    # (file, line) of each raise statement, and of the frame each row's exception left;
    # a multi-line raise's frame reads its first line
    sites = {}
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name != "cli.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise):
                    sites[path.name, node.lineno] = ast.unparse(node.exc)[:72]
    reached = {}
    for name, call, _, _ in GUARDS:
        exc = _raised(call)
        assert exc is not None, f"{name} raised nothing"
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        path = Path(frame.filename).resolve()
        where = (path.name if path.parent == LIBRARY else str(path), frame.lineno)
        reached.setdefault(where, name)
    strays = [f"{name}: {file}:{line}" for (file, line), name in reached.items()
              if (file, line) not in sites]
    assert not strays, f"rows raised outside a raise of the library: {strays}"
    missing = [f"{file}:{line} {sites[file, line]}"
               for file, line in sorted(sites.keys() - reached)]
    assert not missing, f"raises in the library with no row: {missing}"



@pytest.mark.parametrize("r", [0.0, 0.5])
def test_alpha_at_the_bound_is_accepted_by_both_routes(r):
    # its refusing side is GUARDS' above-the-bound rows
    assert ALPHA_BOUND == 6.703903964971298e153 and math.isfinite(4.0 * ALPHA_BOUND**2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rho = dec.channel_rho4(ALPHA_BOUND, r)
        numeric = (em.negativity_e(rho), em.optimal_fidelity(rho))
    # the numeric route's populations read two ulps below 1/2 here; at r = 0
    # the state is pure, (|01> - |10>)/sqrt2, and at r = 0.5 the coherence is gone
    half = 0.5 - 2.0 ** -53
    want = np.diag([0.0, half, half, 0.0])
    if r == 0.0:
        want[1, 2] = want[2, 1] = -half
    assert rho.matrix.tobytes() == want.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        closed = (em.closed_form_e(ALPHA_BOUND, r), em.closed_form_f(ALPHA_BOUND, r),
                  em.closed_form_s(ALPHA_BOUND, r))
    assert closed == ((1.0, 1.0, 0.0) if r == 0.0 else (0.0, 2.0 / 3.0, 0.5))
    assert numeric == pytest.approx(closed[:2], abs=1e-15)



def test_consolidate_returns_a_zero_term_state():
    empty = cs.CoherentSuperposition(np.zeros(0, dtype=complex), np.zeros((0, 2), dtype=complex))
    assert cs.consolidate(empty) is empty
