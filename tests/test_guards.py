"""Argument guards of the library: each bad call raises its own error and
names what is wrong."""
import math
import re
import sys
import warnings

import numpy as np
import pytest

from ecsim import coherent_states as cs
from ecsim import decoherence as dec
from ecsim import entanglement_metrics as em
from ecsim import protocols as pr
from ecsim import qubit_encoding as qe
from ecsim.errors import CutoffError, ModeMismatchError, ZeroNormError

ONE = cs.CoherentSuperposition.ket(1.0)
TWO = cs.CoherentSuperposition.ket(1.0, -1.0)
BASIS = qe.make_basis(1.0, 1.0)

# (id, call, exception, fragment of its message)
GUARDS = [
    ("state-sum-modes", lambda: ONE + TWO, ModeMismatchError, "1 modes vs 2 modes"),
    ("operator-sum-modes", lambda: cs.dyad_from_pure(ONE) + cs.dyad_from_pure(TWO),
     ModeMismatchError, "1 modes vs 2 modes"),
    ("normalize-zero", lambda: cs.normalized(0.0 * ONE), ZeroNormError,
     "cannot normalize a zero state"),
    ("project-onto-modes", lambda: cs.project_modes(TWO, [0, 1], ONE), ModeMismatchError,
     "projector has 1 modes, 2 indices given"),
    ("project-repeated-mode", lambda: cs.project_modes(TWO, [0, 0], TWO), ValueError,
     "must be distinct"),
    ("project-every-mode", lambda: cs.project_modes(TWO, [0, 1], TWO), ValueError,
     "must leave at least one mode"),
    ("fock-cutoff-0", lambda: cs.to_fock(ONE, 0), CutoffError, "cutoff must be >= 1"),
    ("closed-form-alpha-0", lambda: em.closed_form_e(0.0, 0.5), ValueError,
     "alpha must be positive"),
    ("channel-alpha-negative", lambda: dec.channel_rho4(-1.0, 0.5), ValueError,
     "alpha must be positive"),
    ("closed-form-alpha-empty", lambda: em.closed_form_e(np.array([]), 0.5), ValueError,
     "alpha must hold at least one amplitude"),
    ("channel-alpha-empty", lambda: dec.channel_rho4(np.array([]), 0.5), ValueError,
     "alpha must hold at least one amplitude"),
    ("closed-form-alpha-overflow", lambda: em.closed_form_e(1e200, 0.5), ValueError,
     "alpha must be at most 6.703903964971298e+153: beyond it 4 alpha^2 overflows"),
    ("channel-alpha-overflow", lambda: dec.channel_rho4(1e200, 0.5), ValueError,
     "alpha must be at most 6.703903964971298e+153: beyond it 4 alpha^2 overflows"),
    ("closed-form-alpha-inf", lambda: em.closed_form_f(math.inf, 0.5), ValueError,
     "beyond it 4 alpha^2 overflows"),
    ("channel-alpha-inf", lambda: dec.channel_rho4([1.0, math.inf], 0.5), ValueError,
     "beyond it 4 alpha^2 overflows"),
    ("closed-form-r-empty", lambda: em.closed_form_e(1.0, []), ValueError,
     "r must hold at least one decay time"),
    ("channel-r-empty", lambda: dec.channel_rho4(1.0, []), ValueError,
     "r must hold at least one decay time"),
    ("bell-one-mode", lambda: pr.bell_measure_distribution(ONE), ValueError,
     "expected a two-mode state"),
    ("density-one-mode", lambda: qe.project_to_density(cs.dyad_from_pure(ONE), BASIS),
     ValueError, "expected a two-mode operator"),
    ("mc-no-samples",
     lambda: pr.teleport_average_mc(pr.bloch_transfer(dec.channel_rho4(1.0, 0.5)), 0, 1),
     ValueError, "samples must be >= 1"),
    ("pair-eta-0", lambda: pr.partial_pair_state(BASIS, 0.0), ValueError,
     "eta must lie in (0, pi/2)"),
    ("pair-eta-half-pi", lambda: pr.partial_pair_state(BASIS, math.pi / 2), ValueError,
     "eta must lie in (0, pi/2)"),
]


@pytest.mark.parametrize("call,exc,fragment", [g[1:] for g in GUARDS],
                         ids=[g[0] for g in GUARDS])
def test_guard_raises_and_names_the_fault(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)):
        call()


# The largest alpha with a finite 4 alpha^2, the log-overlap exponent of the
# channel's (a, -a) dyads; past it that exponent is -inf, and at r = 0 decohere
# multiplies it by 1 - t^2 = 0, which gives NaN.
ALPHA_BOUND = math.sqrt(sys.float_info.max) / 2


@pytest.mark.parametrize("r", [0.0, 0.5])
def test_alpha_at_the_bound_is_accepted_by_both_routes(r):
    assert ALPHA_BOUND == 6.703903964971298e153 and math.isfinite(4.0 * ALPHA_BOUND**2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rho = dec.channel_rho4(ALPHA_BOUND, r)
        numeric = (em.negativity_e(rho), em.optimal_fidelity(rho))
    # the numeric route's populations read two ulps below 1/2 here; at r = 0
    # the state is pure, (|01> - |10>)/sqrt2, and at r = 0.5 the coherence is gone
    half = 0.5 - 2.0 ** -53
    want = np.diag([0.0, half, half, 0.0]).astype(complex)
    if r == 0.0:
        want[1, 2] = want[2, 1] = -half
    assert rho.matrix.tobytes() == want.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        closed = (em.closed_form_e(ALPHA_BOUND, r), em.closed_form_f(ALPHA_BOUND, r),
                  em.closed_form_s(ALPHA_BOUND, r))
    assert closed == ((1.0, 1.0, 0.0) if r == 0.0 else (0.0, 2.0 / 3.0, 0.5))
    assert numeric == pytest.approx(closed[:2], abs=1e-15)


@pytest.mark.parametrize("r", [0.0, 0.5])
@pytest.mark.parametrize("route", [dec.channel_rho4, em.closed_form_e, em.closed_form_f,
                                   em.closed_form_s])
def test_alpha_past_the_bound_is_refused_by_both_routes(route, r):
    above = math.nextafter(ALPHA_BOUND, math.inf)
    with pytest.raises(ValueError, match=re.escape(
            f"alpha must be at most {ALPHA_BOUND!r}: beyond it 4 alpha^2 overflows")):
        route(above, r)


def test_consolidate_returns_a_zero_term_state():
    empty = cs.CoherentSuperposition(np.zeros(0, dtype=complex), np.zeros((0, 2), dtype=complex))
    assert cs.consolidate(empty) is empty
