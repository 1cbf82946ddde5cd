"""Argument guards of the library: each bad call raises its own error and
names what is wrong."""
import math
import re

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
     "alpha must be at most 1.3407807929942596e+154: beyond it alpha^2 overflows"),
    ("channel-alpha-overflow", lambda: dec.channel_rho4(1e200, 0.5), ValueError,
     "alpha must be at most 1.3407807929942596e+154: beyond it alpha^2 overflows"),
    ("closed-form-alpha-inf", lambda: em.closed_form_f(math.inf, 0.5), ValueError,
     "beyond it alpha^2 overflows"),
    ("channel-alpha-inf", lambda: dec.channel_rho4([1.0, math.inf], 0.5), ValueError,
     "beyond it alpha^2 overflows"),
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 4 alpha^2 overflows on the way
@pytest.mark.parametrize("alpha", [1.3e154, 1.3407807929942596e154])
def test_alpha_with_a_finite_square_is_accepted_by_both_routes(alpha):
    assert (em.closed_form_e(alpha, 0.5), em.closed_form_f(alpha, 0.5),
            em.closed_form_s(alpha, 0.5)) == (0.0, 2.0 / 3.0, 0.5)
    # the numeric route's populations read two ulps below 1/2 here
    half = 0.5 - 2.0 ** -53
    want = np.diag([0.0, half, half, 0.0]).astype(complex)
    assert dec.channel_rho4(alpha, 0.5).matrix.tobytes() == want.tobytes()


def test_consolidate_returns_a_zero_term_state():
    empty = cs.CoherentSuperposition(np.zeros(0, dtype=complex), np.zeros((0, 2), dtype=complex))
    assert cs.consolidate(empty) is empty
