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


def test_consolidate_returns_a_zero_term_state():
    empty = cs.CoherentSuperposition(np.zeros(0, dtype=complex), np.zeros((0, 2), dtype=complex))
    assert cs.consolidate(empty) is empty
