"""One accuracy contract: each route within its bound of its oracle.

A row of ``ACCURACY`` is an id, a grid (axis name to values; the points are the
axes' outer product) and a call that takes the axes and returns ``(got, want,
bound)`` over the grid and any trailing axes of the quantity, want and the
bound over its leading axes.  One test asserts |got - want| <= bound everywhere
and names the row, the worst point and its err/bound.  ``python
tests/test_accuracy.py`` prints each row's worst err/bound, ends with a line
naming every row that reads below 0.01 of its bound (a bound of 0 aside), and
exits 1 when any row exceeds its bound.

The rows cover every layer: the coherent algebra against per-term loops and
truncated-Fock sums, decoherence against Kraus sums, the metrics against
enumeration, singular values and matrix products, the numeric route against
the closed forms, both against the 400-digit referee, the protocols against
per-outcome contractions and decimal forms, and the CLI's printed columns.
"""
import cmath
import decimal
import functools
import itertools
import math
import traceback
import types
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np
import pytest

from ecsim import cli, coherent_states as cs, decoherence as dec
from ecsim import entanglement_metrics as em, protocols as pr
from ecsim.decoherence import channel_rho4, closed_form_vst
from ecsim.entanglement_metrics import (closed_form_e, closed_form_f, closed_form_s,
                                        linear_entropy, negativity_e, optimal_fidelity,
                                        singlet_fraction)
from ecsim.qubit_encoding import BELL_VECTORS, PAULIS, TwoQubitDensity, pauli_decompose
import reference as ref
from reference import LOG_ALPHAS, average_fidelity_reference, decimal_channel

EPS = np.finfo(float).eps
SQRT_HALF = 1.0 / math.sqrt(2.0)

# The numeric routes' error model, (K, C) of eps (K / N_theta + C).  K / N_theta
# is the cancellation in the dyad sum, where B4's coefficients of
# +-1/(2 N_theta) meet in entries of order 1; C is the rounding of those entries.
# - "channel", for E, f, the Pauli coordinates and tr rho - 1: on 25 alpha in
#   [1e-3, 2] by 1200 r, at most 1.73 eps / N_theta up to alpha = 0.09, and 28
#   eps against a bound of 30.9 at alpha = 0.16, its tightest point.
# - "S", for S = 1 - tr(rho^2): on that grid at most 2.4 eps / N_theta up to
#   alpha = 0.09, and 37 eps at 0.16; 800 alpha in [1e-3, 16] by these r, up to
#   3.5 eps / N_theta below 0.09 and 15 eps past 1; 4000 alpha in [1e-2, 16] at
#   r = 0, up to 17 eps at 2.4.
# - "swap", for the exact swap: 1.6 eps / N_theta at most (at alpha ~ 1.3, where
#   N_theta ~ 1), 0.46 below alpha = 0.3; at most 0.41 of the bound on 80 alpha
#   by 44 eta.
ERROR_MODEL = {"channel": (2.0, 10.0), "S": (4.0, 20.0), "swap": (1.0, 3.0)}


def model_bound(alpha, model: str = "channel") -> np.ndarray:
    """eps (K / N_theta + C) at each amplitude, N_theta = 1 - exp(-4 alpha^2)."""
    k, c = ERROR_MODEL[model]
    return EPS * (k / -np.expm1(-4.0 * np.multiply(alpha, alpha)) + c)


class Row(NamedTuple):
    id: str
    grid: dict  # axis name -> its values
    call: Callable  # (*axes) -> (got, want, bound)


def measure(row: Row) -> tuple:
    """(holds, points, the worst err / bound, its err, its bound, where it lies)."""
    axes = list(row.grid.values())
    got, want, bound = row.call(*axes)
    got = np.asarray(got)
    assert got.shape[:len(axes)] == tuple(map(len, axes)), (row.id, got.shape)
    want, bound = (np.reshape(x, np.shape(x) + (1,) * (got.ndim - np.ndim(x)))
                   for x in (want, bound))
    err, bound = np.broadcast_arrays(np.abs(got - want), bound)
    with np.errstate(divide="ignore"):
        ratio = np.divide(err, bound, out=np.zeros(err.shape), where=err > 0.0)
    ratio[np.isnan(err)] = np.inf
    i = np.unravel_index(np.argmax(ratio), ratio.shape)
    where = [f"{name} {values[k]}" for (name, values), k in zip(row.grid.items(), i)]
    where += [f"index {tuple(map(int, i[len(axes):]))}"] * (len(i) > len(axes))
    return bool((err <= bound).all()), err.size, ratio[i], err[i], bound[i], ", ".join(where)


# name: (the numeric route on a channel density, the closed form at (alpha, r))
PAIRS = {"E": (negativity_e, closed_form_e), "f": (optimal_fidelity, closed_form_f),
         "S": (linear_entropy, closed_form_s), "Pauli": (pauli_decompose, closed_form_vst),
         "trace": (lambda rho: rho.matrix.trace(axis1=-2, axis2=-1), lambda a, r: np.float64(1))}


@functools.cache
def _channel(alphas: tuple, r: tuple):
    return channel_rho4(np.array(alphas), np.array(r))


def _pair_row(row_id, name, alphas, r, bound, part=np.s_[...]) -> Row:
    """``name`` by both routes on the (alpha, r) grid, within bound(alpha) or a
    number; each grid's channel is computed once."""
    numeric, closed = PAIRS[name]
    return Row(row_id, {"alpha": alphas, "r": r}, lambda a, r: (
        numeric(_channel(tuple(a.tolist()), tuple(r.tolist())))[part], closed(a, r)[part],
        bound(a) if callable(bound) else bound))


# Each quantity is held on three grids, so a failure names both: "model", 25
# alpha in [1e-3, 2]; "spot", the points the closed forms were first checked
# at; and "overflow", alpha = 14 (where e^{4 alpha^2} overflows) and 1e6.
MODEL_GRIDS = {"model": np.geomspace(1e-3, 2.0, 25),
               "spot": np.array([0.1, 0.2, 0.4, 1.0, 1.7, 1.8]),
               "overflow": np.array([14.0, 1e6])}
MODEL_R = np.concatenate((np.linspace(0.0, 0.995, 1200), np.linspace(0.0, 0.99, 12),
                          [0.3, 0.4, 0.5, 0.6, 0.8, 0.85, 0.9, SQRT_HALF]))


def _band(lo: float, hi: float) -> np.ndarray:
    """LOG_ALPHAS, a half-decade grid of the CLI's range, in [lo, hi] with a
    little slack at each end: the grid's decades need not be exact."""
    alphas = LOG_ALPHAS[(LOG_ALPHAS >= lo * 0.999) & (LOG_ALPHAS <= hi * 1.001)]
    assert len(alphas) >= 1
    return alphas


# Bands of max |numeric - closed| over 400 r in [0, 0.995]; each bound is under
# 3x the largest error the route showed in its band when it was set.  The error
# grows as ~alpha^-2 below alpha ~ 0.3; from alpha ~ 3 on it is a few eps at most.
BAND_R = np.linspace(0.0, 0.995, 400)
ENVELOPE_BANDS = [  # (alpha lo, alpha hi, bound on E, f, S)
    (1e-3, 1e-3, 3e-10, 8e-11, 3.5e-10),
    (3e-3, 1e-2, 3e-11, 9e-12, 3.3e-11),
    (3e-2, 0.1, 2.5e-13, 1e-13, 3.5e-13),
    (0.3, 2.0, 4e-15, 1.9e-15, 7e-15),
    (3.0, 100.0, 2e-15, 6e-16, 2e-15),
    (300.0, 400.0, 6e-16, 3e-16, 1.2e-15),
    (1e3, 1e6, 6e-16, 3e-16, 1.3e-15),
]
# The Pauli coefficients' bands; past alpha ~ 300 both v and s are 0.
PAULI_BANDS = [  # (alpha lo, alpha hi, bound on v and s, bound on T)
    (1e-3, 1e-3, 2.5e-10, 3.5e-10),
    (3e-3, 1e-2, 2.9e-11, 3.2e-11),
    (3e-2, 0.1, 2.3e-13, 2.7e-13),
    (0.3, 2.0, 3.3e-15, 4.6e-15),
    (3.0, 100.0, 6.6e-16, 1.6e-15),
    (300.0, 1e6, 0.0, 6.6e-16),
]
PAULI_PARTS = {"v": np.s_[..., 1:, 0], "s": np.s_[..., 0, 1:], "t": np.s_[..., 1:, 1:]}

# quantity: (its referee value, its float value at (alpha, r))
REFEREE = {
    "closed_form_e": (lambda ref: ref.e, closed_form_e),
    "negativity_e": (lambda ref: ref.e, lambda a, r: negativity_e(channel_rho4(a, r))),
    "closed_form_f": (lambda ref: ref.f, closed_form_f),
    "optimal_fidelity": (lambda ref: ref.f, lambda a, r: optimal_fidelity(channel_rho4(a, r))),
    "closed_form_s": (lambda ref: ref.s, closed_form_s),
    "linear_entropy": (lambda ref: ref.s, lambda a, r: linear_entropy(channel_rho4(a, r))),
    "v": (lambda ref: ref.bloch, lambda a, r: closed_form_vst(a, r)[1, 0]),
    "s": (lambda ref: ref.bloch, lambda a, r: closed_form_vst(a, r)[0, 1]),
    **{f"t{k}{k}": (lambda ref, k=k: ref.t_diag[k - 1],
                    lambda a, r, k=k: closed_form_vst(a, r)[k, k]) for k in (1, 2, 3)},
    "margin": (lambda ref: ref.margin, em._fidelity_margin),
}


def _referee_row(row_id, points, quantities, rel=1e-12, float_squares=False) -> Row:
    """Each quantity within ``rel`` of the referee, relative, at each (alpha, r);
    the numeric E only where E >= 1e-6, clear of the eigenvalue clamp."""
    def call(points, quantities):
        want = np.array([[float(REFEREE[q][0](decimal_channel(a, r, float_squares)))
                          for q in quantities] for a, r in points])
        got = [[REFEREE[q][1](a, r) for q in quantities] for a, r in points]
        clamped = (np.array(quantities) == "negativity_e") & (want < 1e-6)
        return got, want, np.where(clamped, np.inf, rel * np.abs(want))
    return Row(row_id, {"(alpha, r)": points, "quantity": quantities}, call)


# The stated form of E on exact squares; at (20, 0.99) E underflows in floats.
E_DECIMAL_POINTS = [(a, r) for a in (0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0)
                    for r in (0.05, 0.5, 0.99) if (a, r) != (20.0, 0.99)]
# Points where W = exp(-4 t^2 alpha^2) is a normal float: past
# 4 t^2 alpha^2 ~ 708 sqrt(W), and with it the Bloch entry, loses bits to
# underflow.  At (3, 0.99), (3, 0.9995), (5, 0.95) and (10, 0.9) the stated
# T_22 = (-a + d) / (2 N_theta) is 3% or wholly off in floats.  Then at
# alpha = 14, r = 0.001 and 0.2, W underflows but sqrt(W) does not: the Bloch
# entry is 4.5e-174 and 3.7e-164 there.  At alpha = 1e-3, r = 0.71 and 0.67,
# W - gamma is ~1e-6 of either: as a difference of two exps, T_11 was 2.3e-9
# and f 1.4e-11 off.  The referee takes the code's own floats r * r and t * t,
# so it tests the forms and not the clock.
DECIMAL_POINTS = ([(a, r) for a in (0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0)
                   for r in (0.05, 0.5, 0.9, 0.99)]
                  + [(14.0, 0.5), (14.0, 0.7), (14.0, 0.9), (3.0, 0.9995), (5.0, 0.95)]
                  + [(14.0, 0.001), (14.0, 0.2), (1e-3, 0.71), (1e-3, 0.67)])
# r alpha of order 1 at large alpha, where gamma = exp(-4 r^2 alpha^2) is
# neither 0 nor 1 but t = sqrt(1 - r^2) rounds r^2 away, then three points
# of the figures' range
DECAY_EXPONENT_POINTS = ([(a, k / a) for a in (1e2, 1e3, 1e4, 1e6) for k in (0.5, 1.0, 2.0)]
                         + [(30.0, 0.03), (14.0, 0.5), (3.0, 0.99)])


@functools.cache
def _render(argv: tuple) -> dict:
    """A CSV render's columns, by name."""
    header, *lines = cli.render(list(argv)).splitlines()
    return dict(zip(header.split(","), np.array([ln.split(",") for ln in lines], dtype=float).T))


def _cli_row(row_id, argv, got, want, bound) -> Row:
    """got(col) against want(col) within bound(col), on the columns of a render
    shaped to its grid, alpha major; the render's axis columns must be that grid."""
    cfg = cli._parse(argv)
    grid = {"alpha": np.array(cfg.alphas)}
    if "r_steps" in cfg:
        grid["r"] = cli._r_grid(cfg)
    if "etas" in cfg:
        grid["eta"] = np.array(cfg.etas)

    def call(*axes):
        mesh = np.meshgrid(*axes, indexing="ij")
        col = {name: values.reshape(mesh[0].shape) for name, values in _render(tuple(argv)).items()}
        for name, values in zip(grid, mesh):
            assert col[name].tolist() == values.tolist(), (argv, name)
        return got(col), want(col), bound(col)
    return Row(row_id, grid, call)


def _second_branch(col):
    """closed_form_f's second branch, the standard scheme's fidelity, formed
    from channel_coefficients."""
    g, w, _, _, n_theta, _, _ = dec.channel_coefficients(col["alpha"][:, 0], col["r"][0])
    return (2.0 + (g - w) / n_theta) / 3.0


def _fig_rows(grid_id: str, argv: list) -> list:
    """E, f and S held to the error model; teleport-mc's f_analytic to the second
    branch, and within 1e-14 of fig2b's f_numeric up to r = 1/sqrt(2) and at
    most 1e-14 above it past there, where got is the larger of the two."""
    teleport = ["teleport-mc", *argv, "--samples", "1"]
    fig2b = lambda col: _render(("fig2b", *argv))["f_numeric"].reshape(col["r"].shape)
    below = lambda col: np.where(col["r"] <= SQRT_HALF, col["f_analytic"],
                                 np.maximum(col["f_analytic"], fig2b(col)))
    return [*(_cli_row(f"{command}-{grid_id}", [command, *argv], itemgetter(f"{key}_numeric"),
                       itemgetter(f"{key}_closed"), lambda col, m=m: model_bound(col["alpha"], m))
              for command, key, m in (("fig2a", "e", "channel"), ("fig2b", "f", "channel"),
                                      ("fig3", "s", "S"))),
            _cli_row(f"teleport-mc-{grid_id}", teleport, itemgetter("f_analytic"), _second_branch,
                     lambda col: model_bound(col["alpha"])),
            _cli_row(f"teleport-mc-below-fig2b-{grid_id}", teleport, below, fig2b, lambda col: 1e-14)]


# At defaults, on a wide grid and on the fig2a (0.5, 1.5 by r to 0.9 in 4) and
# fig3 (1 by r to 0.95 in 5) points, with 2.2651537884471118, where S's error
# reads 17 eps at r = 0 (measured: f_analytic and f_numeric 3.8e-15 apart at
# defaults).
FIG_GRIDS = {
    "defaults": [],
    "wide": ["--alphas", "0.1", "0.3", "1", "3", "13.4", "1000", "--r-steps", "400",
             "--r-max", "0.9999"],
    "spot": ["--alphas", "0.5", "1", "1.5", "2.2651537884471118", "--r-steps", "77",
             "--r-max", "0.95"],
    # the channel stays entangled at every r < 1; test_entanglement_metrics.py
    # holds e_numeric non-zero wherever E >= 1e-14 on this grid
    "alpha-3": ["--alphas", "3", "--r-steps", "200", "--r-max", "0.999"],
}
# bellmeas at defaults and on 40 amplitudes from 0.05 to 4, and 0.5: within 16
# eps relative plus the Fock tail (measured: 2.8e-17 absolute at defaults, 4.9
# eps relative on the wide grid).  They hold the photon counting's
# misidentification at alpha = 0.5, 1 and 2.
BELLMEAS_GRIDS = {"defaults": [],
                  "wide": ["--alphas", *(repr(float(a)) for a in np.geomspace(0.05, 4.0, 40)),
                           "0.5"]}
# concentrate at defaults and on alpha 0.05 to 10 by eta 0.05 to 1.52: within 32
# eps (measured: 6.9e-17 at defaults; p2_exact strays most at small alpha, 12.6
# eps at alpha = 0.062 on a 25 x 12 grid)
CONCENTRATE_GRIDS = {"defaults": [],
                     "wide": ["--alphas", "0.05", "0.1", "0.3", "1", "3", "10",
                              "--etas", "0.05", "0.3", "0.7", "1", "1.52"]}
CONCENTRATE_PAIRS = {"p2_exact": "p2_exact_closed", "p1_swap": "p_ideal_closed",
                     "p2_swap": "p_ideal_closed"}



def _best_bell_projection(a, r):
    """singlet_fraction against max_k <B_k| rho |B_k>: for the channel's diagonal
    correlation matrix the optimum is attained on the decayed Bell family.
    Within 6 eps, 3x the worst error measured, 2 eps at (0.3, 0)."""
    rho = channel_rho4(a, r)
    return singlet_fraction(rho), np.einsum("ki,...ij,kj->...k", BELL_VECTORS.conj(), rho.matrix,
                                            BELL_VECTORS).real.max(axis=-1), 6 * EPS


def _scheme_optimum(a, r):
    """The exact scheme average, maximized over the correction remappings,
    against optimal_fidelity (the LQCC optimum) at every decay time.  Within
    3 eps, 3x the worst error measured, 1 eps at (0.5, 0.9) and (1, 0.6)."""
    remaps = (np.eye(2, dtype=complex),) + PAULIS
    best = [[max(average_fidelity_reference(channel_rho4(x, y), u) for u in remaps)
             for y in r.tolist()] for x in a.tolist()]
    return best, optimal_fidelity(channel_rho4(a, r)), 3 * EPS


# At small alpha the swap's error grows as 1/N_theta: 6.7e-12 at alpha = 1e-3.
# The last three alpha and eta are the paper's (0.5, 1, 2 by pi/8, pi/4, pi/3).
SWAP_GRID = {"alpha": np.append(np.geomspace(1e-3, 3.0, 15), (0.5, 1.0, 2.0)),
             "eta": np.append(np.linspace(0.1, 1.45, 12), (math.pi / 4, math.pi / 8, math.pi / 3))}


def _swap(alpha, eta):
    exact = [[pr.concentrate_exact(a, e).success_probability for e in eta.tolist()]
             for a in alpha.tolist()]
    return (exact, pr.concentration_success_closed_form(alpha[:, None], eta),
            model_bound(alpha, "swap"))


def _each(point, seed=None) -> Callable:
    """A row's call from ``point``, one grid point's (got, want, bound): the
    points in row-major order, as a loop over the grid draws them, on one
    generator from ``seed`` that ``point`` takes first."""
    def call(*axes):
        rng = () if seed is None else (np.random.default_rng(seed),)
        out = zip(*(point(*rng, *p) for p in itertools.product(*axes)))
        return [np.reshape(x, tuple(map(len, axes)) + np.shape(x[0])) for x in out]
    return call


def _cases(row_id: str, axis: str, cases, point) -> list:
    """One row per case of ``axis``, ``row_id``-case: the cases share no
    generator, so each is its own test item, as each was a parametrized one."""
    return [Row(f"{row_id}-{'-'.join(map(str, case)) if isinstance(case, tuple) else case}",
                {axis: (case,)}, _each(point)) for case in cases]


def _worst(pairs) -> list:
    """max |got - want| of each (got, want) pair of arrays, inf where their
    shapes differ: the error of a case whose arrays change shape from case to case."""
    return [np.abs(np.subtract(got, want)).max(initial=0.0)
            if np.shape(got) == np.shape(want) else np.inf for got, want in pairs]


# ---------------------------------------------------------------------------
# The layers against per-term loops, Fock and Kraus sums, enumeration, singular
# values, per-outcome contractions and decimal forms.  A bound within 3x of a
# last-bit error holds where it was measured (numpy 2.4.6, scipy 1.17.1,
# x86_64), and may not elsewhere; each such bound says so.


def _beam_split_fock(rng, _):
    """beam_split against its truncated-Fock unitary at cutoff 30, on a two-mode
    state of up to three terms, |amplitude| <= 1.2.  The error is the rounding
    of scipy's expm, 4.7 eps at worst: 12 eps, within 3x (1e-8 before)."""
    s = ref.random_state(rng, modes=2, max_terms=3, max_amp=1.2)
    return (cs.to_fock(cs.beam_split(s, 0, 1), 30).amps.ravel(),
            ref.fock_beam_splitter(30) @ cs.to_fock(s, 30).amps.ravel(), 12 * EPS)


def _fock_norm(rng, modes, _):
    """to_fock's squared norm against inner(s, s): the truncation's tail bound,
    a stated claim, plus the sums' rounding, 4 eps at worst on these norms (up
    to 4.5): 8 eps, within 3x (1e-12 before)."""
    s = ref.random_state(rng, modes=modes, max_terms=4)
    fv = cs.to_fock(s)
    return np.vdot(fv.amps, fv.amps).real, cs.inner(s, s).real, fv.tail_bound + 8 * EPS


def _fock_cross_inner(rng, _):
    a, b = (ref.random_state(rng, modes=2, max_terms=3) for _ in range(2))
    cutoff = max(cs.auto_cutoff(a), cs.auto_cutoff(b))
    fa, fb = cs.to_fock(a, cutoff), cs.to_fock(b, cutoff)
    return ref.fock_inner(fa, fb), cs.inner(a, b), math.sqrt(fa.tail_bound * fb.tail_bound) + 1e-12


# The array routes against per-term loops, within 1e-14 of the states'
# coefficient 1-norms, on (terms, modes) from 1-64 terms and 1-4 modes.
def _inner_loop(rng, size):
    """<a|b>, then <a|a> on the trailing axis."""
    a, b = ref.array_state(rng, *size), ref.array_state(rng, int(rng.integers(1, 65)), size[1])
    return ([cs.inner(a, b), cs.inner(a, a)], [ref.ref_inner(a, b), ref.ref_inner(a, a)],
            [1e-14 * ref.scale(a, b), 1e-14 * ref.scale(a, a)])


def _project_modes_loop(rng, size):
    """The amplitudes exactly, then the coefficients within the bound."""
    m = max(size[1], 2)
    modes = tuple(int(x) for x in rng.choice(m, int(rng.integers(1, m)), replace=False))
    s = ref.array_state(rng, size[0], m)
    onto = ref.array_state(rng, int(rng.integers(1, 5)), len(modes))
    got = cs.project_modes(s, modes, onto)
    want = cs.consolidate(ref.ref_project_terms(s, modes, onto))
    return (_worst([(got.amps, want.amps), (got.coeffs, want.coeffs)]), 0.0,
            [0.0, 1e-14 * ref.scale(s, onto)])


def _operator_trace_loop(rng, size):
    a, b = ref.array_state(rng, *size), ref.array_state(rng, 4, size[1])
    rho = ref.operator_sum((1, cs.dyad_from_pure(a)), (0.3 - 0.2j, cs.dyad_from_pure(b)))
    return (cs.operator_trace(rho), ref.ref_operator_trace(rho),
            1e-14 * (ref.scale(a, a) + ref.scale(b, b)))


def _to_fock_loop(modes_cutoff):
    """One generator a mode count, its states of 1, 7 and 64 terms on the trailing axis."""
    modes, cutoff = modes_cutoff
    rng = np.random.default_rng(47 + modes)
    states = [ref.array_state(rng, n, modes, max_amp=3.0 if cutoff is None else 1.0)
              for n in (1, 7, 64)]
    fock = [cs.to_fock(s, cutoff) for s in states]
    return (_worst([(fv.amps, ref.ref_to_fock(s, fv.cutoff)) for s, fv in zip(states, fock)]),
            0.0, [1e-14 * ref.scale(s) for s in states])


# decohere's law |b><g| -> <g|b>^(1-t^2) |tb><tg| against the Kraus sums of
# amplitude damping, which contain neither it nor the closed forms
def _kraus_channel(point):
    """The Fock vector's tail bound plus the rounding, 1.5 eps at worst: 4 eps,
    within 3x (1e-13 before)."""
    want, tail = ref.kraus_channel_density(*point)
    assert tail < 1e-30  # the amplitude error, sqrt(tail), is below 1e-15
    return channel_rho4(*point).matrix, want, 4 * EPS + tail


def _kraus_dyad(rng, _):
    """A random complex dyad |b><g|, |b|, |g| <= 2, at r in [0.05, 0.99]."""
    beta, gamma = (2.0 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
                   for _ in range(2))
    r = rng.uniform(0.05, 0.99)
    k, dyad = ref.kraus(r).astype(complex), np.outer(ref.fock_ket(beta), ref.fock_ket(gamma).conj())
    coeff, ket, bra = ref.damp_single_dyad(beta, gamma, dec.DecayClock.from_r(r))
    return (coeff * np.outer(ref.fock_ket(ket), ref.fock_ket(bra).conj()),
            (k @ dyad @ k.transpose(0, 2, 1)).sum(axis=0), 1e-13)


def _rotation_enumerated(alpha, r):
    """max_rotation_trace of the channel's -T against the enumeration over
    signed permutations, which attains the optimum for a diagonal T.  It reads
    exactly 0 here, so no bound is 3x its error; 1e-12 stays."""
    t = -pauli_decompose(channel_rho4(alpha, r))[..., 1:, 1:]
    return (em.max_rotation_trace(t),
            [[ref.max_rotation_trace_enumerated(m) for m in row] for row in t], 1e-12)


def _horn(matrices, want=ref.rotation_trace_by_lu) -> Callable:
    """A row's call: max_rotation_trace within the library's stated 16 eps
    (s1 + s2 + s3) of ``want``, by default the singular values with the sign
    of det M from LU, on the matrices of ``matrices()``, the trailing axis."""
    def call(_):
        m = matrices()
        return ([em.max_rotation_trace(m)], [want(m)],
                [16 * EPS * np.linalg.svd(m, compute_uv=False).sum(axis=-1)])
    return call


def _horn_singular():
    """A zero column, rank one, and zero, where the bound is 0."""
    rng = np.random.default_rng(48)
    zero_column = rng.standard_normal((200, 3, 3))
    zero_column[:, :, 1] = 0.0
    u, v = rng.standard_normal((2, 200, 3))
    return np.concatenate((zero_column, u[:, :, None] * v[:, None, :], np.zeros((2, 3, 3))))


def _horn_near_singular():
    """Signed permutations of diag(1, 0.5, tiny), then rank two plus 1e-9 and 1e-13 noise."""
    rng = np.random.default_rng(49)
    rank_two = rng.standard_normal((400, 3, 2)) @ rng.standard_normal((400, 2, 3))
    return np.concatenate([ref.SIGNED_PERMUTATIONS * np.array([1.0, 0.5, tiny])
                           for tiny in (1e-16, -1e-16, 1e-8, -1e-100)]
                          + [rank_two + 1e-9 * rng.standard_normal((400, 3, 3)),
                             rank_two + 1e-13 * rng.standard_normal((400, 3, 3))])


def _horn_at_the_characteristic_time():
    # T is diagonal up to rounding, and its first entry is ~1e-16 here
    t = pauli_decompose(channel_rho4(np.array([0.1, 0.5, 1.0, 2.0, 3.0]), SQRT_HALF))
    assert abs(t[2, 1, 1]) < 1e-15
    return -t[..., 1:, 1:]


def _horn_integer():
    """Integer matrices, 250 of them singular."""
    rng = np.random.default_rng(50)
    m = rng.integers(-3, 4, size=(500, 3, 3)).astype(float)
    m[:250, 2] = m[:250, 0] + m[:250, 1]
    return m


def _by_exact_det(m):
    """The singular-value form with the exact sign of det M."""
    sv = np.linalg.svd(m, compute_uv=False)
    exact = np.array([ref.exact_det(x) for x in m])
    assert (exact[:250] == 0).all() and (exact[250:] != 0).any()
    return sv[:, 0] + sv[:, 1] + np.where(exact >= 0, sv[:, 2], -sv[:, 2])


def _linear_entropy_two_ulps(densities):
    """linear_entropy within two ulps of 1 - tr(rho^2) by the matrix product,
    counted at the larger term: random densities mixed with I/4, or the
    channel on 4 alpha by 500 r."""
    if densities == "mixtures":
        rng = np.random.default_rng(51)
        m = ref.random_density(rng, (2000,)).matrix
        mix = rng.uniform(0.0, 1.0, (2000, 1, 1))
        rho = TwoQubitDensity(mix * m + (1.0 - mix) * np.eye(4) / 4.0)
    else:
        grid = channel_rho4(np.array([0.1, 1.0, 2.0, 3.0]), np.linspace(0.0, 0.999, 500))
        rho = TwoQubitDensity(grid.matrix.reshape(-1, 4, 4))
    purity = np.trace(rho.matrix @ rho.matrix, axis1=-2, axis2=-1).real
    return linear_entropy(rho), 1.0 - purity, 2.0 * np.spacing(np.maximum(purity, 1.0 - purity))


# A real density is measured as the same density held as complex.  LAPACK's
# real and complex symmetric solvers round differently: their eigenvalues lie
# up to 6 eps apart on these densities (norm <= 1), and 8 eps is allowed.  E
# takes twice the one negative eigenvalue of the partial transpose.  vn_entropy
# keeps each eigenvalue l > 4 eps lambda_max >= eps, whose -l log2 l moves by at
# most (|log2 l| + 1.45) |dl| < 54 |dl|; one that a solver keeps and the other
# drops is under 12 eps, its term under 600 eps.  The bound, 1344 eps, is not the
# sum of those worst cases but 6.6 times the 204 eps these densities read.
REAL_DENSITY_METRICS = {"negativity_e": (negativity_e, 2 * 8 * EPS),
                        "vn_entropy": (em.vn_entropy, 4 * 42 * 8 * EPS)}


def _real_density(name):
    (metric, bound), real = REAL_DENSITY_METRICS[name], ref.real_densities()
    return metric(real), metric(TwoQubitDensity(real.matrix.astype(complex))), bound


# the qubit traced out: (the partial trace, the other qubit's Bloch vector)
PARTIAL_TRACES = {"second": ("ikjk->ij", np.s_[1:, 0]), "first": ("kikj->ij", np.s_[0, 1:])}


def _reduced_bloch(traced_out):
    """I/2 + b . sigma / 2 from pauli_decompose's local Bloch vector b against
    the partial trace of a random density."""
    (trace, part), rho = PARTIAL_TRACES[traced_out], ref.random_density(24)
    return (np.eye(2) / 2.0 + sum(b * p / 2.0 for b, p in zip(pauli_decompose(rho)[part], PAULIS)),
            np.einsum(trace, rho.matrix.reshape(2, 2, 2, 2)), 1e-12)


TRANSFER_CHANNELS = {"rho4": lambda: channel_rho4(1.0, 0.4),
                     **{f"random{k}": functools.partial(ref.random_density, k) for k in (1, 2, 3)}}


def _outcome_map(name):
    """bell_outcome_map against one contraction per outcome, on five arbitrary
    operators x, not only projectors: the map is linear."""
    channel, rng = TRANSFER_CHANNELS[name](), np.random.default_rng(61)
    lam = pr.bell_outcome_map(channel.matrix)
    xs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(5)]
    return ([np.einsum("aA,kaAil->kil", x, lam) for x in xs],
            [ref.branches_reference(x, channel) for x in xs], 1e-14)


def _moment_reference(name):
    """average_fidelity against the isotropic moments of the per-outcome
    contractions, for the scheme and then its best remapping: a global Pauli P
    after the corrections acts as P on Bob's half of the channel (Paulis commute
    up to a phase), so the best remapping is the best scheme average over the
    four rotated channels.  It reads exactly 0 here, so no bound is 3x its
    error; 1e-14 stays."""
    channel, eye = TRANSFER_CHANNELS[name](), np.eye(2, dtype=complex)
    rotated = [TwoQubitDensity(np.kron(eye, u) @ channel.matrix @ np.kron(eye, u.conj().T))
               for u in (eye,) + PAULIS]
    return ([pr.average_fidelity(pr.bloch_transfer(channel)),
             max(pr.average_fidelity(pr.bloch_transfer(rho)) for rho in rotated)],
            [average_fidelity_reference(channel, eye),
             max(average_fidelity_reference(channel, u) for u in (eye,) + PAULIS)], 1e-14)


def _bloch_transfer(name):
    """bloch_transfer against the outcome map contracted with the Paulis."""
    rho = TRANSFER_CHANNELS[name]()
    return (pr.bloch_transfer(rho), ref.bloch_transfer_reference(pr.bell_outcome_map(rho.matrix)),
            1e-15)


def _bell_diagonal(seed):
    """The exact average on a Bell-diagonal density, whose error is 1 eps: 2 eps,
    within 3x (1e-12 before)."""
    rho, want = ref.bell_diagonal(seed)
    return pr.average_fidelity(pr.bloch_transfer(rho)), want, 2 * EPS


# The swap's closed form against the stated form in 50-digit decimal, relative;
# measured 4.6 eps at most, where 1 - sin^2(2 th) sin(2 eta) evaluated as
# written lost 3.4e5 eps near pi/4.
SWAP_STATED_ETAS = np.concatenate([np.linspace(0.02, 1.55, 60), [
    math.pi / 4 + d for d in (0.0, -1e-2, 1e-2, -1e-4, 1e-4, -1e-6, 1e-6, -1e-9, 1e-9)],
    [1e-6, math.pi / 2 - 1e-6]])


def _swap_stated_form(alpha, eta):
    want = ref.concentration_success_decimal(alpha.tolist(), eta.tolist())
    got = pr.concentration_success_closed_form(alpha[:, None], eta).tolist()
    return ([[float(decimal.Decimal(p) - w) for p, w in zip(*rows)] for rows in zip(got, want)],
            0.0, 8 * EPS * np.abs(np.array(want, dtype=float)))


def _cv_max(quantity):
    """cv_max's x* and f* within an ulp of the 50-digit optimum
    x* = sqrt(ln(1 + sqrt 2) / 2), f* = (1 + sqrt 2) / 4, and the function at
    x* within an ulp of f*."""
    x_star, f_star = pr.cv_max()
    if quantity == "f(x*)":
        return pr.cv_fidelity(x_star) - f_star, 0.0, math.ulp(f_star)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        root2 = decimal.Decimal(2).sqrt()
        got, want = ((x_star, ((1 + root2).ln() / 2).sqrt()) if quantity == "x*"
                     else (f_star, (1 + root2) / 4))
        return float(decimal.Decimal(got) - want), 0.0, math.ulp(got)


ACCURACY = [
    *(_pair_row(f"{name}-{grid}", name, alphas, MODEL_R, functools.partial(
        model_bound, model="S" if name == "S" else "channel"))
      for name in ("E", "f", "Pauli", "trace", "S") for grid, alphas in MODEL_GRIDS.items()),
    *(_pair_row(f"envelope-{name}-{lo:g}-{hi:g}", name, _band(lo, hi), BAND_R, bound)
      for lo, hi, *bounds in ENVELOPE_BANDS for name, bound in zip("EfS", bounds)),
    *(_pair_row(f"pauli-{part}-{lo:g}-{hi:g}", "Pauli", _band(lo, hi), BAND_R, bound,
                PAULI_PARTS[part])
      for lo, hi, vs, t in PAULI_BANDS for part, bound in zip("vst", (vs, vs, t))),
    _referee_row("referee-E-stated-form", E_DECIMAL_POINTS, ("closed_form_e",)),
    # the referee resolves E where floats barely do
    Row("referee-E-at-3-0.99", {"(alpha, r)": [(3.0, 0.99)]}, lambda points: (
        [float(decimal_channel(*points[0]).e)], 8.35e-17, 1e-3 * 8.35e-17)),
    _referee_row("referee-vst-margin-f", DECIMAL_POINTS, ("v", "s", "t11", "t22", "t33", "margin",
                                                          "closed_form_f"), float_squares=True),
    _referee_row("referee-routes-where-t-rounds-r-away", DECAY_EXPONENT_POINTS,
                 ("closed_form_e", "negativity_e", "closed_form_f", "optimal_fidelity",
                  "closed_form_s", "linear_entropy")),
    # closed_form_e at every 8th r of the alpha = 3 grid, the bits fig2a prints there
    _referee_row("referee-E-alpha-3", [(3.0, r) for r in np.linspace(0.0, 0.999, 200)[::8]],
                 ("closed_form_e",), rel=1e-13),
    *(row for grid_id, argv in FIG_GRIDS.items() for row in _fig_rows(grid_id, argv)),
    *(_cli_row(f"bellmeas-{grid_id}", ["bellmeas", *argv], itemgetter("p_i_numeric"),
               itemgetter("p_i_closed"),
               lambda col: 16 * EPS * col["p_i_closed"] + col["tail_bound"])
      for grid_id, argv in BELLMEAS_GRIDS.items()),
    *(_cli_row(f"concentrate-{got}-{grid_id}", ["concentrate", *argv], itemgetter(got),
               itemgetter(want), lambda col: 32 * EPS)
      for grid_id, argv in CONCENTRATE_GRIDS.items() for got, want in CONCENTRATE_PAIRS.items()),
    Row("swap", SWAP_GRID, _swap),
    Row("singlet-fraction-best-bell-projection",
        {"alpha": np.array([0.3, 1.0, 2.0]), "r": np.array([0.0, 0.4, SQRT_HALF, 0.9])},
        _best_bell_projection),
    Row("optimal-fidelity-scheme-optimum",
        {"alpha": np.array([0.5, 1.0]), "r": np.array([0.2, 0.6, SQRT_HALF, 0.9])},
        _scheme_optimum),
    # the coherent algebra
    Row("beam-split-fock-unitary", {"state": range(5)}, _each(_beam_split_fock, 10)),
    Row("fock-norm-within-tail", {"modes": (1, 2), "state": range(10)}, _each(_fock_norm, 13)),
    Row("fock-cross-inner-within-tail", {"pair": range(10)}, _each(_fock_cross_inner, 14)),
    Row("inner-double-loop", {"(terms, modes)": ref.sizes(41)}, _each(_inner_loop, 40)),
    Row("project-modes-double-loop", {"(terms, modes)": ref.sizes(43)},
        _each(_project_modes_loop, 42)),
    Row("operator-trace-loop", {"(terms, modes)": ref.sizes(45)}, _each(_operator_trace_loop, 44)),
    *_cases("to-fock-outer-products", "(modes, cutoff)", [(1, None), (2, None), (3, 10), (4, 6)],
            _to_fock_loop),
    # decoherence
    *_cases("kraus-channel-density", "(alpha, r)", [(0.5, 0.3), (0.8, 0.9), (1.0, 0.5), (1.2, 0.99),
                                                    (1.5, 0.6), (2.0, 0.2), (2.0, 0.99)],
            _kraus_channel),
    Row("kraus-random-complex-dyads", {"draw": range(24)}, _each(_kraus_dyad, 61)),
    # the metrics
    Row("singlet-rotation-optimum-enumeration",
        {"alpha": np.array([0.5, 1.0, 1.5]), "r": np.array([0.1, 0.6, 0.9])}, _rotation_enumerated),
    *(Row(f"horn-{name}", {"matrices": (name,)}, _horn(*args)) for name, *args in (
        ("random", lambda: np.random.default_rng(47).standard_normal((2000, 3, 3))),
        ("singular", _horn_singular), ("near-singular", _horn_near_singular),
        ("channel-at-the-characteristic-time", _horn_at_the_characteristic_time),
        ("integer-matrices", _horn_integer, _by_exact_det))),
    *_cases("linear-entropy-two-ulps", "densities", ("mixtures", "channel"),
            _linear_entropy_two_ulps),
    *_cases("real-density-as-complex", "metric", REAL_DENSITY_METRICS, _real_density),
    Row("fidelity-margin-f-minus-two-thirds",
        {"alpha": np.array([0.05, 0.5, 1.0, 2.0, 3.0]), "r": np.linspace(1e-6, 0.9995, 101)},
        lambda a, r: (em._fidelity_margin(a, r), closed_form_f(a, r) - 2.0 / 3.0, 1e-14)),
    *_cases("pauli-reduced-bloch", "qubit traced out", PARTIAL_TRACES, _reduced_bloch),
    # the protocols
    *_cases("bell-outcome-map-contraction", "channel", TRANSFER_CHANNELS, _outcome_map),
    *_cases("average-fidelity-moment-reference", "channel", TRANSFER_CHANNELS, _moment_reference),
    *_cases("bloch-transfer-contraction", "channel", TRANSFER_CHANNELS, _bloch_transfer),
    Row("bell-diagonal-average", {"seed": (52,)}, _each(_bell_diagonal)),
    # concentrate_ideal against the traces of the pairs that the swap
    # teleports (measured: 5.6e-17 at most)
    Row("ideal-swap-teleported-pairs", {"eta": ref.IDEAL_ETAS}, _each(lambda eta: (
        pr.concentrate_ideal(eta), np.einsum("kii->k", ref.swapped_pairs(eta)).real, 1e-16))),
    Row("swap-closed-form-stated-form",
        {"alpha": np.geomspace(1e-3, 3.0, 25), "eta": SWAP_STATED_ETAS}, _swap_stated_form),
    *_cases("cv-max-50-digits", "quantity", ("x*", "f*", "f(x*)"), _cv_max),
]


@pytest.mark.parametrize("row", ACCURACY, ids=[row.id for row in ACCURACY])
def test_each_route_within_its_bound_of_its_oracle(row):
    holds, _, ratio, err, bound, where = measure(row)
    assert holds, f"{row.id}: err/bound {ratio:.3g} ({err:.3e} > {bound:.3e}) at {where}"


def test_a_decay_exponent_of_one_minus_t_squared_fails_the_decimal_check(monkeypatch):
    # a mutant decohere, damping by 1 - t * t of from_r's t instead of r * r
    decohere = dec.decohere
    monkeypatch.setattr(dec, "decohere", lambda rho, clock: decohere(
        rho, types.SimpleNamespace(t=clock.t, loss=1.0 - clock.t * clock.t)))
    row, = (row for row in ACCURACY if row.id == "referee-routes-where-t-rounds-r-away")
    assert not measure(row)[0]


if __name__ == "__main__":
    print(f"{'row':38}  {'points':>7}  {'err/bound':>9}  {'err/eps':>9}  {'bound/eps':>9}  at")
    failed, loose = False, []
    for row in ACCURACY:
        try:
            holds, points, ratio, err, bound, where = measure(row)
        except Exception as exc:  # a route that refuses its point fails its row
            traceback.print_exc()
            print(f"{row.id:38}  raised {type(exc).__name__}: {exc}")
            failed = True
            continue
        failed |= not holds
        if ratio < 0.01 and bound > 0.0:
            loose.append(row.id)
        print(f"{row.id:38}  {points:7d}  {ratio:9.3g}  {err / EPS:9.3g}  {bound / EPS:9.3g}  "
              f"{where}")
    print(f"below 0.01 of the bound: {', '.join(loose) or 'none'}")
    raise SystemExit(failed)
