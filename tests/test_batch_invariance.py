"""Same bits: each entry has the bits of its own scalar call, and each function
that names a reference matches its reference bit for bit.

Every sweep of the CLI is one batched call, so each byte-identity claim of a
render rests on the first contract.  ``REGISTRY`` maps every function whose
docstring states it, in the words of ``CONTRACT``, to its batched calls: 0-d,
(1,), (N,), the CLI's (A, 1) x (1, N) grids, non-contiguous views and lists
where the function takes them.  Each entry of a call is compared with its own
call by ``tobytes``, so +-0 counts, and a 0-d call returns a Python ``float``
where the return annotation names one.

``REFERENCES`` holds the second, stated in the words of ``CLAIM``: one ``Row``
per function and reference (``tests/reference.py``), its cases, each a list of
calls, and how to compare: the arrays' dtypes, shapes and bytes, or ``repr`` for
Python values and text.  Each (function, case) pair of either table is its own
test, so a failure names the function and the case.  To register a function,
state its phrase in its docstring and add an entry or a row: each static test
fails on a docstring with its phrase and no entry or row, and on an entry or
row whose function lacks the phrase.
"""
import ast
import collections
import functools
import itertools
import math
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest

from ecsim import cli
from ecsim import coherent_states as cs
from ecsim import decoherence as dec
from ecsim import entanglement_metrics as em
from ecsim import protocols as pr
from ecsim import qubit_encoding as qe
from ecsim.qubit_encoding import TwoQubitDensity
import reference as ref
from reference import (IDEAL_ETAS, LOG_ALPHAS, PINNED_ALPHAS, TAIL_MEANS, operator_sum,
                       random_density)

CONTRACT = "each entry has the bits of its own scalar call"
CLAIM = "matches its reference bit for bit"
# Rows of np.linspace(0, 0.99, 20001) where a scalar r once lost the bits of its grid
# row at alpha = 1.3 (27 of E, 14 of f, 13 shared): numpy's x**2 is libm's pow on a
# float64 scalar but a product on an array.
POW_ROWS = [455, 1926, 2687, 3095, 4245, 4317, 4448, 4521, 5254, 5521, 5601, 6088, 6560, 6566,
            6874, 7101, 7583, 8936, 9314, 9991, 10748, 11552, 11760, 12339, 12578, 15033, 18579,
            18918]
# B1 plus 0.3 B2 at alpha = 1.1, for decohere
DYADS = operator_sum(*((w, cs.dyad_from_pure(qe.bell_state(k, qe.make_basis(1.1, 1.0))))
                       for w, k in ((1, 1), (0.3, 2))))


def _entries(args, dims):
    """Each entry of a call on ``args``, which broadcast over all but each
    one's last ``dims`` axes: its index there, and its own arguments, the
    0-d ones as Python numbers."""
    arrays = [np.asarray(a) for a in args]
    lead = np.broadcast_shapes(*(a.shape[:a.ndim - d] for a, d in zip(arrays, dims)))
    tails = [a.shape[a.ndim - d:] for a, d in zip(arrays, dims)]
    flat = [np.broadcast_to(a, lead + tail).reshape((-1,) + tail) for a, tail in zip(arrays, tails)]
    return list(zip(np.ndindex(lead), zip(*(list(a) if tail else a.tolist()
                                             for a, tail in zip(flat, tails)))))


def _split(*dims):
    return lambda *args: _entries(args, dims)


def _outer(alpha, r):
    """Entries of a call on (alpha, r), alpha's axes ahead of r's.  Past 400
    points an entry is an amplitude's row over all of r, to bound the calls."""
    if np.size(alpha) * np.size(r) > 400:
        return _entries((alpha, r), (0, np.ndim(r)))
    return _entries((np.reshape(alpha, np.shape(alpha) + (1,) * np.ndim(r)), r), (0, 0))


def _alpha_column(seed, uniform, log):
    """The pinned amplitudes, ``uniform`` in [1e-3, 3] and ``log`` log-uniform
    in [1e-3, 1e6], drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return np.concatenate((PINNED_ALPHAS, rng.uniform(1e-3, 3.0, uniform),
                           10.0 ** rng.uniform(-3.0, 6.0, log)))


def _channel():
    column = _alpha_column(45, 40, 20)
    three, r57, r41 = np.array([0.1, 1.0, 2.5]), np.linspace(0, .995, 57), np.linspace(0, .995, 41)
    at_pow = [np.linspace(0, 0.99, 4001)[406]] + np.linspace(0, 0.999, 4001)[[54, 2698]].tolist()
    return [(np.array(0.7), np.array(0.3)), (np.float64(1.3), np.linspace(0.0, 0.9, 5)),
            (np.array([1.3]), np.array([0.4])), (three, r57), (2.5, r57[1:].reshape(7, 8)),
            (three, r41), (0.1, r41[1:].reshape(5, 8)), (1.3, np.linspace(0.0, 0.99, 23)),
            (np.array([[0.2, 1.0, 3.0], [0.5, 1.5, 40.0]]), np.linspace(0.0, 0.9, 5)),
            (np.array([0.5, 1.0, 2.0]), 0.3), (np.array([0.5, 1.0, 2.0]), np.linspace(0, 0.99, 7)),
            (column, np.linspace(0.0, 0.995, 31)), (LOG_ALPHAS, np.linspace(0.0, 0.995, 400)),
            (LOG_ALPHAS, 0.5), (column[::2], r57[::2]), (1.0, [0.1, 0.2]), ([0.5, 1.0], 0.3),
            ([[0.5], [1.0]], [0.1, 0.7]), (1.3, np.linspace(0.0, 0.99, 20001)[POW_ROWS]),
            (0.7, np.array(at_pow))]


def _densities():
    """Seed 44's five and ten channel densities, seed 46's twenty, a 4 x 25
    channel grid and seed 25's six."""
    rng = np.random.default_rng(44)
    first = [random_density(rng).matrix for _ in range(5)]
    first = np.stack(first + list(dec.channel_rho4(1.3, np.linspace(0.0, 0.99, 10)).matrix))
    rng = np.random.default_rng(46)
    second = np.stack([random_density(rng).matrix for _ in range(20)])
    grid = dec.channel_rho4(np.array([2e-3, 0.7, 2.5, 13.4]), np.linspace(0.0, 0.995, 25)).matrix
    rng = np.random.default_rng(25)
    third = np.stack([random_density(rng).matrix for _ in range(6)])
    every = np.concatenate((first, second, grid.reshape(-1, 4, 4), third))
    return [(first.reshape(3, 5, 4, 4),), (grid,), (third.reshape(2, 3, 4, 4),), (every,),
            (second[:1],), (every[::2],), (list(third),)]


def _transfer_densities():
    """Seeds 1-5, the channel at (1.0, 0.4), 37 r at alpha = 0.7, a 3 x 13 grid."""
    mats = [random_density(seed).matrix for seed in (1, 2, 3)]
    mats += [dec.channel_rho4(1.0, 0.4).matrix] + [random_density(seed).matrix for seed in (4, 5)]
    mats += list(dec.channel_rho4(0.7, np.linspace(0.0, 0.99, 37)).matrix)
    grid = dec.channel_rho4(np.array([0.05, 0.7, 2.3]), np.linspace(0.0, 0.99, 13)).matrix
    return np.concatenate((np.stack(mats), grid.reshape(-1, 4, 4)))


def _transfers():
    # complex draws among channel densities, then real channel densities alone,
    # as the CLI passes them: the kernel has a path for each dtype
    m = _transfer_densities()
    real = dec.channel_rho4(np.array([0.05, 0.7, 2.3]), np.linspace(0.0, 0.99, 13)).matrix
    return [(m[:n],) for n in (1, 2, 3, 5, 41, 82)] + [(m.reshape(2, 41, 4, 4),), (m[::2],),
            (real[1, 4],), (real[1, :1],), (real[1],), (real,), (real[::2],)]


def _fidelities():
    # every batch size from 1 to 41, where a kernel could choose its path by size
    q = pr.bloch_transfer(TwoQubitDensity(_transfer_densities()))
    return [(q[:n],) for n in range(1, 42)] + [(q[:41, None],), (q.reshape(2, 41, 4, 4, 4),),
                                               (q[::2],)]


def _rotations():
    rng = np.random.default_rng(53)
    m = np.concatenate((rng.standard_normal((200, 3, 3)),
                        rng.integers(-3, 4, size=(50, 3, 3)).astype(float)))
    return [(m.reshape(10, 25, 3, 3),), (m,), (m[:1],), (m[::2],), (m[:3].tolist(),)]


def _bases(n):
    """The first ``n`` of 20000 random amplitudes at four t, and of 20000 t
    at alpha = 1.3: a scalar square by libm's pow once moved the pair or
    n_theta of 15 of those amplitudes at t = 1, and of 10 of those t."""
    alphas = np.random.default_rng(48).uniform(0.01, 3.0, 20000)[:n]
    times = np.random.default_rng(49).uniform(0.05, 1.0, 20000)[:n]
    return [(alphas, t) for t in (1.0, 0.8, 0.3, 0.05)] + [
        (1.3, times), (0.9, np.array([1.0, 0.7, 0.3])), (alphas[:20, None], times[:25]),
        (np.array(0.9), np.array(0.7)), (np.array([0.9]), np.array([0.7])),
        (alphas[:1000:2], times[:1000:2])]


def _times(*more):
    """Grids in [0.05, 1), and ``more``: a basis's factors t, or a clock's times r."""
    t = np.random.default_rng(62).uniform(0.05, 1.0, 400)
    return [(np.array(0.6),), (np.array([0.4]),), (t,), (t.reshape(20, 20),), (t[::2],), *more]


def _project(fn, t):
    """``fn`` on half |a, -a><a, -a| plus half |-a, a><-a, a| at a = 0.8 t."""
    basis = qe.make_basis(0.8, t)
    a = basis.amplitude
    kets = np.array([[a, -a], [-a, a]], dtype=complex)
    return fn(cs.CoherentOperator(np.full((2,) + np.shape(a), 0.5 + 0j), kets, kets), basis)


class Entry(NamedTuple):
    cases: Callable  # () -> the argument tuples of batched calls
    split: Callable  # (*args) -> [(index of an entry, its own arguments)]
    call: Callable = lambda fn, *args: fn(*args)
    parts: Callable = lambda out: (out,)  # the output's arrays, the batch's axes leading


def _matrix(rho):
    return (rho.matrix,)


TAILS = np.array(TAIL_MEANS + [np.inf, 1e300])
ETAS, ALPHAS = np.linspace(0.02, 1.55, 60), np.geomspace(1e-3, 3.0, 25)
CV = np.linspace(-2.0, 4.0, 301)
CHANNEL = Entry(_channel, _outer)
DENSITY = Entry(_densities, _split(2), lambda fn, m: fn(TwoQubitDensity(m)))
BASIS = Entry(None, _split(0, 0), parts=lambda b: (b.amplitude, *b.cos_sin, b.n_theta, b.sin2theta))
REGISTRY = {
    cs.poisson_tail_bound: Entry(lambda: [(k, TAILS.reshape(2, -1)) for k in (0, 3, 14, 50, 299)]
                                 + [(14, TAILS), (14, np.array(15.0)), (14, np.array([15.0])),
                                    (14, TAILS[::2]), (14, TAIL_MEANS[:8])], _split(0, 0)),
    qe.make_basis: BASIS._replace(cases=lambda: _bases(20000) + [
        ([0.5, 1.3, 2.0], 0.8), ([[0.5], [1.3]], np.array([1.0, 0.3]))]),
    qe.basis_in_range: BASIS._replace(cases=lambda: _bases(500)),
    qe.project_to_density: Entry(lambda: _times((np.array([1.0, 0.6, 0.25]),)), _split(0),
                                 _project, _matrix),
    dec.decohere: Entry(lambda: _times((np.array([[0.0, 0.6], [0.5, 0.2]]),)), _split(0),
                        lambda fn, r: fn(DYADS, dec.DecayClock.from_r(r)),
                        lambda op: (np.moveaxis(op.coeffs, 0, -1), *(
                            np.moveaxis(x, (0, 1), (-2, -1)) for x in (op.kets, op.bras)))),
    dec.channel_rho4: CHANNEL._replace(parts=_matrix),
    **dict.fromkeys([dec.closed_form_vst, em.closed_form_e, em.closed_form_f, em.closed_form_s,
                     em._fidelity_margin], CHANNEL),
    **dict.fromkeys([qe.pauli_decompose, em.negativity_e, em.singlet_fraction,
                     em.optimal_fidelity, em.linear_entropy, em.vn_entropy], DENSITY),
    em.max_rotation_trace: Entry(_rotations, _split(2)),
    pr.bell_outcome_map: Entry(_transfers, _split(2)),
    pr.bloch_transfer: Entry(_transfers, _split(2), DENSITY.call),
    pr.average_fidelity: Entry(_fidelities, _split(3)),
    pr.concentrate_ideal: Entry(lambda: [
        (np.array(IDEAL_ETAS),), (np.array(IDEAL_ETAS)[:, None],), (list(IDEAL_ETAS),),
        (np.array(0.5),), (np.array([0.5]),), (ETAS.reshape(6, 10),), (ETAS[::2],)], _split(0)),
    pr.concentration_success_closed_form: Entry(lambda: [
        (ALPHAS[:, None], ETAS), (np.array(1.0), np.array(0.3)), (np.array([1.0]), np.array([0.3])),
        (1.0, ETAS), (ALPHAS[::2, None], ETAS[::2]), ([1.0, 2.0], 0.3),
        ([[0.5], [2.0]], ETAS[:3])], _split(0, 0)),
    pr.cv_fidelity: Entry(lambda: [
        (CV,), (CV.reshape(7, 43),), (np.array(0.7),), (np.array([0.7]),), (CV[::2],),
        ([0.0, 0.7, -1.5],), (np.array([1e200, -1e300, 1e154, 2.0]),)], _split(0)),
}


def _name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}"


@functools.cache
def _cases(table_entry):
    return table_entry.cases()


@pytest.mark.parametrize("fn, case", [(fn, case) for fn in REGISTRY
                                      for case in range(len(_cases(REGISTRY[fn])))],
                         ids=lambda x: _name(x) if callable(x) else str(x))
def test_each_entry_has_the_bits_of_its_own_scalar_call(fn, case):
    _, split, call, parts = REGISTRY[fn]
    floats = "float" in str(fn.__annotations__["return"])  # a Python float for a 0-d call
    args = _cases(REGISTRY[fn])[case]
    entries = split(*args)
    ones = [call(fn, *one) for _, one in entries]
    assert ones and all(type(x) is float for x in ones if floats and np.ndim(x) == 0)
    at = tuple(np.array([index for index, _ in entries]).T)  # an index array an axis
    for got, want in zip(parts(call(fn, *args)), zip(*map(parts, ones)), strict=True):
        got = np.asarray(got)[at] if at else np.asarray(got)[None]
        want = np.array(want)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        if got.tobytes() != want.tobytes():
            bad = [i for (i, _), g, w in zip(entries, got, want) if g.tobytes() != w.tobytes()]
            pytest.fail(f"{len(bad)} entries differ, first at {bad[:3]}")


def _stating(phrase) -> set[str]:
    """``module.qualname`` of each function of src/ecsim whose docstring has ``phrase``."""
    stated = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "ecsim").glob("*.py")):
        nodes = [(node, "") for node in ast.parse(path.read_text()).body]
        for node, prefix in nodes:
            if isinstance(node, ast.ClassDef):
                nodes += [(item, f"{prefix}{node.name}.") for item in node.body]
            elif isinstance(node, ast.FunctionDef) and phrase in " ".join(
                    (ast.get_docstring(node) or "").split()):
                stated.add(f"{path.stem}.{prefix}{node.name}")
    return stated


def test_registry_is_every_function_that_states_the_contract():
    stated, registered = _stating(CONTRACT), {_name(fn) for fn in REGISTRY}
    assert not stated - registered, f"no registry entry: {sorted(stated - registered)}"
    assert not registered - stated, f"no contract in the docstring: {sorted(registered - stated)}"


# ---------------------------------------------------------------------------
# each function whose docstring says it matches a named reference


def _array_bits(x) -> list:
    """Each array's dtype, shape and bytes, so that +-0 counts: a density's
    matrix, a superposition's coefficients and amplitudes, or the arrays given."""
    if isinstance(x, TwoQubitDensity):
        x = x.matrix
    elif isinstance(x, cs.CoherentSuperposition):
        x = x.coeffs, x.amps
    arrays = x if type(x) is tuple else (x,)
    return [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]


class Row(NamedTuple):
    fn: Callable
    reference: Callable  # (*args) -> what fn's call must match
    cases: Callable  # () -> the cases, each a list of argument tuples
    call: Callable = lambda fn, *args: fn(*args)  # -> fn's output as the reference gives it
    bits: Callable = _array_bits  # or repr, which tells +-0, int, float and numpy's scalars apart


def _unchecked(fn, *args):
    """``fn``'s matrix before the density checks, which random dyads fail, and the
    trace check at alpha = 1e-3 and some r."""
    with mock.patch.object(qe, "TwoQubitDensity", lambda m: SimpleNamespace(matrix=m)):
        return fn(*args).matrix


def _pauli_cases():
    """Seed 26's random batches, channel grids, and signed zeros."""
    rng = np.random.default_rng(26)
    return [[(random_density(rng, shape),) for shape in ((), (1,), (2,), (3, 5), (600,))],
            [(dec.channel_rho4(*grid),) for grid in (
                (np.array([0.1, 1.0, 2.5]), np.linspace(0.0, 0.995, 400)),
                (np.array([2e-3, 13.4, 1e6]), np.linspace(0.0, 0.995, 50)),
                (1.0, 1.0 / math.sqrt(2.0)))],
            [(ref.signed_zero_density(),)]]


def _mc_call(fn, chunk, *args):
    with mock.patch.object(pr, "MC_CHUNK", chunk):
        return fn(*args)


def _writer_tables():
    """Each command's table at its defaults, then tables of extreme values."""
    defaults = [cli._ROW_BUILDERS[command](cli._parse([command, *argv]))
                for command, argv in ref.DEFAULT_ARGV.items()]
    return [[(table,)] for table in defaults + list(ref.WRITER_TABLES.values())]


def _table_rows(fn, argv):
    """The rows of the table that ``argv``'s command builds; its builder calls ``fn``."""
    return ref.row_tuples(cli._ROW_BUILDERS[argv[0]](cli._parse(argv)))


FIG = "--alphas 0.001 0.05 0.7 2.3 14 1e6 --r-min 0.05 --r-max 0.99 --r-steps 9"
REFERENCES = [
    Row(qe.bell_state, ref.bell_reference, lambda: [
        [(k, qe.make_basis(alpha, t)) for k in (1, 2, 3, 4)]
        for alpha in (1e-3, 0.1, 1.0, 2.5, 30.0, 1e6) for t in (1.0, 0.3)]),
    Row(qe.bell_coeffs, ref.bell_coeffs_reference, lambda: [
        [(k, basis)] for basis in ref.bell_coeff_bases() for k in (1, 2, 3, 4)]),
    Row(qe.project_to_density, ref.project_reference, ref.channel_projections, _unchecked),
    Row(qe.project_to_density, ref.five_operand_einsum, lambda: [
        [ref.random_dyads(grid)] for grid in ((), (7,), (128,), (3, 50))], _unchecked),
    Row(qe.pauli_decompose, ref.pauli_reference, _pauli_cases),
    *(Row(fn, lambda rho, fn=fn: fn(TwoQubitDensity(rho.matrix.astype(complex))),
          lambda: [[(ref.real_densities(),)]])  # a real density's complex copy
      for fn in (qe.pauli_decompose, em.linear_entropy, em.singlet_fraction, em.optimal_fidelity)),
    Row(cs.to_fock, ref.division_to_fock, lambda: [
        ref.signed_zero_fock_states(modes) for modes in (1, 2, 3, 4)], lambda fn, *a: fn(*a).amps),
    Row(cs.consolidate, ref.sequential_merge, lambda: [[(s,) for s in ref.ulp_apart_states()]] + [
        [(ref.signed_zero_repeats(terms),)] for terms in (8, 64, 256, 1024)]),
    Row(dec.channel_rho4, ref.channel_per_amplitude, lambda: [
        [(_alpha_column(47, 30, 10), r)] for r in (np.linspace(0.0, 0.995, 23), 0.5)]),
    *(Row(fn, lambda alphas, r, fn=fn: np.stack([ref.closed_forms_one_amplitude(alpha, r)[fn]
                                                 for alpha in alphas.tolist()]),
          lambda: [[(_alpha_column(45, 40, 20), np.linspace(0.0, 0.995, 31))]])
      for fn in (em.closed_form_e, em.closed_form_f, em.closed_form_s)),
    Row(pr.bell_measure_distribution, ref.bell_cells, lambda: [
        [(qe.bell_state(k, qe.make_basis(alpha, 1.0)),) for k in (1, 2, 3, 4)]
        for alpha in (0.3, 1.0, 1.7, 3.0)], lambda fn, state: fn(state).outcomes, repr),
    Row(pr.teleport_average_mc, lambda chunk, *args: ref.mc_kernel_reference(*args),
        ref.mc_block_edges, _mc_call, repr),
    *(Row(fn, reference, _writer_tables, bits=repr)
      for fn, reference in ((cli._to_csv, ref.csv_by_rows), (cli._to_json, ref.json_by_rows))),
    Row(cli._rows_teleport_mc, ref.teleport_rows_per_point, lambda: [[(
        "teleport-mc --alphas 0.3 1.7 --r-min 0.05 --r-max 0.93 --r-steps 5 --samples 37 "
        "--seed 5".split(),)]], _table_rows, repr),
    Row(cli._rows_teleport_mc, ref.rows_per_alpha, lambda: [[(
        "teleport-mc --alphas 0.3 1.7 2.9 --r-max 0.93 --r-steps 4 --samples 23 "
        "--seed 11".split(),)]], _table_rows, repr),
    Row(cli._rows_fig, ref.rows_per_alpha, lambda: [
        [(f"{command} {FIG}".split(),)] for command in ("fig2a", "fig2b", "fig3")],
        _table_rows, repr),
]


_REFERENCE_ITEMS = [(row, calls) for row in REFERENCES for calls in _cases(row)]
_NUMBERS = collections.defaultdict(itertools.count)  # a function's cases over its rows


@pytest.mark.parametrize("row, calls", _REFERENCE_ITEMS, ids=[
    f"{_name(row.fn)}-{next(_NUMBERS[row.fn])}" for row, _ in _REFERENCE_ITEMS])
def test_each_function_matches_its_reference(row, calls):
    fn, reference, _, call, bits = row
    assert calls
    for i, args in enumerate(calls):
        assert bits(call(fn, *args)) == bits(reference(*args)), f"call {i} of {len(calls)}"


def test_references_are_every_function_that_states_the_claim():
    stated, rowed = _stating(CLAIM), {_name(row.fn) for row in REFERENCES}
    assert not stated - rowed, f"no row: {sorted(stated - rowed)}"
    assert not rowed - stated, f"no claim in the docstring: {sorted(rowed - stated)}"
