"""Command-line front end: figure data files and protocol experiments.

Every command emits plot-ready records (CSV or JSON) built from the library;
closed-form and numeric columns are emitted side by side.  Identical
configuration and seed give byte-identical output.

Exit codes: 0 success, 2 configuration error, 3 numeric guard tripped,
4 I/O error, 1 failed acceptance report.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import decoherence as dec
from . import entanglement_metrics as em
from . import protocols as pr
from . import qubit_encoding as qe
from .errors import CutoffError, DegenerateBasisError, DensityError, ZeroNormError


class ConfigError(ValueError):
    pass


DEFAULT_ALPHAS = (0.1, 1.0, 2.0)
DEFAULT_ETAS = (math.pi / 8, math.pi / 6, math.pi / 3)
# Largest amplitude accepted.  Every output is at its large-amplitude limit
# far below it (e^{-4 alpha^2} underflows past alpha ~ 13.4); the library
# refuses alpha past ~6.7e153, where 4 alpha^2 overflows.
MAX_ALPHA = 1e6
# Largest Fock truncation tail bellmeas accepts; a larger one exits 3.
BELLMEAS_TAIL_TOL = 1e-9
# Largest sizes the flags accept, checked before anything is allocated, so
# that no command asks for more than ~256 MiB of working memory (as
# coherent_states.FOCK_CELL_BUDGET).  Measured peaks (tracemalloc): 8 B per Monte
# Carlo shot, its fidelity, plus one block's ~1.53 MB of work arrays, draws and
# phase order (58 MiB at MAX_SAMPLES; sized at 36 B from when the draws were made up front);
# ~0.9 kB per (alpha, r) point in a whole fig or teleport-mc render (the batched
# real density and its checks set it), sized at ~1.8 kB
# (125 MiB at MAX_R_POINTS over 3 alphas); ~0.33 kB per cv point in JSON, 0.2 kB in CSV
# (sized at 1.2 kB, over 3x that; MAX_AR_STEPS points peak at ~74 MB).
_SIZE_BUDGET = 2**28
MAX_SAMPLES = _SIZE_BUDGET // 36
MAX_R_POINTS = _SIZE_BUDGET // 1800
MAX_AR_STEPS = _SIZE_BUDGET // 1200
# Most randomized cases per report property suite (suite 10.7: ~1 s per 1000).
MAX_PROPERTY_CASES = 10**5


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ConfigError instead of exiting and reads a
    negative number in any spelling (-5e-1, -inf) as a value, not a flag; its
    subparsers are of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own test, consulted for a token no flag matches, reads
        # only -1 and -.5 as negative numbers
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it.

    Each command holds only the flags it reads; ``commands`` maps each
    command's name to its own parser."""
    parser = _Parser(
        prog="ecsim",
        description="Entangled-coherent-channel sweeps and protocol experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--alphas": dict(type=float, nargs="+", default=DEFAULT_ALPHAS),
        "--r-min": dict(type=float, default=0.0),
        "--r-max": dict(type=float, default=0.995),
        "--r-steps": dict(type=int, default=200),
        "--seed": dict(type=int, default=12345),
        "--samples": dict(type=int, default=10000),
        "--cutoff": dict(type=int, default=None),
        "--etas": dict(type=float, nargs="+", default=DEFAULT_ETAS),
        "--ar-min": dict(type=float, default=0.0),
        "--ar-max": dict(type=float, default=2.0),
        "--ar-steps": dict(type=int, default=201),
        "--property-cases": dict(type=int, default=1000),
        "--format": dict(dest="fmt", choices=("csv", "json"), default="csv"),
        "--output": dict(type=str, default="-"),
    }
    sweep = ("--alphas", "--r-min", "--r-max", "--r-steps")
    table = ("--format", "--output")
    for name, names in (
        ("fig2a", sweep + table),
        ("fig2b", sweep + table),
        ("fig3", sweep + table),
        ("teleport-mc", sweep + ("--seed", "--samples") + table),
        ("bellmeas", ("--alphas", "--cutoff") + table),
        ("concentrate", ("--alphas", "--etas") + table),
        ("cv", ("--ar-min", "--ar-max", "--ar-steps") + table),
        ("report", ("--property-cases", "--output")),
    ):
        p = sub.add_parser(name)
        for flag in names:
            p.add_argument(flag, **flags[flag])
    parser.commands = sub.choices
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parse and validate a command line; raises ConfigError on bad values.

    A command's own parser reads its flags, as the top-level parser would hand
    them on; anything else (no arguments, an unknown command, -h) goes to the
    top-level parser for its messages.  Each check runs only when the command
    has the flag it checks."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _parser().commands.get(argv[0]) if argv else None
    if command is None:
        args = _parser().parse_args(argv)
    else:
        args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    given = vars(args)
    if "r_steps" in given:
        if not (0.0 <= args.r_min <= args.r_max):
            raise ConfigError("need 0 <= r_min <= r_max")
        if args.r_max >= 1.0:
            raise ConfigError("r_max must be < 1")
        if args.r_steps < 2:
            raise ConfigError("r_steps must be >= 2")
        if args.r_steps * len(args.alphas) > MAX_R_POINTS:
            raise ConfigError(f"r_steps times the number of alphas must be <= {MAX_R_POINTS}")
    if "samples" in given and not 1 <= args.samples <= MAX_SAMPLES:
        raise ConfigError(f"samples must lie in [1, {MAX_SAMPLES}]")
    if given.get("cutoff") is not None and args.cutoff < 1:
        raise ConfigError("cutoff must be >= 1")
    if "seed" in given and args.seed < 0:
        raise ConfigError("seed must be >= 0")
    if "property_cases" in given and not 1 <= args.property_cases <= MAX_PROPERTY_CASES:
        raise ConfigError(f"property-cases must lie in [1, {MAX_PROPERTY_CASES}]")
    if "alphas" in given and not all(0 < a <= MAX_ALPHA for a in args.alphas):
        raise ConfigError(f"alphas must lie in (0, {MAX_ALPHA:g}]")
    if "etas" in given and not all(0.0 < eta < math.pi / 2 for eta in args.etas):
        raise ConfigError("etas must lie in (0, pi/2)")
    if "ar_steps" in given:
        # a finite width implies finite ends, and keeps the grid from overflowing
        if not (math.isfinite(args.ar_max - args.ar_min) and args.ar_min <= args.ar_max):
            raise ConfigError("need finite ar-min <= ar-max with a finite width")
        if not 2 <= args.ar_steps <= MAX_AR_STEPS:
            raise ConfigError(f"ar-steps must lie in [2, {MAX_AR_STEPS}]")
    return args


def _r_grid(args: argparse.Namespace) -> np.ndarray:
    """The r grid of a sweep command."""
    return np.linspace(args.r_min, args.r_max, args.r_steps)


# ---------------------------------------------------------------------------
# column tables: column name -> array, in output order.  Every column
# broadcasts to the table's shape, and the rows are that shape's elements in
# C order; in a 1-D table every column holds one entry a row.


def _grid_table(args: argparse.Namespace, name: str, axis, **columns) -> dict:
    """The grid of ``args.alphas`` by ``axis``, alpha major: alpha (A, 1) and
    the axis (1, N), then the value columns, (A, N), (N,) or 0-d constants."""
    return {"alpha": np.array(args.alphas)[:, None], name: np.asarray(axis)[None],
            **{key: np.asarray(col) for key, col in columns.items()}}


def _rows_fig(args: argparse.Namespace, key: str, closed, numeric, **extra):
    """One fig sweep: one closed-form call on the whole (alpha, r) grid, then one
    numeric call on it; it matches its reference bit for bit, each alpha's own rows."""
    r = _r_grid(args)
    alphas = np.array(args.alphas)
    return _grid_table(args, "r", r, **{f"{key}_closed": closed(alphas, r),
                                        f"{key}_numeric": numeric(dec.channel_rho4(alphas, r))},
                       **extra)


def _rows_bellmeas(args: argparse.Namespace):
    """One Bell measurement of B1 per amplitude; CutoffError past BELLMEAS_TAIL_TOL."""
    rows = []
    for alpha in args.alphas:
        meas = pr.bell_measure_distribution(qe.bell_state(1, qe.make_basis(alpha, 1.0)),
                                            args.cutoff)
        if not meas.tail_bound <= BELLMEAS_TAIL_TOL:
            raise CutoffError(f"alpha {alpha!r}: cutoff {args.cutoff or 'automatic'} leaves "
                              f"Fock tail bound {meas.tail_bound:.3e} > {BELLMEAS_TAIL_TOL:.0e}")
        rows.append((alpha, pr.misid_probability_closed(alpha), meas.misidentification(),
                     meas.tail_bound))
    return dict(zip(("alpha", "p_i_closed", "p_i_numeric", "tail_bound"), np.array(rows).T))


def _rows_teleport_mc(args: argparse.Namespace):
    """One batched, checked channel density over the (alpha, r) grid, its Bloch
    transfer and its exact average fidelity; per row a Monte Carlo over that row's
    transfer with its own stream, seeded ``seed + alpha index * len(r) + r index``:
    it matches its reference bit for bit, each alpha's rows or each point's calls."""
    r = _r_grid(args)
    q = pr.bloch_transfer(dec.channel_rho4(np.array(args.alphas), r))
    mc = np.array([pr.teleport_average_mc(row, args.samples, args.seed + i)
                   for i, row in enumerate(q.reshape(-1, 4, 4, 4))]).reshape(q.shape[:-3] + (2,))
    return _grid_table(args, "r", r, f_analytic=pr.average_fidelity(q), f_mc=mc[..., 0],
                       stderr=mc[..., 1], samples=args.samples)


def _rows_concentrate(args: argparse.Namespace):
    """The (alpha, eta) grid: the exact swap point by point, first (its guards trip in
    grid order), then one ideal swap and one closed-form call on the whole grid."""
    exact = [[pr.concentrate_exact(alpha, eta).success_probability for eta in args.etas]
             for alpha in args.alphas]
    etas = np.array(args.etas)
    ideal, cos_sin = pr.concentrate_ideal(etas), np.cos(etas) * np.sin(etas)
    return _grid_table(args, "eta", etas, p1_swap=ideal[:, 0], p2_swap=ideal[:, 1],
                       p_ideal_closed=cos_sin * cos_sin, p2_exact=exact,
                       p2_exact_closed=pr.concentration_success_closed_form(
                           np.array(args.alphas)[:, None], etas))


def _rows_cv(args: argparse.Namespace):
    """The fidelity on the amplitude grid, then the located maximum (is_max 1)."""
    grid = np.linspace(args.ar_min, args.ar_max, args.ar_steps)
    x_star, f_star = pr.cv_max()
    is_max = np.zeros(args.ar_steps + 1, dtype=int)
    is_max[-1] = 1
    return {"alpha_r": np.append(grid, x_star),
            "f": np.append(pr.cv_fidelity(grid), f_star),
            "is_max": is_max}


_ROW_BUILDERS = {
    "fig2a": lambda args: _rows_fig(args, "e", em.closed_form_e, em.negativity_e),
    "fig2b": lambda args: _rows_fig(
        args, "f", em.closed_form_f, em.optimal_fidelity,
        classical_limit=em.CLASSICAL_FIDELITY_LIMIT,
    ),
    "fig3": lambda args: _rows_fig(args, "s", em.closed_form_s, em.linear_entropy),
    "bellmeas": _rows_bellmeas,
    "teleport-mc": _rows_teleport_mc,
    "concentrate": _rows_concentrate,
    "cv": _rows_cv,
}


def _template_rows(table: dict, column) -> tuple[list, zip]:
    """Each column's template slot, and the table's rows of template arguments.

    ``column(col)`` gives a column's slot and its values in C order.  A smaller
    column than the table is formatted once per value, and the strings,
    repeated along the axes it broadcasts over, fill a ``%s`` slot."""
    full = np.broadcast(*table.values())
    slots, args = [], []
    for col in table.values():
        fmt, vals = column(col)
        if col.size != full.size:
            fmt, vals, block = "%s", [fmt % v for v in vals], 1
            for n, m in zip(col.shape[::-1] + (1,) * full.ndim, full.shape[::-1]):
                if n != m:  # repeat each block of the trailing axes m times
                    vals = [v for i in range(0, len(vals), block) for v in vals[i:i + block] * m]
                block *= m
        slots.append(fmt)
        args.append(vals)
    return slots, zip(*args)


def _to_csv(table: dict) -> str:
    """One line per row: ``%.17g`` floats (round-trip exact), ``%d`` ints; it
    matches its reference bit for bit, the CSV writer of one row dict at a time."""
    slots, rows = _template_rows(table, lambda col: (
        "%d" if col.dtype.kind == "i" else "%.17g", col.ravel().tolist()))
    template = ",".join(slots)
    return "\n".join([",".join(table)] + [template % row for row in rows]) + "\n"


def _json_column(col: np.ndarray) -> tuple[str, list]:
    values = col.ravel().tolist()
    for i in np.flatnonzero(~np.isfinite(col)).tolist():
        values[i] = json.dumps(values[i])
    return "%s", values


def _to_json(table: dict) -> str:
    """The text of ``json.dumps(rows, indent=2)`` for the table's rows.

    Each row fills one template: ``%s`` prints a float as ``float.__repr__`` and an
    int as its digits, as json does; non-finite floats take json's own spelling (NaN,
    Infinity, -Infinity).  It matches its reference bit for bit, json on row dicts.
    """
    template = "  {\n" + ",\n".join(f"    {json.dumps(name)}: %s" for name in table) + "\n  }"
    body = ",\n".join(template % row for row in _template_rows(table, _json_column)[1])
    return f"[\n{body}\n]\n"


def _render_report(args: argparse.Namespace) -> tuple[str, bool]:
    # imported here, so that no other command loads (or compiles) it
    from . import acceptance

    results = acceptance.run_all(property_cases=args.property_cases)
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {res.check_id:>4}  {res.name}: {res.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines) + "\n", n_fail == 0


def _render_config(args: argparse.Namespace) -> tuple[str, bool]:
    """Output text of a validated configuration, and whether every check passed."""
    if args.command == "report":
        return _render_report(args)
    table = _ROW_BUILDERS[args.command](args)
    return (_to_csv(table) if args.fmt == "csv" else _to_json(table)), True


def render(argv) -> str:
    """Parse arguments and produce the full output text (no I/O)."""
    return _render_config(_parse(argv))[0]


def main(argv=None) -> int:
    try:
        args = _parse(argv)
    except ConfigError as exc:
        print(f"ecsim: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        text, all_passed = _render_config(args)
    except (DegenerateBasisError, CutoffError, DensityError, ZeroNormError) as exc:
        print(f"ecsim: numeric guard: {exc}", file=sys.stderr)
        return 3
    try:
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"ecsim: I/O error: {exc}", file=sys.stderr)
        return 4
    return 0 if all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
