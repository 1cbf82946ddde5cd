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
# far below it (e^{-4 alpha^2} underflows past alpha ~ 13.4); alpha^2
# itself overflows past ~1.3e154.
MAX_ALPHA = 1e6
# Largest Fock truncation tail bellmeas accepts; a larger one exits 3.
BELLMEAS_TAIL_TOL = 1e-9
# Largest sizes the flags accept, checked before anything is allocated, so
# that no command asks for more than ~256 MiB of working memory (as
# coherent_states.FOCK_CELL_BUDGET).  Measured peaks (tracemalloc): ~32 B per
# Monte Carlo shot, the three up-front draws and the fidelity, plus one
# block's ~0.9 MB of work arrays (sized at 36 B; 230 MiB at MAX_SAMPLES);
# ~1.4 kB per (alpha, r) point in the fig sweeps and teleport-mc, whose whole
# grid is one batched density and its checks (sized at ~1.8 kB; 198 MB at
# MAX_R_POINTS over 3 alphas); ~0.35 kB per cv point (sized at ~1.2 kB, when
# rows were dicts).
_SIZE_BUDGET = 2**28
MAX_SAMPLES = _SIZE_BUDGET // 36
MAX_R_POINTS = _SIZE_BUDGET // 1800
MAX_AR_STEPS = _SIZE_BUDGET // 1200
# Most randomized cases per report property suite (suite 10.7: ~1 s per 1000).
MAX_PROPERTY_CASES = 10**5


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ConfigError instead of exiting; its
    subparsers are of the same class."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it.

    Each command holds only the flags it reads."""
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
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parse and validate a command line; raises ConfigError on bad values.

    Each check runs only when the command has the flag it checks."""
    args = _parser().parse_args(argv)
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
# column tables: column name -> 1-D array, in output order, one entry a row


def _table(names, rows) -> dict:
    """The column table of a few rows given as tuples."""
    return {name: np.array(col) for name, col in zip(names, zip(*rows))}


def _sweep_table(args: argparse.Namespace, r: np.ndarray, **columns) -> dict:
    """The (alpha, r) grid of a sweep, alpha major, then its value columns."""
    alphas = np.array(args.alphas)
    return {"alpha": alphas.repeat(len(r)), "r": np.concatenate([r] * len(alphas)),
            **{name: np.asarray(col) for name, col in columns.items()}}


def _rows_fig(args: argparse.Namespace, key: str, closed, numeric, **extra):
    """One fig sweep: one closed-form call on the whole (alpha, r) grid (an
    alpha column against the r row), then one numeric call on it (one
    batched channel density)."""
    r = _r_grid(args)
    alphas = np.array(args.alphas)
    closed_col = closed(alphas[:, None], r).ravel()
    numeric_col = numeric(dec.channel_rho4(alphas, r)).ravel()
    return _sweep_table(args, r, **{f"{key}_closed": closed_col, f"{key}_numeric": numeric_col},
                        **{name: np.full(len(closed_col), v) for name, v in extra.items()})


def _rows_bellmeas(args: argparse.Namespace):
    rows = []
    for alpha in args.alphas:
        meas = pr.bell_measure_distribution(
            qe.bell_state(1, qe.make_basis(alpha, 1.0)), args.cutoff, BELLMEAS_TAIL_TOL
        )
        rows.append((alpha, pr.misid_probability_closed(alpha), meas.misidentification(),
                     meas.tail_bound))
    return _table(("alpha", "p_i_closed", "p_i_numeric", "tail_bound"), rows)


def _rows_teleport_mc(args: argparse.Namespace):
    """One batched, checked channel density over the (alpha, r) grid, its
    Bloch transfer and its exact average fidelity; per row a Monte Carlo over
    that row's transfer with its own stream, seeded ``seed + row index``
    (``seed + alpha index * len(r) + r index``)."""
    r = _r_grid(args)
    q = pr.bloch_transfer(dec.channel_rho4(np.array(args.alphas), r))
    stats = [pr.teleport_average_mc(row, args.samples, args.seed + i)
             for i, row in enumerate(q.reshape(-1, 4, 4, 4))]
    return _sweep_table(args, r, f_analytic=pr.average_fidelity(q).ravel(),
                        f_mc=[s.mean_fidelity for s in stats], stderr=[s.stderr for s in stats],
                        samples=np.full(len(stats), args.samples))


def _rows_concentrate(args: argparse.Namespace):
    rows = []
    for alpha in args.alphas:
        for eta in args.etas:
            ideal = pr.concentrate_ideal(eta)
            rows.append((
                alpha, eta, ideal.p1, ideal.p2, (math.cos(eta) * math.sin(eta)) ** 2,
                pr.concentrate_exact(alpha, eta).success_probability,
                pr.concentration_success_closed_form(alpha, eta),
            ))
    return _table(("alpha", "eta", "p1_swap", "p2_swap", "p_ideal_closed", "p2_exact",
                   "p2_exact_closed"), rows)


def _rows_cv(args: argparse.Namespace):
    """The fidelity on the amplitude grid, then the located maximum (is_max 1)."""
    grid = np.linspace(args.ar_min, args.ar_max, args.ar_steps)
    x_star, f_star = pr.cv_max()
    is_max = np.zeros(args.ar_steps + 1, dtype=int)
    is_max[-1] = 1
    return {"alpha_r": np.append(grid, x_star),
            "f": np.array([pr.cv_fidelity(x) for x in grid.tolist()] + [f_star]),
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


def _to_csv(table: dict) -> str:
    """One line per row: ``%.17g`` floats (round-trip exact), ``%d`` ints."""
    template = ",".join("%d" if col.dtype.kind == "i" else "%.17g" for col in table.values())
    lines = [",".join(table)]
    lines += [template % row for row in zip(*[col.tolist() for col in table.values()])]
    return "\n".join(lines) + "\n"


def _to_json(table: dict) -> str:
    """The text of ``json.dumps(rows, indent=2)`` for the table's rows.

    Each row fills one template: ``%s`` prints a float as ``float.__repr__``
    and an int as its digits, as json does; non-finite floats take json's
    own spelling (NaN, Infinity, -Infinity).
    """
    template = "  {\n" + ",\n".join(f"    {json.dumps(name)}: %s" for name in table) + "\n  }"
    columns = []
    for col in table.values():
        values = col.tolist()
        for i in np.flatnonzero(~np.isfinite(col)).tolist():
            values[i] = json.dumps(values[i])
        columns.append(values)
    body = ",\n".join(template % row for row in zip(*columns))
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
