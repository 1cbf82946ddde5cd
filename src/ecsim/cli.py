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
from dataclasses import dataclass

import numpy as np

from . import acceptance
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
# coherent_states.FOCK_CELL_BUDGET).  Measured peaks: ~36 B per Monte Carlo
# shot (three up-front draws and the fidelity), ~1.5 kB per r point with one
# alpha in fig2a and teleport-mc (sized at ~1.8 kB; the batched density and its
# checks), ~0.35 kB per cv point (sized at ~1.2 kB, when rows were dicts).
_SIZE_BUDGET = 2**28
MAX_SAMPLES = _SIZE_BUDGET // 36
MAX_R_POINTS = _SIZE_BUDGET // 1800
MAX_AR_STEPS = _SIZE_BUDGET // 1200
# Most randomized cases per report property suite (suite 10.7: ~1 s per 1000).
MAX_PROPERTY_CASES = 10**5


@dataclass(frozen=True)
class RunConfig:
    command: str
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    r_min: float = 0.0
    r_max: float = 0.995
    r_steps: int = 200
    cutoff: int | None = None
    seed: int = 12345
    samples: int = 10000
    fmt: str = "csv"
    output: str = "-"
    etas: tuple[float, ...] = DEFAULT_ETAS
    ar_min: float = 0.0
    ar_max: float = 2.0
    ar_steps: int = 201
    property_cases: int = 1000

    def r_grid(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.r_steps)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="ecsim",
        description="Entangled-coherent-channel sweeps and protocol experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sweep=True):
        p.add_argument("--alphas", type=float, nargs="+", default=DEFAULT_ALPHAS)
        if sweep:
            p.add_argument("--r-min", type=float, default=0.0)
            p.add_argument("--r-max", type=float, default=0.995)
            p.add_argument("--r-steps", type=int, default=200)
        p.add_argument("--cutoff", type=int, default=None)
        p.add_argument("--seed", type=int, default=12345)
        p.add_argument("--samples", type=int, default=10000)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--output", type=str, default="-")

    for name in ("fig2a", "fig2b", "fig3", "teleport-mc"):
        common(sub.add_parser(name))
    common(sub.add_parser("bellmeas"), sweep=False)
    p_conc = sub.add_parser("concentrate")
    common(p_conc, sweep=False)
    p_conc.add_argument("--etas", type=float, nargs="+", default=DEFAULT_ETAS)
    p_cv = sub.add_parser("cv")
    common(p_cv, sweep=False)
    p_cv.add_argument("--ar-min", type=float, default=0.0)
    p_cv.add_argument("--ar-max", type=float, default=2.0)
    p_cv.add_argument("--ar-steps", type=int, default=201)
    p_rep = sub.add_parser("report")
    common(p_rep, sweep=False)
    p_rep.add_argument("--property-cases", type=int, default=1000)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    kwargs = dict(
        command=args.command,
        alphas=tuple(args.alphas),
        cutoff=args.cutoff,
        seed=args.seed,
        samples=args.samples,
        fmt=args.fmt,
        output=args.output,
    )
    for name in ("r_min", "r_max", "r_steps", "etas", "ar_min", "ar_max", "ar_steps",
                 "property_cases"):
        if hasattr(args, name):
            val = getattr(args, name)
            kwargs[name] = tuple(val) if isinstance(val, list) else val
    cfg = RunConfig(**kwargs)
    if cfg.command in ("fig2a", "fig2b", "fig3", "teleport-mc"):
        if not (0.0 <= cfg.r_min <= cfg.r_max):
            raise ConfigError("need 0 <= r_min <= r_max")
        if cfg.r_max >= 1.0:
            raise ConfigError("r_max must be < 1")
        if cfg.r_steps < 2:
            raise ConfigError("r_steps must be >= 2")
        if cfg.r_steps * len(cfg.alphas) > MAX_R_POINTS:
            raise ConfigError(f"r_steps times the number of alphas must be <= {MAX_R_POINTS}")
    if not 1 <= cfg.samples <= MAX_SAMPLES:
        raise ConfigError(f"samples must lie in [1, {MAX_SAMPLES}]")
    if cfg.cutoff is not None and cfg.cutoff < 1:
        raise ConfigError("cutoff must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if not 1 <= cfg.property_cases <= MAX_PROPERTY_CASES:
        raise ConfigError(f"property-cases must lie in [1, {MAX_PROPERTY_CASES}]")
    if not all(0 < a <= MAX_ALPHA for a in cfg.alphas):
        raise ConfigError(f"alphas must lie in (0, {MAX_ALPHA:g}]")
    if not all(0.0 < eta < math.pi / 2 for eta in cfg.etas):
        raise ConfigError("etas must lie in (0, pi/2)")
    # a finite width implies finite ends, and keeps the grid from overflowing
    if not (math.isfinite(cfg.ar_max - cfg.ar_min) and cfg.ar_min <= cfg.ar_max):
        raise ConfigError("need finite ar-min <= ar-max with a finite width")
    if cfg.command == "cv" and not 2 <= cfg.ar_steps <= MAX_AR_STEPS:
        raise ConfigError(f"ar-steps must lie in [2, {MAX_AR_STEPS}]")
    return cfg


def _parse(argv) -> RunConfig:
    """Parse and validate a command line; raises ConfigError on bad values."""
    return _config_from_args(_parser().parse_args(argv))


# ---------------------------------------------------------------------------
# column tables: column name -> 1-D array, in output order, one entry a row


def _table(names, rows) -> dict:
    """The column table of a few rows given as tuples."""
    return {name: np.array(col) for name, col in zip(names, zip(*rows))}


def _sweep_table(cfg: RunConfig, r: np.ndarray, **columns) -> dict:
    """The (alpha, r) grid of a sweep, alpha major, then its value columns."""
    return {"alpha": np.repeat(cfg.alphas, len(r)), "r": np.tile(r, len(cfg.alphas)),
            **{name: np.asarray(col) for name, col in columns.items()}}


def _rows_fig(cfg: RunConfig, key: str, closed, numeric, **extra):
    """One fig sweep: per alpha, one closed-form and one numeric call on the
    whole r grid (one batched channel density)."""
    r = cfg.r_grid()
    parts = [(closed(alpha, r), numeric(dec.channel_rho4(alpha, r))) for alpha in cfg.alphas]
    closed_col, numeric_col = (np.concatenate(col) for col in zip(*parts))
    return _sweep_table(cfg, r, **{f"{key}_closed": closed_col, f"{key}_numeric": numeric_col},
                        **{name: np.full(len(closed_col), v) for name, v in extra.items()})


def _rows_bellmeas(cfg: RunConfig):
    rows = []
    for alpha in cfg.alphas:
        meas = pr.bell_measure_distribution(
            qe.bell_state(1, qe.make_basis(alpha, 1.0)), cfg.cutoff, BELLMEAS_TAIL_TOL
        )
        rows.append((alpha, pr.misid_probability_closed(alpha), meas.misidentification(),
                     meas.tail_bound))
    return _table(("alpha", "p_i_closed", "p_i_numeric", "tail_bound"), rows)


def _rows_teleport_mc(cfg: RunConfig):
    """Per alpha one batched, checked channel density; per row a view of it
    and its own Monte Carlo stream, seeded ``seed + row index``."""
    r = cfg.r_grid()
    f_analytic, f_mc, stderr = [], [], []
    for a, alpha in enumerate(cfg.alphas):
        for i, rho in enumerate(dec.channel_rho4(alpha, r)):
            stats = pr.teleport_average_mc(rho, cfg.samples, cfg.seed + a * len(r) + i)
            f_analytic.append(pr.average_fidelity(rho))
            f_mc.append(stats.mean_fidelity)
            stderr.append(stats.stderr)
    return _sweep_table(cfg, r, f_analytic=f_analytic, f_mc=f_mc, stderr=stderr,
                        samples=np.full(len(f_mc), cfg.samples))


def _rows_concentrate(cfg: RunConfig):
    rows = []
    for alpha in cfg.alphas:
        for eta in cfg.etas:
            ideal = pr.concentrate_ideal(eta)
            rows.append((
                alpha, eta, ideal.p1, ideal.p2, (math.cos(eta) * math.sin(eta)) ** 2,
                pr.concentrate_exact(alpha, eta).success_probability,
                pr.concentration_success_closed_form(alpha, eta),
            ))
    return _table(("alpha", "eta", "p1_swap", "p2_swap", "p_ideal_closed", "p2_exact",
                   "p2_exact_closed"), rows)


def _rows_cv(cfg: RunConfig):
    """The fidelity on the amplitude grid, then the located maximum (is_max 1)."""
    grid = np.linspace(cfg.ar_min, cfg.ar_max, cfg.ar_steps)
    x_star, f_star = pr.cv_max()
    is_max = np.zeros(cfg.ar_steps + 1, dtype=int)
    is_max[-1] = 1
    return {"alpha_r": np.append(grid, x_star),
            "f": np.array([pr.cv_fidelity(x) for x in grid.tolist()] + [f_star]),
            "is_max": is_max}


_ROW_BUILDERS = {
    "fig2a": lambda cfg: _rows_fig(cfg, "e", em.closed_form_e, em.negativity_e),
    "fig2b": lambda cfg: _rows_fig(
        cfg, "f", em.closed_form_f, em.optimal_fidelity,
        classical_limit=em.CLASSICAL_FIDELITY_LIMIT,
    ),
    "fig3": lambda cfg: _rows_fig(cfg, "s", em.closed_form_s, em.linear_entropy),
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


def _render_report(cfg: RunConfig) -> tuple[str, bool]:
    results = acceptance.run_all(property_cases=cfg.property_cases)
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {res.check_id:>4}  {res.name}: {res.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines) + "\n", n_fail == 0


def _render_config(cfg: RunConfig) -> tuple[str, bool]:
    """Output text of a validated configuration, and whether every check passed."""
    if cfg.command == "report":
        return _render_report(cfg)
    table = _ROW_BUILDERS[cfg.command](cfg)
    return (_to_csv(table) if cfg.fmt == "csv" else _to_json(table)), True


def render(argv) -> str:
    """Parse arguments and produce the full output text (no I/O)."""
    return _render_config(_parse(argv))[0]


def main(argv=None) -> int:
    try:
        cfg = _parse(argv)
    except ConfigError as exc:
        print(f"ecsim: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        text, all_passed = _render_config(cfg)
    except (DegenerateBasisError, CutoffError, DensityError, ZeroNormError) as exc:
        print(f"ecsim: numeric guard: {exc}", file=sys.stderr)
        return 3
    try:
        if cfg.output == "-":
            sys.stdout.write(text)
        else:
            with open(cfg.output, "w") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"ecsim: I/O error: {exc}", file=sys.stderr)
        return 4
    return 0 if all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
