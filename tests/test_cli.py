"""CLI: schemas, the exit contract, the library calls of each request."""
import collections
import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ecsim import acceptance, cli, protocols
from ecsim import decoherence as dec
from ecsim import qubit_encoding as qe
from ecsim.errors import DegenerateBasisError
from reference import DEFAULT_ARGV, ERROR_C, ERROR_K, S_ERROR_C, S_ERROR_K, WRITER_TABLES

SQRT_HALF = 1.0 / math.sqrt(2.0)
EPS = np.finfo(float).eps


def run_main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def parse_columns(text):
    """A CSV render as a float array per column, by name."""
    header, rows = parse_csv(text)
    return {name: np.array([float(row[name]) for row in rows]) for name in header}


class TestSchemas:
    def test_fig2b_characteristic_row(self, capsys):
        code, out = run_main(
            [
                "fig2b", "--alphas", "1",
                "--r-min", repr(SQRT_HALF), "--r-max", "0.9", "--r-steps", "2",
            ],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["alpha", "r", "f_closed", "f_numeric", "classical_limit"]
        first = rows[0]
        assert float(first["r"]) == pytest.approx(SQRT_HALF, abs=1e-12)
        assert float(first["f_closed"]) == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert float(first["f_numeric"]) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_cv_reports_maximum(self, capsys):
        code, out = run_main(["cv", "--ar-steps", "11"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["alpha_r", "f", "is_max"]
        max_rows = [r for r in rows if r["is_max"] == "1"]
        assert len(max_rows) == 1
        assert float(max_rows[0]["f"]) == pytest.approx(0.6035533905932738, abs=1e-9)
        assert 0.6 <= float(max_rows[0]["alpha_r"]) <= 0.8
        # f(0) is 1/2, and the located maximum is at least every grid row: at
        # defaults it is above the grid's by 9.2e-6
        for grid in ([], ["--ar-max", "6", "--ar-steps", "3000"]):
            col = parse_columns(cli.render(["cv"] + grid))
            top = col["is_max"] == 1
            assert col["alpha_r"][0] == 0.0 and col["f"][0] == 0.5
            assert top.sum() == 1 and (col["f"][top] >= col["f"][~top]).all()

    def test_bellmeas_matches_closed_form(self):
        # at defaults and on 40 amplitudes from 0.05 to 4, and 0.5: within 16
        # eps relative plus the Fock tail (measured: 2.8e-17 absolute at
        # defaults, 4.9 eps relative on the wide grid)
        wide = [repr(float(a)) for a in np.geomspace(0.05, 4.0, 40)] + ["0.5"]
        for grid in ([], ["--alphas", *wide]):
            col = parse_columns(cli.render(["bellmeas"] + grid))
            bound = 16 * EPS * col["p_i_closed"] + col["tail_bound"]
            assert (np.abs(col["p_i_numeric"] - col["p_i_closed"]) <= bound).all()

    def test_concentrate_closed_vs_numeric(self):
        # at defaults and on alpha 0.05 to 10 by eta 0.05 to 1.52: within 32 eps
        # (measured: 6.9e-17 at defaults; p2_exact strays most at small alpha,
        # 12.6 eps at alpha = 0.062 on a 25 x 12 grid)
        for grid in ([], ["--alphas", "0.05", "0.1", "0.3", "1", "3", "10",
                          "--etas", "0.05", "0.3", "0.7", "1", "1.52"]):
            col = parse_columns(cli.render(["concentrate"] + grid))
            for got, want in (("p2_exact", "p2_exact_closed"), ("p1_swap", "p_ideal_closed"),
                              ("p2_swap", "p_ideal_closed")):
                assert np.max(np.abs(col[got] - col[want])) <= 32 * EPS, got

    def test_teleport_mc_within_three_sigma(self, capsys):
        code, out = run_main(
            [
                "teleport-mc", "--alphas", "1", "--r-steps", "2", "--r-max", "0.5",
                "--samples", "20000", "--seed", "9",
            ],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            err = abs(float(row["f_mc"]) - float(row["f_analytic"]))
            assert err <= max(3.0 * float(row["stderr"]), 1e-12)
        # at defaults and on a wide grid, 2000 shots a row: no row beyond 5
        # stderr (1e-12 at least), and the rows beyond 3 no more than five
        # binomial deviations above n p, p = 0.0027 the normal law's share
        # (measured: 1 of 600 rows at defaults, the largest z 3.2)
        p = 0.0027
        for grid in ([], ["--alphas", "0.1", "0.3", "1", "3", "13.4", "1000",
                          "--r-steps", "25", "--r-max", "0.9999"]):
            col = parse_columns(cli.render(["teleport-mc", "--samples", "2000"] + grid))
            err = np.abs(col["f_mc"] - col["f_analytic"])
            assert (err <= np.maximum(5.0 * col["stderr"], 1e-12)).all()
            n = len(err)
            beyond = np.count_nonzero(err > np.maximum(3.0 * col["stderr"], 1e-12))
            assert beyond <= n * p + 5.0 * math.sqrt(n * p * (1.0 - p)), beyond

    def test_floats_round_trip(self, capsys):
        # 17 significant digits reproduce the binary values exactly
        _, out = run_main(
            ["fig2a", "--alphas", "1", "--r-steps", "3", "--r-max", "0.9"], capsys
        )
        from ecsim.entanglement_metrics import closed_form_e

        _, rows = parse_csv(out)
        for row in rows:
            assert float(row["e_closed"]) == closed_form_e(1.0, float(row["r"]))


# Rows printed by the per-point implementation these sweeps replaced.
PINNED_ROWS = {
    ("fig2a", "--alphas", "0.7", "2.2", "--r-steps", "3", "--r-max", "0.95"): [
        (0.7, 0.0, 1.0, 1.0000000000000004),
        (0.7, 0.475, 0.51781564024616733, 0.51781564024616755),
        (0.7, 0.95, 0.0039561152671635496, 0.0039561152671633397),
        (2.2, 0.0, 1.0, 0.99999999999999989),
        (2.2, 0.475, 0.012675289293486495, 0.012675289293486391),
        (2.2, 0.95, 1.6142253374911812e-08, 1.614225337186203e-08),
    ],
    ("fig2b", "--alphas", "0.3", "1.6", "--r-steps", "3", "--r-max", "0.9"): [
        (0.3, 0.0, 0.99999999999999989, 1.0, 2.0 / 3.0),
        (0.3, 0.45, 0.86431037196076277, 0.86431037196076288, 2.0 / 3.0),
        (0.3, 0.9, 0.61220960477635966, 0.61220960477635966, 2.0 / 3.0),
        (1.6, 0.0, 1.0, 1.0, 2.0 / 3.0),
        (1.6, 0.45, 0.70848425705097273, 0.70848425705097284, 2.0 / 3.0),
        (1.6, 0.9, 0.66659526425810789, 0.66659526425810789, 2.0 / 3.0),
    ],
    ("fig3", "--alphas", "0.4", "2.4", "--r-steps", "3", "--r-max", "0.99"): [
        (0.4, 0.0, 0.0, 0.0),
        (0.4, 0.495, 0.37320472208621758, 0.3732047220862178),
        (0.4, 0.99, 0.040225985670081781, 0.040225985670081954),
        (2.4, 0.0, 0.0, -1.3322676295501878e-15),
        (2.4, 0.495, 0.49999375615869063, 0.49999375615869301),
        (2.4, 0.99, 0.30014020451814932, 0.30014020451814827),
    ],
}


class TestFigRows:
    @pytest.mark.parametrize("argv", list(PINNED_ROWS))
    def test_matches_pinned_rows(self, argv, capsys):
        code, out = run_main(list(argv), capsys)
        assert code == 0
        _, rows = parse_csv(out)
        want = PINNED_ROWS[argv]
        assert len(rows) == len(want)
        for row, ref in zip(rows, want):
            got = [float(v) for v in row.values()]
            assert got[:2] == pytest.approx(ref[:2], abs=1e-15)
            assert got[2:] == pytest.approx(ref[2:], abs=1e-13)

    # Every printed pair against its oracle, at defaults, on a wide grid and on
    # the fig2a (0.5, 1.5 by r to 0.9 in 4) and fig3 (1 by r to 0.95 in 5) points,
    # with 2.2651537884471118, where S's error reads 17 eps at r = 0.  Each column
    # is held to the numeric route's error model, eps (K / N_theta + C), with S's
    # own K and C.
    # f_analytic is the standard scheme's fidelity, the second branch of
    # closed_form_f, formed here from channel_coefficients.  It is at most
    # fig2b's f_numeric + 1e-14, and within 1e-14 of it up to r = 1/sqrt(2)
    # (measured: 3.8e-15 apart at defaults).
    @pytest.mark.parametrize("grid", [[], ["--alphas", "0.1", "0.3", "1", "3", "13.4", "1000",
                                           "--r-steps", "400", "--r-max", "0.9999"],
                                      ["--alphas", "0.5", "1", "1.5", "2.2651537884471118",
                                       "--r-steps", "77", "--r-max", "0.95"]],
                             ids=["defaults", "wide", "spot"])
    def test_every_numeric_column_within_its_oracle(self, grid):
        for command, key in (("fig2a", "e"), ("fig2b", "f"), ("fig3", "s"), ("teleport-mc", "f")):
            argv = [command] + grid + (["--samples", "1"] if command == "teleport-mc" else [])
            col = parse_columns(cli.render(argv))
            alpha = np.array(list(dict.fromkeys(col["alpha"].tolist())))
            r = col["r"][:len(col["r"]) // len(alpha)]
            assert col["alpha"].tolist() == np.repeat(alpha, len(r)).tolist()
            assert col["r"].tolist() == np.tile(r, len(alpha)).tolist()
            g, w, _, _, n_theta, _, _ = (np.broadcast_to(q, (len(alpha), len(r))).ravel()
                                         for q in dec.channel_coefficients(alpha, r))
            if command == "fig2b":
                f_numeric = col["f_numeric"]
            if command == "teleport-mc":
                got, want = col["f_analytic"], (2.0 + (g - w) / n_theta) / 3.0
                assert (got <= f_numeric + 1e-14).all()
                early = col["r"] <= SQRT_HALF
                assert (np.abs(got - f_numeric)[early] <= 1e-14).all()
            else:
                got, want = col[f"{key}_numeric"], col[f"{key}_closed"]
            k, c = (S_ERROR_K, S_ERROR_C) if key == "s" else (ERROR_K, ERROR_C)
            bound = EPS * (k / n_theta + c)
            worst = np.argmax(np.abs(got - want) - bound)
            assert abs(got[worst] - want[worst]) <= bound[worst], (command, col["alpha"][worst],
                                                                   col["r"][worst])

    def test_separable_rows_print_zero_not_minus_zero(self):
        # at alpha = 3, E is below the eigenvalues' rounding from r ~ 0.97 on
        out = cli.render(["fig2a", "--alphas", "3", "5", "10", "--r-steps", "50"])
        fields = [f for line in out.splitlines()[1:] for f in line.split(",")]
        assert "-0" not in fields
        assert out.splitlines()[50].split(",")[-1] == "0"


class TestParser:
    def test_built_once(self):
        cli.render(["fig2a", "--alphas", "1", "--r-steps", "2"])
        cli.render(["cv", "--ar-steps", "3"])
        assert cli._parser.cache_info().misses == 1
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("argv", [
        ["fig2a"], ["fig2b", "--alphas", "0.5", "1e-1", "--r-steps", "3"],
        ["teleport-mc", "--samples", "30", "--seed", "4"], ["bellmeas", "--cut", "5"],
        ["concentrate", "--etas", "0.3", "--alph", "1"], ["cv", "--format", "json"],
        ["report"], [], ["bogus"], ["--", "fig2a"], ["fig2a", "--bogus"], ["fig2a", "extra"],
        ["fig2a", "--alphas"], ["teleport-mc", "--samples", "x"], ["report", "--format", "csv"],
    ])
    def test_command_parser_reads_as_the_nested_parse(self, argv):
        # the command's own parser gives the Namespace, or the error text, of
        # the top-level parser handing it the rest of the line
        def outcome(parse):
            try:
                return vars(parse(argv))
            except cli.ConfigError as exc:
                return str(exc)
        assert outcome(cli._parse) == outcome(cli._parser().parse_args)

    def test_defaults_survive_repeated_parsing(self):
        first = cli._parse(["concentrate"])
        cli._parse(["concentrate", "--alphas", "0.5", "--etas", "0.3"])
        assert cli._parse(["concentrate"]) == first
        assert first.alphas == cli.DEFAULT_ALPHAS
        assert first.etas == cli.DEFAULT_ETAS

    def test_exponent_form_is_read_as_the_value(self):
        # a negative number in exponent form is a value, as -0.5 is
        assert cli.render(["cv", "--ar-min", "-5e-1"]) == cli.render(["cv", "--ar-min=-0.5"])


KINDS = {2: "configuration error", 3: "numeric guard", 4: "I/O error"}


def _assert_exit_contract(code, out, err, want=None):
    """The CLI's exit contract.  A non-zero exit prints nothing on stdout and
    exactly one stderr line, ``ecsim: <kind>: <want>...``, its kind named by
    the code.  Exit 0 prints nothing on stderr and only finite values, ``want``
    records of them when given."""
    if code == 0:
        assert err == ""
        if out.startswith("["):
            rows = [list(row.values()) for row in json.loads(out)]
        else:
            rows = [line.split(",") for line in out.splitlines()[1:]]
        assert all(math.isfinite(float(v)) for row in rows for v in row), out
        assert want is None or len(rows) == want, out
    else:
        assert code in KINDS and out == "", (code, out)
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert err.startswith(f"ecsim: {KINDS[code]}: {want or ''}"), err


# Every bad command line, and the edges of the good ones: (argv, exit code,
# the start of the message on the one stderr line), or for exit 0 the number
# of records.  A fragment that ends in a newline is the whole message.
# "{tmp}" is a fresh directory.
EXITS = [
    (["fig2a", "--r-max", "1.2"], 2, "r_max must be < 1\n"),
    (["fig2a", "--r-steps", "1"], 2, "r_steps must be >= 2\n"),
    # a negative number in exponent form is a value, as -0.5 is
    (["fig2a", "--r-min", "-1e-3"], 2, "need 0 <= r_min <= r_max\n"),
    (["fig2a", "--alphas", "1", "-1e-3"], 2, "alphas must lie in (0, 1e+06]\n"),
    (["fig2a", "--alphas", "-1"], 2, "alphas must lie in (0, 1e+06]\n"),
    (["fig2a", "--alphas", "nan"], 2, "alphas must lie in (0, 1e+06]\n"),
    (["fig2a", "--alphas", "1", "inf"], 2, "alphas must lie in (0, 1e+06]\n"),
    # alpha^2 overflowed past ~1.3e154
    (["fig2a", "--alphas=1e308"], 2, "alphas must lie in (0, 1e+06]\n"),
    (["teleport-mc", "--alphas", "1", str(cli.MAX_ALPHA * 1.001)], 2,
     "alphas must lie in (0, 1e+06]\n"),
    (["teleport-mc", "--samples", "0"], 2, f"samples must lie in [1, {cli.MAX_SAMPLES}]\n"),
    (["teleport-mc", "--seed", "-1"], 2, "seed must be >= 0\n"),
    (["concentrate", "--etas", "2"], 2, "etas must lie in (0, pi/2)\n"),
    (["concentrate", "--etas", "0.5", "nan"], 2, "etas must lie in (0, pi/2)\n"),
    (["cv", "--ar-min", "nan"], 2, "need finite ar-min <= ar-max with a finite width\n"),
    (["cv", "--ar-max", "inf"], 2, "need finite ar-min <= ar-max with a finite width\n"),
    (["cv", "--ar-min", "1.5", "--ar-max", "0.5"], 2,
     "need finite ar-min <= ar-max with a finite width\n"),
    # each end is finite, the width overflows to inf
    (["cv", "--ar-min=-1e308", "--ar-max=1e308"], 2,
     "need finite ar-min <= ar-max with a finite width\n"),
    # equal ends are a grid of one repeated point, and the maximum's record
    (["cv", "--ar-min", "1", "--ar-max", "1", "--ar-steps", "2"], 0, 3),
    (["bellmeas", "--cutoff", "0"], 2, "cutoff must be >= 1\n"),
    (["bellmeas", "--cutoff", "-3"], 2, "cutoff must be >= 1\n"),
    (["bellmeas", "--alphas", "0.5", "--cutoff", "0"], 2, "cutoff must be >= 1\n"),
    # zero randomized cases would report every property suite as passed, and a
    # huge count would run for hours: each exits before any check runs
    (["report", "--property-cases", "0"], 2,
     f"property-cases must lie in [1, {cli.MAX_PROPERTY_CASES}]\n"),
    (["report", "--property-cases", str(cli.MAX_PROPERTY_CASES + 1)], 2,
     f"property-cases must lie in [1, {cli.MAX_PROPERTY_CASES}]\n"),
    (["report", "--property-cases", "1000000000"], 2,
     f"property-cases must lie in [1, {cli.MAX_PROPERTY_CASES}]\n"),
    (["teleport-mc", "--samples", str(cli.MAX_SAMPLES + 1)], 2,
     f"samples must lie in [1, {cli.MAX_SAMPLES}]\n"),
    (["cv", "--ar-steps", str(cli.MAX_AR_STEPS + 1)], 2,
     f"ar-steps must lie in [2, {cli.MAX_AR_STEPS}]\n"),
    (["fig2a", "--alphas", "1", "--r-steps", str(2 * (cli.MAX_R_POINTS // 2 + 1))], 2,
     f"r_steps times the number of alphas must be <= {cli.MAX_R_POINTS}\n"),
    # the r grid is held once per alpha
    (["fig2a", "--alphas", "1", "2", "--r-steps", str(cli.MAX_R_POINTS // 2 + 1)], 2,
     f"r_steps times the number of alphas must be <= {cli.MAX_R_POINTS}\n"),
    (["nonsense"], 2, "argument command: invalid choice: 'nonsense'"),
    (["fig2a", "--no-such-flag"], 2, "unrecognized arguments: --no-such-flag\n"),
    (["fig2a", "--r-steps", "2.5"], 2, "argument --r-steps: invalid int value: '2.5'\n"),
    (["cv", "--format", "xml"], 2, "argument --format: invalid choice: 'xml'"),
    # a flag the command does not read is not accepted
    (["fig2a", "--seed", "3"], 2, "unrecognized arguments: --seed 3\n"),
    # an amplitude so small the logical basis degenerates
    (["fig2a", "--alphas", "1e-8", "--r-steps", "2"], 3, "basis degenerate at alpha=1e-08, "),
    # the basis is accepted, but the Bell coefficients (~1/N_theta) cancel and
    # the projected density misses its 1e-10 checks, also when that amplitude
    # shares the batched density with a sound one
    (["fig2a", "--alphas", "1e-4", "--r-steps", "2"], 3, "density matrix is not "),
    (["fig2a", "--alphas", "1", "1e-4"], 3, "density matrix is not Hermitian within 1e-10\n"),
    # at alpha = 1e-3 the route's error, ~1.3 eps / N_theta = 7e-11, stays
    # inside those checks at all 1200 points; a basis built from its angle
    # fails the trace check at r = 0.16929...
    (["fig2a", "--alphas", "0.001", "--r-steps", "1200"], 0, 1200),
    # the swap's success probability underflows to zero at eta = 1e-170, and
    # the guards trip in grid order; at 1e-160 it still computes
    (["concentrate", "--alphas", "1", "--etas", "1e-170"], 3, "cannot normalize a zero state\n"),
    (["concentrate", "--alphas", "1", "1e-7", "--etas", "1e-170", "0.5"], 3,
     "cannot normalize a zero state\n"),
    (["concentrate", "--alphas", "1e-7", "1", "--etas", "1e-170", "0.5"], 3,
     "basis degenerate at alpha=1e-07, "),
    (["concentrate", "--alphas", "1", "--etas", "1e-160"], 0, 1),
    # cutoff 5 keeps almost none of the alpha = 4 photon distribution
    (["bellmeas", "--alphas", "4", "--cutoff", "5"], 3,
     "alpha 4.0: cutoff 5 leaves Fock tail bound 2.000e+00 > 1e-09\n"),
    (["bellmeas", "--alphas", "2", "--cutoff", "3"], 3, "alpha 2.0: cutoff 3 leaves Fock tail "),
    # the smallest cutoff whose tail upper bound meets BELLMEAS_TAIL_TOL, as
    # with the exact tail it replaced, and the one below it
    (["bellmeas", "--alphas", "0.3", "--cutoff", "7"], 3, "alpha 0.3: cutoff 7 leaves "),
    (["bellmeas", "--alphas", "0.3", "--cutoff", "8"], 0, 1),
    (["bellmeas", "--alphas", "1", "--cutoff", "15"], 3, "alpha 1.0: cutoff 15 leaves "),
    (["bellmeas", "--alphas", "1", "--cutoff", "16"], 0, 1),
    (["bellmeas", "--alphas", "2", "--cutoff", "30"], 3, "alpha 2.0: cutoff 30 leaves "),
    (["bellmeas", "--alphas", "2", "--cutoff", "31"], 0, 1),
    (["bellmeas", "--alphas", "3", "--cutoff", "48"], 3, "alpha 3.0: cutoff 48 leaves "),
    (["bellmeas", "--alphas", "3", "--cutoff", "49"], 0, 1),
    # e^{4 alpha^2} overflows a double past alpha ~ 13.32, and the Fock
    # amplitudes underflow past alpha ~ 26.6 on the beam splitter's output modes
    (["bellmeas", "--alphas", "14"], 0, 1),
    (["bellmeas", "--alphas", "30"], 3, "|amp| = 42.43: the Fock vacuum amplitude "),
    (["cv", "--ar-steps", "3", "--output", "{tmp}/no_such_dir/out.csv"], 4,
     "[Errno 2] No such file or directory: "),
]
# These need 149 GiB and ~234 TiB of Fock grid, 7.28 TiB of Monte Carlo draws
# and two 7.45 GiB grids: under a 1 GiB address-space cap each is refused
# before anything is allocated.
CAPPED_EXITS = [
    (["bellmeas", "--alphas", "1", "--cutoff", "100000"], 3, "cutoff 100000 on 2 modes and 4 "
     "terms needs 10000200001 Fock amplitudes, more than the budget of 16777216\n"),
    (["bellmeas", "--alphas", "1000"], 3, "cutoff 4014163 on 2 modes and 2 terms needs "
     "16113512618896 Fock amplitudes, more than the budget of 16777216\n"),
    (["teleport-mc", "--samples", "1000000000000"], 2,
     f"samples must lie in [1, {cli.MAX_SAMPLES}]\n"),
    (["fig2a", "--r-steps", "1000000000"], 2,
     f"r_steps times the number of alphas must be <= {cli.MAX_R_POINTS}\n"),
    (["cv", "--ar-steps", "1000000000"], 2, f"ar-steps must lie in [2, {cli.MAX_AR_STEPS}]\n"),
]
CAPPED_MAIN = (
    "import resource, sys\n"
    "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
    "cap = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
    "from ecsim import cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


@pytest.fixture
def no_checks(monkeypatch):
    # the acceptance checks take seconds and have their own tests; a report
    # that ran past its flag checks prints 0/0 checks passed and exits 0
    monkeypatch.setattr(acceptance, "run_all", lambda property_cases: [])


class TestExits:
    @pytest.mark.parametrize("argv,code,want", EXITS, ids=[" ".join(row[0]) for row in EXITS])
    def test_exit_contract(self, argv, code, want, tmp_path, no_checks, capsys):
        got = cli.main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        assert got == code
        _assert_exit_contract(got, *capsys.readouterr(), want)

    @pytest.mark.parametrize("argv,code,want", CAPPED_EXITS,
                             ids=[" ".join(row[0]) for row in CAPPED_EXITS])
    def test_exit_contract_under_a_memory_cap(self, argv, code, want):
        proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        _assert_exit_contract(proc.returncode, proc.stdout, proc.stderr, want)

    @pytest.mark.parametrize("command", ["fig2a", "fig2b", "fig3", "teleport-mc"])
    @pytest.mark.parametrize("alphas", [("1", "1e-7"), ("1e-7", "1"), ("0.5", "2e-6", "2")])
    def test_degenerate_alpha_in_a_list(self, command, alphas, capsys):
        # standalone since its message is the library guard's own: that of the
        # degenerate amplitude alone, and both channel routes name the same
        # basis, the undecayed one first, then the decayed one over the whole
        # grid.  2e-6 is degenerate only at the smallest decay factors.
        argv = [command, "--alphas", *alphas, "--r-steps", "4"]
        bad = float(next(a for a in alphas if float(a) < 1e-3))
        with pytest.raises(DegenerateBasisError) as guard:
            qe.make_basis(bad, 1.0)
            qe.make_basis(bad, dec.DecayClock.from_r(cli._r_grid(cli._parse(argv))).t)
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"ecsim: numeric guard: {guard.value}"]

    def test_bellmeas_tail_tolerance_names_the_automatic_cutoff(self, capsys, monkeypatch):
        # standalone for its patched tolerance
        monkeypatch.setattr(cli, "BELLMEAS_TAIL_TOL", 0.0)
        assert cli.main(["bellmeas", "--alphas", "1"]) == 3
        _assert_exit_contract(3, *capsys.readouterr(), "alpha 1.0: cutoff automatic leaves ")

    def test_sizes_at_their_limits_parse(self):
        # standalone since it parses and runs nothing
        cli._parse(["teleport-mc", "--samples", str(cli.MAX_SAMPLES)])
        cli._parse(["cv", "--ar-steps", str(cli.MAX_AR_STEPS)])
        cli._parse(["fig3", "--r-steps", str(cli.MAX_R_POINTS // len(cli.DEFAULT_ALPHAS))])
        limit = ["report", "--property-cases", str(cli.MAX_PROPERTY_CASES)]
        assert cli._parse(limit).property_cases == cli.MAX_PROPERTY_CASES
        # the largest perfbench requests: 30000 shots, 400 steps on three alphas
        cli._parse(["teleport-mc", "--samples", "30000", "--r-steps", "400"])
        cli._parse(["fig2b", "--alphas", "0.1", "1", "2.5", "--r-steps", "400"])

    def test_output_file_written(self, tmp_path, capsys):
        # standalone since its output goes to a file
        target = tmp_path / "out.csv"
        argv = ["fig2a", "--alphas", "1", "--r-steps", "2", "--r-max", "0.5"]
        assert cli.main(argv + ["--output", str(target)]) == 0
        assert target.read_text().startswith("alpha,r,e_closed,e_numeric")

    def test_help_exits_0(self):
        # standalone since argparse exits from --help itself
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig2a", "--help"])
        assert exc.value.code == 0


class TestReport:
    def test_report_smoke(self, capsys):
        # tiny randomized-case count: exercises the full reporting path;
        # exit code 1 reflects the one documented failing check (8.2)
        code, out = run_main(["report", "--property-cases", "3"], capsys)
        assert code == 1
        lines = out.strip().splitlines()
        fails = [ln for ln in lines if ln.startswith("FAIL")]
        assert len(fails) == 1
        assert "8.2" in fails[0]
        assert any(ln.startswith("PASS     1") for ln in lines)
        checks = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
        # every check but the runtime total (10.8) ends in its own time
        untimed = [ln for ln in checks if not re.search(r" \[\d+\.\ds\]$", ln)]
        assert len(checks) == 19
        assert [ln.split()[1] for ln in untimed] == ["10.8"]

    def test_a_check_that_raises_is_its_failure_line(self, monkeypatch, capsys):
        # a numeric guard inside a check fails that check alone: every check
        # still prints its line, nothing goes to stderr, and report exits 1
        def degenerate(alpha, r):
            raise DegenerateBasisError("stand-in degenerate basis")

        monkeypatch.setattr(dec, "channel_rho4", degenerate)
        assert cli.main(["report", "--property-cases", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        checks = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
        assert len(checks) == 19 and len(lines) == 20
        assert re.fullmatch(r"\d+/19 checks passed", lines[-1])
        raised = [ln.split()[1] for ln in checks if re.search(
            r": DegenerateBasisError: stand-in degenerate basis \[\d+\.\ds\]$", ln)]
        assert raised[0] == "1" and "10.4" in raised and "10.7" in raised
        assert all(ln.startswith("FAIL") for ln in checks if ln.split()[1] in raised)


def _python(*args):
    """The stdout of a fresh interpreter run on ``args``, which exits 0."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        assert _python("-m", "ecsim.cli", "cv", "--ar-steps", "3").startswith("alpha_r,f,is_max")


class TestImportPath:
    def test_fig_render_does_not_load_acceptance(self):
        # only report reads the acceptance checks; other commands never
        # import (or, without bytecode caching, compile) them.  Nor does a fig
        # render load numpy.random, whose first import costs ~15 ms and ~6 MiB
        code = (
            "import sys, ecsim.cli\n"
            "ecsim.cli.render(['fig2a', '--r-steps', '3'])\n"
            "print([m in sys.modules for m in ('ecsim.acceptance', 'numpy.random')])\n"
        )
        assert _python("-c", code).strip() == "[False, False]"

    @pytest.mark.parametrize("module,loaded", [
        ("ecsim", ["ecsim"]),
        ("ecsim.coherent_states", ["ecsim", "ecsim.coherent_states", "ecsim.errors"]),
    ], ids=["package", "coherent_states"])
    def test_import_loads_only_the_module_and_its_imports(self, module, loaded):
        # the package re-exports nothing, so a layer loads no layer above it
        code = (
            f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ecsim'))\n"
        )
        assert _python("-c", code).strip() == str(loaded)

    def test_cli_import_skips_scipy_stats_and_optimize(self):
        # numpy is the only runtime dependency: neither the import nor a
        # command that searches for a maximum loads any scipy module
        code = (
            "import sys, ecsim.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "print(loaded())\n"
            "ecsim.cli.main(['cv', '--ar-steps', '3'])\n"
            "print(loaded())\n"
        )
        lines = _python("-c", code).strip().splitlines()
        assert lines[0] == "[]"
        assert lines[-1] == "[]"
        assert lines[-2].endswith(",1")  # the located maximum was printed


# ---------------------------------------------------------------------------
# column tables and their writers; the writers' and the row builders' references
# are rows of test_batch_invariance.REFERENCES

# Each table's column shapes at the defaults (3 alphas, 200 r, 3 etas, 201 cv
# steps): a grid axis and a constant are held once, not once a row.
_SWEEP = {"alpha": (3, 1), "r": (1, 200)}
DEFAULT_SHAPES = {
    "fig2a": {**_SWEEP, "e_closed": (3, 200), "e_numeric": (3, 200)},
    "fig2b": {**_SWEEP, "f_closed": (3, 200), "f_numeric": (3, 200), "classical_limit": ()},
    "fig3": {**_SWEEP, "s_closed": (3, 200), "s_numeric": (3, 200)},
    "teleport-mc": {**_SWEEP, "f_analytic": (3, 200), "f_mc": (3, 200), "stderr": (3, 200),
                    "samples": ()},
    "bellmeas": dict.fromkeys(("alpha", "p_i_closed", "p_i_numeric", "tail_bound"), (3,)),
    "concentrate": {"alpha": (3, 1), "eta": (1, 3), "p1_swap": (3,), "p2_swap": (3,),
                    "p_ideal_closed": (3,), "p2_exact": (3, 3), "p2_exact_closed": (3, 3)},
    "cv": dict.fromkeys(("alpha_r", "f", "is_max"), (202,)),
}


class TestColumnWriters:
    @pytest.mark.parametrize("command", list(DEFAULT_ARGV))
    def test_default_tables_hold_each_axis_once(self, command):
        argv = [command, *DEFAULT_ARGV[command]]
        table = cli._ROW_BUILDERS[command](cli._parse(argv))
        assert {name: col.shape for name, col in table.items()} == DEFAULT_SHAPES[command]
        assert cli.render(argv) == cli._to_csv(table)
        assert cli.render(argv + ["--format", "json"]) == cli._to_json(table)

    def test_int_columns(self):
        assert cli._rows_cv(cli._parse(["cv", "--ar-steps", "3"]))["is_max"].dtype.kind == "i"
        table = cli._rows_teleport_mc(cli._parse(["teleport-mc", "--alphas", "1", "--r-steps",
                                                  "2", "--samples", "3"]))
        assert table["samples"].dtype.kind == "i"

    def test_broadcast_rows_are_alpha_major_and_keep_signed_zeros(self):
        table = WRITER_TABLES["with-full-column"]
        header, *lines = cli._to_csv(table).splitlines()
        fields = [dict(zip(header.split(","), line.split(","))) for line in lines]
        alphas = ["nan", "-0", "0", "inf", "4.9406564584124654e-324"]
        rs = ["-inf", "0", "-0", "4.9406564584124654e-324", "0.33333333333333331", "nan"]
        assert [f["alpha"] for f in fields] == [a for a in alphas for _ in rs]
        assert [f["r"] for f in fields] == rs * len(alphas)
        assert [f["x"] for f in fields] == ["%.17g" % (i - 14.0) for i in range(30)]
        assert {(f["const"], f["n"], f["big"]) for f in fields} == {("-0", "7", str(-(2**62)))}
        records = json.loads(cli._to_json(table))
        signs = [math.copysign(1.0, rec["alpha"]) for rec in records[6:18]]
        assert signs == [-1.0] * 6 + [1.0] * 6
        assert [math.copysign(1.0, rec["r"]) for rec in records[1:3]] == [1.0, -1.0]

    @pytest.mark.parametrize("command", ["fig2a", "fig2b", "fig3", "teleport-mc"])
    def test_render_memory_per_point(self, command, monkeypatch):
        # cli.MAX_R_POINTS is sized at this many bytes a point, for the whole
        # render: the batched density, its checks and metrics, and the text
        sized = cli._SIZE_BUDGET // cli.MAX_R_POINTS
        argv = [command, "--alphas", "0.5", "1", "2", "--r-steps", "3000", "--samples", "1"]
        argv = argv if command == "teleport-mc" else argv[:-2]
        if command == "teleport-mc":
            # each row's Monte Carlo frees its blocks before the next, and runs
            # ~7x slower traced: the traced renders replay its results, row i's
            # from the stream seeded seed + i
            kernel, results, seed = protocols.teleport_average_mc, [], cli._parse(argv).seed
            monkeypatch.setattr(protocols, "teleport_average_mc",
                                lambda *a: results.append(kernel(*a)) or results[-1])
        want = cli.render(argv)  # also builds the parser and the import-time caches
        if command == "teleport-mc":
            monkeypatch.setattr(protocols, "teleport_average_mc",
                                lambda q, samples, row_seed: results[row_seed - seed])
        for fmt in ("csv", "json"):
            tracemalloc.start()
            try:
                text = cli.render(argv + ["--format", fmt])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if fmt == "csv":
                assert text == want  # the replayed rows are the real ones
            assert peak < sized * 3 * 3000, fmt

# ---------------------------------------------------------------------------
# the library calls each request makes

# Every binding of these names in every loaded ecsim namespace is spied on;
# __post_init__ is TwoQubitDensity's check.
SPIED = ("channel_rho4", "channel_coefficients", "closed_form_e", "closed_form_f",
         "closed_form_s", "negativity_e", "optimal_fidelity", "linear_entropy", "bell_state",
         "dyad_from_pure", "__post_init__", "bloch_transfer", "average_fidelity",
         "teleport_average_mc", "bell_measure_distribution", "misid_probability_closed",
         "concentrate_exact", "concentrate_ideal", "concentration_success_closed_form",
         "cv_fidelity", "cv_max")
_FIG = ("--alphas", "0.5", "1.5", "2.5", "--r-steps", "4")
_FIG_GRID = ((3,), (4,))
# argv -> {(spied name, shape of each array argument): calls}; a density
# argument counts as its matrix.  One closed-form call and one batched density
# per sweep, with no per-alpha dyads; one Bloch transfer, one average and one
# density check per teleport request, whose rows are views of it; one ideal
# swap and one closed-form call per concentrate request; one fidelity call per
# cv grid, whose maximum is a closed form.
CALL_BUDGET = {
    ("fig2a", *_FIG): {
        ("closed_form_e", *_FIG_GRID): 1, ("channel_coefficients", *_FIG_GRID): 1,
        ("channel_rho4", *_FIG_GRID): 1, ("__post_init__", (3, 4, 4, 4)): 1,
        ("negativity_e", (3, 4, 4, 4)): 1},
    ("fig2b", *_FIG): {
        ("closed_form_f", *_FIG_GRID): 1, ("channel_coefficients", *_FIG_GRID): 1,
        ("channel_rho4", *_FIG_GRID): 1, ("__post_init__", (3, 4, 4, 4)): 1,
        ("optimal_fidelity", (3, 4, 4, 4)): 1},
    ("fig3", *_FIG): {
        ("closed_form_s", *_FIG_GRID): 1, ("channel_coefficients", *_FIG_GRID): 1,
        ("channel_rho4", *_FIG_GRID): 1, ("__post_init__", (3, 4, 4, 4)): 1,
        ("linear_entropy", (3, 4, 4, 4)): 1},
    ("teleport-mc", *_FIG, "--samples", "3"): {
        ("channel_rho4", *_FIG_GRID): 1, ("__post_init__", (3, 4, 4, 4)): 1,
        ("bloch_transfer", (3, 4, 4, 4)): 1, ("average_fidelity", (3, 4, 4, 4, 4)): 1,
        ("teleport_average_mc", (4, 4, 4)): 12},
    ("teleport-mc", "--alphas", "0.5", "1.5", "--r-steps", "6", "--samples", "3"): {
        ("channel_rho4", (2,), (6,)): 1, ("__post_init__", (2, 6, 4, 4)): 1,
        ("bloch_transfer", (2, 6, 4, 4)): 1, ("average_fidelity", (2, 6, 4, 4, 4)): 1,
        ("teleport_average_mc", (4, 4, 4)): 12},
    ("concentrate", "--alphas", "0.5", "1.0", "2.0", "--etas", "0.3", "0.7", "1.1"): {
        ("concentrate_exact",): 9, ("bell_state",): 9, ("concentrate_ideal", (3,)): 1,
        ("concentration_success_closed_form", (3, 1), (3,)): 1},
    ("cv", "--ar-steps", "7"): {("cv_fidelity", (7,)): 1, ("cv_max",): 1},
    ("bellmeas", "--alphas", "0.5", "1"): {
        ("bell_state",): 2, ("bell_measure_distribution",): 2, ("misid_probability_closed",): 2},
}


@pytest.mark.parametrize("argv", list(CALL_BUDGET), ids=[" ".join(argv) for argv in CALL_BUDGET])
def test_call_budget(argv, monkeypatch):
    calls = collections.Counter()

    def spy(name, fn):
        def call(*args, **kwargs):
            arrays = (getattr(arg, "matrix", arg) for arg in args)
            calls[(name, *(a.shape for a in arrays if isinstance(a, np.ndarray)))] += 1
            return fn(*args, **kwargs)
        return call

    namespaces = [module for name, module in list(sys.modules.items())
                  if name.split(".")[0] == "ecsim"] + [qe.TwoQubitDensity]
    for namespace in namespaces:
        for name in set(SPIED) & set(vars(namespace)):
            monkeypatch.setattr(namespace, name, spy(name, getattr(namespace, name)))
    cli.render(list(argv))
    assert dict(calls) == CALL_BUDGET[argv]


# ---------------------------------------------------------------------------
# exit codes under extreme flag values

FLOAT_EXTREMES = ("-1", "0", "5e-324", "1e-300", "1e308", "-1e308", "nan", "inf", "-inf", "")
INT_EXTREMES = ("-1", "0", "1", "2", str(10**30), "", "nan")
SMALL_BASE = {
    "bellmeas": ["--alphas", "1"],
    "concentrate": ["--alphas", "1", "--etas", "0.5"],
    "cv": ["--ar-steps", "3"],
    "report": [],
}


def _commands():
    """{command: subparser} for every command of the CLI."""
    sub = next(a for a in cli._parser()._actions if a.dest == "command")
    return sub.choices


def _flag_actions(parser):
    return [action for action in parser._actions if action.dest != "help"]


def _base_argv(command, parser):
    """A small command line that the command runs in well under a second."""
    base = [command, *SMALL_BASE.get(command, ["--alphas", "1", "--r-steps", "2"])]
    if any(action.dest == "samples" for action in parser._actions):
        base += ["--samples", "20"]
    return base


def _flag_extremes(tmp_path):
    """(command, base argv, {flag: [argv tails]}) for every flag of every command."""
    for command, parser in _commands().items():
        base = _base_argv(command, parser)
        flags = {}
        for action in _flag_actions(parser):
            flag = action.option_strings[0]
            if action.choices:
                values = ("", "xml")
            elif action.type is float:
                values = FLOAT_EXTREMES
            elif action.type is int:
                values = INT_EXTREMES
            else:  # the output path
                values = ("", str(tmp_path))
            tails = [[f"{flag}={v}"] for v in values]
            if action.nargs == "+":
                tails.append([flag])
            flags[flag] = tails
        yield command, base, flags


def _check_exit(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if argv[0] == "report" and code == 0:  # no checks run under the stub
        assert (out, err) == ("0/0 checks passed\n", ""), argv
    else:
        _assert_exit_contract(code, out, err)
    return code


@pytest.mark.usefixtures("no_checks")
class TestExtremeFlags:
    """Every command under each flag's extreme values ends in a clean exit."""

    def test_each_flag_alone(self, tmp_path, capsys):
        for _, base, flags in _flag_extremes(tmp_path):
            assert _check_exit(base, capsys) == 0, base
            for tails in flags.values():
                for tail in tails:
                    _check_exit(base + tail, capsys)

    def test_random_flag_combinations(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        for _, base, flags in _flag_extremes(tmp_path):
            names = sorted(flags)
            for _ in range(40):
                size = rng.integers(2, min(4, len(names) + 1))
                picked = rng.choice(names, size=size, replace=False)
                tails = [flags[f][rng.integers(len(flags[f]))] for f in picked]
                _check_exit(base + [arg for tail in tails for arg in tail], capsys)


# ---------------------------------------------------------------------------
# every accepted flag is read, and the README documents each one

# a valid value for each flag, other than its default and its value in the
# small base command lines
LIVE_VALUES = {
    "--alphas": "0.7", "--r-min": "0.1", "--r-max": "0.8", "--r-steps": "3",
    "--seed": "7", "--samples": "21", "--cutoff": "30", "--etas": "0.4",
    "--ar-min": "0.5", "--ar-max": "1.5", "--ar-steps": "4", "--property-cases": "2",
    "--format": "json",
}


class TestNoDeadFlags:
    @pytest.fixture(autouse=True)
    def _stub_report(self, monkeypatch):
        # a report whose text shows the case count it was asked for
        def run_all(property_cases):
            return [acceptance.CheckResult("10.1", "stub", True, f"{property_cases} cases")]

        monkeypatch.setattr(acceptance, "run_all", run_all)

    @pytest.mark.parametrize("command,flag", [
        (command, action.option_strings[0])
        for command, parser in _commands().items() for action in _flag_actions(parser)
    ])
    def test_flag_changes_output(self, command, flag, tmp_path, capsys):
        base = _base_argv(command, _commands()[command])
        if flag == "--output":
            target = tmp_path / "out"
            assert cli.main(base + [flag, str(target)]) == 0
            assert capsys.readouterr().out == ""
            assert target.read_text() == cli.render(base)
        else:
            assert cli.render(base + [flag, LIVE_VALUES[flag]]) != cli.render(base)


README = Path(__file__).resolve().parents[1] / "README.md"
FLAG_TABLE_HEADER = "| command | flags (defaults) |\n| --- | --- |\n"


def _readme_default(text, action):
    """The value a default written in the README's flag table stands for."""
    if text == "automatic":
        return None
    values = [math.pi / float(t[3:]) if t.startswith("pi/") else (action.type or str)(t)
              for t in text.split()]
    return tuple(values) if action.nargs == "+" else values[0]


class TestReadmeFlagTable:
    def test_matches_parser(self):
        rows = README.read_text().split(FLAG_TABLE_HEADER)[1].split("\n\n")[0]
        documented = {}
        for row in rows.splitlines():
            commands, flags = row.strip("|").split("|")
            for command in re.findall(r"`([\w-]+)`", commands):
                documented[command] = dict(re.findall(r"`(--[\w-]+)` \(`([^`]*)`\)", flags))
        parsed = {command: {action.option_strings[0]: action for action in _flag_actions(parser)}
                  for command, parser in _commands().items()}
        assert documented.keys() == parsed.keys()
        for command, actions in parsed.items():
            assert documented[command].keys() == actions.keys(), command
            for flag, action in actions.items():
                default = _readme_default(documented[command][flag], action)
                assert default == action.default, (command, flag)
