"""CLI: schemas, determinism, exit codes."""
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
from ecsim import coherent_states as cs
from ecsim import decoherence as dec
from ecsim import entanglement_metrics as em
from ecsim import qubit_encoding as qe
from ecsim.decoherence import channel_rho4
from ecsim.errors import DegenerateBasisError
from reference import random_density

SQRT_HALF = 1.0 / math.sqrt(2.0)
EPS = np.finfo(float).eps


def run_main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        rows.append(dict(zip(header, ln.split(","))))
    return header, rows


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

    def test_fig2a_columns_agree(self, capsys):
        code, out = run_main(
            ["fig2a", "--alphas", "0.5", "1.5", "--r-steps", "4", "--r-max", "0.9"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["alpha", "r", "e_closed", "e_numeric"]
        assert len(rows) == 8
        for row in rows:
            assert float(row["e_closed"]) == pytest.approx(
                float(row["e_numeric"]), abs=1e-9
            )

    def test_fig3_columns_agree(self, capsys):
        code, out = run_main(
            ["fig3", "--alphas", "1", "--r-steps", "5", "--r-max", "0.95"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert float(row["s_closed"]) == pytest.approx(
                float(row["s_numeric"]), abs=1e-9
            )

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

    def test_bellmeas_matches_closed_form(self, capsys):
        code, out = run_main(["bellmeas", "--alphas", "0.5", "1"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            tol = max(1e-6, float(row["tail_bound"]))
            assert float(row["p_i_numeric"]) == pytest.approx(
                float(row["p_i_closed"]), abs=tol
            )
        # at defaults and on 40 amplitudes from 0.05 to 4: within 16 eps
        # relative plus the Fock tail (measured: 2.8e-17 absolute at defaults,
        # 4.9 eps relative on the wide grid)
        wide = [repr(float(a)) for a in np.geomspace(0.05, 4.0, 40)]
        for grid in ([], ["--alphas", *wide]):
            col = parse_columns(cli.render(["bellmeas"] + grid))
            bound = 16 * EPS * col["p_i_closed"] + col["tail_bound"]
            assert (np.abs(col["p_i_numeric"] - col["p_i_closed"]) <= bound).all()

    def test_concentrate_closed_vs_numeric(self, capsys):
        code, out = run_main(["concentrate", "--alphas", "1"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert float(row["p1_swap"]) == pytest.approx(
                float(row["p_ideal_closed"]), abs=1e-10
            )
            assert float(row["p2_exact"]) == pytest.approx(
                float(row["p2_exact_closed"]), abs=1e-10
            )
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

    def test_json_mirrors_csv_records(self, capsys):
        args = ["fig2a", "--alphas", "1", "--r-steps", "3", "--r-max", "0.9"]
        _, csv_out = run_main(args, capsys)
        _, rows_csv = parse_csv(csv_out)
        code, json_out = run_main(args + ["--format", "json"], capsys)
        assert code == 0
        rows_json = json.loads(json_out)
        assert len(rows_json) == len(rows_csv)
        for rc, rj in zip(rows_csv, rows_json):
            for key in rj:
                assert float(rc[key]) == pytest.approx(rj[key], rel=1e-15)

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

    # Every printed pair against its oracle, at defaults and on a wide grid.
    # The numeric route's error is k eps / N_theta (k at most 6 on these grids).
    # f_analytic is the standard scheme's fidelity, the second branch of
    # closed_form_f, formed here from channel_coefficients.  It is at most
    # fig2b's f_numeric + 1e-14, and within 1e-14 of it up to r = 1/sqrt(2)
    # (measured: 3.8e-15 apart at defaults).
    @pytest.mark.parametrize("grid", [[], ["--alphas", "0.1", "0.3", "1", "3", "13.4", "1000",
                                           "--r-steps", "400", "--r-max", "0.9999"]],
                             ids=["defaults", "wide"])
    def test_every_numeric_column_within_its_oracle(self, grid):
        k = 16.0
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
            bound = k * EPS / n_theta
            worst = np.argmax(np.abs(got - want) - bound)
            assert abs(got[worst] - want[worst]) <= bound[worst], (command, col["alpha"][worst],
                                                                   col["r"][worst])

    def test_separable_rows_print_zero_not_minus_zero(self):
        # at alpha = 3, E is below the eigenvalues' rounding from r ~ 0.97 on
        out = cli.render(["fig2a", "--alphas", "3", "5", "10", "--r-steps", "50"])
        fields = [f for line in out.splitlines()[1:] for f in line.split(",")]
        assert "-0" not in fields
        assert out.splitlines()[50].split(",")[-1] == "0"

    @pytest.mark.parametrize("command,closed", [
        ("fig2a", "closed_form_e"), ("fig2b", "closed_form_f"), ("fig3", "closed_form_s"),
    ])
    def test_one_closed_form_call_and_no_per_alpha_dyads(self, command, closed, monkeypatch):
        calls = []
        for module, name in ((em, closed), (dec, "channel_coefficients"),
                             (em, "channel_coefficients"), (dec, "channel_rho4"),
                             (qe, "bell_state"), (cs, "dyad_from_pure"),
                             (dec, "dyad_from_pure")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
        cli.render([command, "--alphas", "0.5", "1.5", "2.5", "--r-steps", "4"])
        assert sorted(calls) == sorted([closed, "channel_coefficients", "channel_rho4"])


class TestDeterminism:
    def test_teleport_mc_byte_identical(self):
        argv = [
            "teleport-mc", "--seed", "42", "--samples", "1000", "--alphas", "1",
            "--r-steps", "3", "--r-max", "0.6",
        ]
        assert cli.render(argv) == cli.render(argv)

    def test_all_commands_byte_identical(self):
        cases = [
            ["fig2a", "--alphas", "0.7", "--r-steps", "3", "--r-max", "0.9"],
            ["fig2b", "--alphas", "1", "--r-steps", "3", "--r-max", "0.9"],
            ["fig3", "--alphas", "2", "--r-steps", "3", "--r-max", "0.9"],
            ["bellmeas", "--alphas", "0.6"],
            ["concentrate", "--alphas", "1", "--etas", "0.5"],
            ["cv", "--ar-steps", "5", "--format", "json"],
        ]
        for argv in cases:
            assert cli.render(argv) == cli.render(argv)


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


class TestExitCodes:
    def test_config_error(self, capsys):
        assert cli.main(["fig2a", "--r-max", "1.2"]) == 2
        assert cli.main(["fig2a", "--r-steps", "1"]) == 2
        assert cli.main(["teleport-mc", "--samples", "0"]) == 2
        assert cli.main(["fig2a", "--alphas", "-1"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig2a", "--alphas", "nan"],
            ["fig2a", "--alphas", "1", "inf"],
            ["concentrate", "--etas", "2"],
            ["concentrate", "--etas", "0.5", "nan"],
            ["cv", "--ar-min", "nan"],
            ["cv", "--ar-max", "inf"],
            ["cv", "--ar-min", "1.5", "--ar-max", "0.5"],
        ],
    )
    def test_bad_domain_input(self, argv, capsys):
        assert cli.main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_numeric_guard(self, capsys):
        # amplitude so small the logical basis degenerates
        assert cli.main(["fig2a", "--alphas", "1e-8", "--r-steps", "2"]) == 3

    def test_small_alpha_density_guard(self, capsys):
        # the basis is still accepted here, but the Bell coefficients (~1/N_theta)
        # cancel and the projected density misses its 1e-10 checks
        assert cli.main(["fig2a", "--alphas", "1e-4", "--r-steps", "2"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ecsim: numeric guard:")
        # the same when that amplitude shares the batched density with a sound one
        assert cli.main(["fig2a", "--alphas", "1", "1e-4"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["ecsim: numeric guard: density matrix is not Hermitian within 1e-10"]

    def test_small_alpha_accepted_on_a_fine_grid(self, capsys):
        # at alpha = 1e-3 the route's error, ~1.3 eps / N_theta = 7e-11, stays
        # inside the 1e-10 checks at all 1200 points; a basis built from its
        # angle fails the trace check at r = 0.16929...
        assert cli.main(["fig2a", "--alphas", "0.001", "--r-steps", "1200"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and len(out.splitlines()) == 1201

    @pytest.mark.parametrize("command", ["fig2a", "fig2b", "fig3", "teleport-mc"])
    @pytest.mark.parametrize("alphas", [("1", "1e-7"), ("1e-7", "1"), ("0.5", "2e-6", "2")])
    def test_degenerate_alpha_in_a_list(self, command, alphas, capsys):
        # the message is that of the degenerate amplitude alone, and both
        # channel routes name the same basis: the undecayed one first, then the
        # decayed one over the whole grid.  2e-6 is degenerate only at the
        # smallest decay factors.
        argv = [command, "--alphas", *alphas, "--r-steps", "4"]
        bad = float(next(a for a in alphas if float(a) < 1e-3))
        with pytest.raises(DegenerateBasisError) as guard:
            qe.make_basis(bad, 1.0)
            qe.make_basis(bad, dec.DecayClock.from_r(cli._r_grid(cli._parse(argv))).t)
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [f"ecsim: numeric guard: {guard.value}"]

    def test_property_cases_must_be_positive(self, capsys):
        # zero randomized cases would report every property suite as passed
        assert cli.main(["report", "--property-cases", "0"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_property_cases_bounded(self, monkeypatch, capsys):
        # a huge count would run for hours; it exits 2 before any check runs
        def run_all(property_cases):
            raise AssertionError("a check ran")

        monkeypatch.setattr(acceptance, "run_all", run_all)
        over = str(cli.MAX_PROPERTY_CASES + 1)
        for argv in (["report", "--property-cases", over],
                     ["report", "--property-cases", "1000000000"]):
            assert cli.main(argv) == 2
            assert "configuration error" in capsys.readouterr().err
        limit = ["report", "--property-cases", str(cli.MAX_PROPERTY_CASES)]
        assert cli._parse(limit).property_cases == cli.MAX_PROPERTY_CASES

    def test_bellmeas_truncated_cutoff(self, capsys):
        # cutoff 5 keeps almost none of the alpha = 4 photon distribution
        assert cli.main(["bellmeas", "--alphas", "4", "--cutoff", "5"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("ecsim: numeric guard: ")
        for part in ("alpha 4.0", "cutoff 5", "2.000e+00", "1e-09"):
            assert part in err
        assert cli.main(["bellmeas", "--alphas", "2", "--cutoff", "3"]) == 3

    @pytest.mark.parametrize("alpha,smallest", [("0.3", 8), ("1", 16), ("2", 31), ("3", 49)])
    def test_bellmeas_smallest_passing_cutoff(self, alpha, smallest, capsys):
        # the first cutoff whose tail upper bound meets BELLMEAS_TAIL_TOL, as
        # with the exact tail it replaced
        argv = ["bellmeas", "--alphas", alpha, "--cutoff"]
        assert cli.main(argv + [str(smallest - 1)]) == 3
        assert cli.main(argv + [str(smallest)]) == 0
        capsys.readouterr()

    def test_bellmeas_tail_tolerance_names_the_automatic_cutoff(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "BELLMEAS_TAIL_TOL", 0.0)
        assert cli.main(["bellmeas", "--alphas", "1"]) == 3
        assert "cutoff automatic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,code,kind",
        [
            (["teleport-mc", "--seed", "-1"], 2, "configuration error"),
            # each end is finite, the width overflows to inf
            (["cv", "--ar-min=-1e308", "--ar-max=1e308"], 2, "configuration error"),
            # the swap's success probability underflows to zero
            (["concentrate", "--alphas", "1", "--etas", "1e-170"], 3, "numeric guard"),
        ],
    )
    def test_clean_exit(self, argv, code, kind, capsys):
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"ecsim: {kind}:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("alphas,message", [
        (["1", "1e-7"], "cannot normalize a zero state"),  # (1, 1e-170) comes first
        (["1e-7", "1"], "basis degenerate at alpha=1e-07"),
    ])
    def test_concentrate_guards_trip_in_grid_order(self, alphas, message, capsys):
        assert cli.main(["concentrate", "--alphas", *alphas, "--etas", "1e-170", "0.5"]) == 3
        assert message in capsys.readouterr().err

    def test_concentrate_tiny_eta_still_computes(self, capsys):
        code, out = run_main(["concentrate", "--alphas", "1", "--etas", "1e-160"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert all(math.isfinite(float(v)) for v in rows[0].values())

    def test_bellmeas_large_alpha(self, capsys):
        # e^{4 alpha^2} overflows a double at alpha > ~13.32
        code, out = run_main(["bellmeas", "--alphas", "14"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert all(math.isfinite(float(v)) for v in rows[0].values())

    @pytest.mark.parametrize("argv", [["--alphas", "1", "--cutoff", "100000"], ["--alphas", "1000"]])
    def test_fock_grid_beyond_budget(self, argv):
        # These grids would need 149 GiB and ~234 TiB.  Under a 1 GiB
        # address-space cap the run must refuse them before allocating.
        code = (
            "import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "cap = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "from ecsim import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "bellmeas", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("ecsim: numeric guard:")
        assert "budget" in err[0]

    @pytest.mark.parametrize("argv", [["bellmeas", "--cutoff", "0"],
                                      ["bellmeas", "--cutoff", "-3"],
                                      ["bellmeas", "--alphas", "0.5", "--cutoff", "0"]])
    def test_cutoff_below_one(self, argv, capsys):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("ecsim: configuration error: cutoff")

    def test_sizes_past_their_limits(self, capsys):
        assert cli.main(["teleport-mc", "--samples", str(cli.MAX_SAMPLES + 1)]) == 2
        assert cli.main(["cv", "--ar-steps", str(cli.MAX_AR_STEPS + 1)]) == 2
        steps = cli.MAX_R_POINTS // 2 + 1
        assert cli.main(["fig2a", "--alphas", "1", "--r-steps", str(2 * steps)]) == 2
        # the r grid is held once per alpha
        assert cli.main(["fig2a", "--alphas", "1", "2", "--r-steps", str(steps)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4 and all(e.startswith("ecsim: configuration error:") for e in err)

    def test_sizes_at_their_limits_parse(self):
        cli._parse(["teleport-mc", "--samples", str(cli.MAX_SAMPLES)])
        cli._parse(["cv", "--ar-steps", str(cli.MAX_AR_STEPS)])
        cli._parse(["fig3", "--r-steps", str(cli.MAX_R_POINTS // len(cli.DEFAULT_ALPHAS))])
        # the largest perfbench requests: 30000 shots, 400 steps on three alphas
        cli._parse(["teleport-mc", "--samples", "30000", "--r-steps", "400"])
        cli._parse(["fig2b", "--alphas", "0.1", "1", "2.5", "--r-steps", "400"])

    @pytest.mark.parametrize("argv", [["teleport-mc", "--samples", "1000000000000"],
                                      ["fig2a", "--r-steps", "1000000000"],
                                      ["cv", "--ar-steps", "1000000000"]])
    def test_oversized_request_refused_before_allocating(self, argv):
        # 7.28 TiB of Monte Carlo draws and two 7.45 GiB grids: under a 1 GiB
        # address-space cap each must exit 2, not end in a MemoryError
        code = (
            "import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "cap = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "from ecsim import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("ecsim: configuration error:")
        assert "Traceback" not in proc.stderr

    def test_io_error(self, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "out.csv"
        code = cli.main(
            ["cv", "--ar-steps", "3", "--output", str(target)]
        )
        assert code == 4

    def test_output_file_written(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code = cli.main(
            ["fig2a", "--alphas", "1", "--r-steps", "2", "--r-max", "0.5",
             "--output", str(target)]
        )
        assert code == 0
        assert target.read_text().startswith("alpha,r,e_closed,e_numeric")

    def test_unknown_command_exits_2(self, capsys):
        assert cli.main(["nonsense"]) == 2
        assert capsys.readouterr().err.startswith("ecsim: configuration error:")
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig2a", "--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("argv,message", [
        (["fig2a", "--no-such-flag"], "unrecognized arguments"),
        (["fig2a", "--r-steps", "2.5"], "invalid int value"),
        (["cv", "--format", "xml"], "invalid choice"),
        # a flag the command does not read is not accepted
        (["fig2a", "--seed", "3"], "unrecognized arguments: --seed 3"),
    ])
    def test_argparse_errors_exit_2(self, argv, message, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("ecsim: configuration error:")
        assert message in captured.err


class TestNegativeNumbers:
    """A negative number in exponent form is a value, as -0.5 is."""

    def test_exponent_form_is_read_as_the_value(self):
        assert cli.render(["cv", "--ar-min", "-5e-1"]) == cli.render(["cv", "--ar-min=-0.5"])

    @pytest.mark.parametrize("argv,message", [
        (["fig2a", "--r-min", "-1e-3"], "need 0 <= r_min <= r_max"),
        (["fig2a", "--alphas", "1", "-1e-3"], "alphas must lie in (0, 1e+06]"),
    ])
    def test_out_of_range_exponent_form_is_a_config_error(self, argv, message, capsys):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"ecsim: configuration error: {message}\n"


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


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ecsim.cli", "cv", "--ar-steps", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("alpha_r,f,is_max")


class TestImportPath:
    def test_fig_render_does_not_load_acceptance(self):
        # only report reads the acceptance checks; other commands never
        # import (or, without bytecode caching, compile) them
        code = (
            "import sys, ecsim.cli\n"
            "ecsim.cli.render(['fig2a', '--r-steps', '3'])\n"
            "print('ecsim.acceptance' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

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
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(loaded)

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
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "[]"
        assert lines[-1] == "[]"
        assert lines[-2].endswith(",1")  # the located maximum was printed


# ---------------------------------------------------------------------------
# column writers against the row-dict writers they replaced


def _ref_format_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _ref_to_csv(rows) -> str:
    if not rows:
        return "\n"
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_ref_format_value(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _ref_to_json(rows) -> str:
    plain = [
        {k: (int(v) if isinstance(v, (int, np.integer)) else float(v)) for k, v in r.items()}
        for r in rows
    ]
    return json.dumps(plain, indent=2) + "\n"


def _broadcast_columns(table):
    """Each column of a column table broadcast to the table's shape, flat in C order."""
    shape = np.broadcast_shapes(*(col.shape for col in table.values()))
    return [np.broadcast_to(col, shape).ravel() for col in table.values()]


def _row_dicts(table):
    """The per-row dicts of a column table, with numpy scalar values."""
    return [dict(zip(table, values)) for values in zip(*_broadcast_columns(table))]


def _row_tuples(table):
    """The rows of a column table as tuples of Python values."""
    return list(zip(*[col.tolist() for col in _broadcast_columns(table)]))


def _mc_kernel_reference(channel, samples, seed, chunk):
    """teleport_average_mc as it was with an (n, 4) layout, shot axis outermost."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, samples)
    ph = rng.uniform(0.0, 2.0 * math.pi, samples)
    u = rng.random(samples)
    q = protocols.bloch_transfer(channel)
    fids = np.empty(samples)
    for start in range(0, samples, chunk):
        block = slice(start, start + chunk)
        zb, phb = z[block], ph[block]
        s = np.sqrt((1.0 - zb) * (1.0 + zb))
        b = np.stack([np.ones_like(zb), s * np.cos(phb), s * np.sin(phb), zb])
        probs = sum(2.0 * q[:, 0, j] * b[j][:, None] for j in range(4))
        cum = np.cumsum(probs, axis=1)
        ks = (u[block, None] * cum[:, -1:] > cum).sum(axis=1)
        qk = q[ks]
        num = sum(b[i] * sum(qk[:, i, j] * b[j] for j in range(4)) for i in range(4))
        fids[block] = num / probs[np.arange(len(zb)), ks]
    mean = float(fids.mean())
    stderr = float(fids.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr


DEFAULT_ARGV = {
    "fig2a": [], "fig2b": [], "fig3": [], "bellmeas": [], "concentrate": [], "cv": [],
    "teleport-mc": ["--samples", "50"],
}
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
# Extreme values in broadcast columns: NaN, +-inf, -0.0 next to 0.0, the least
# subnormal, and 0-d ints, in (A, 1), (1, R) and 0-d columns
_ALPHA_COL = np.array([[math.nan], [-0.0], [0.0], [math.inf], [5e-324]])
_R_COL = np.array([[-math.inf, 0.0, -0.0, 5e-324, 1.0 / 3.0, math.nan]])
BROADCAST_TABLES = {
    "with-full-column": {"alpha": _ALPHA_COL, "r": _R_COL,
                         "x": np.arange(30.0).reshape(5, 6) - 14.0,
                         "const": np.array(-0.0), "n": np.array(7), "big": np.array(-(2**62))},
    "no-full-column": {"n": np.array(3), "r": _R_COL, "alpha": _ALPHA_COL,
                       "nan": np.array(math.nan)},
    "flat-axis": {"alpha": _ALPHA_COL, "r": _R_COL[0], "inf": np.array(-math.inf)},
    "middle-axis": {"a": np.array([[[1.5, -0.0, math.inf]], [[math.nan, 0.0, 5e-324]]]),
                    "b": np.array([[-1.0], [0.0], [-0.0], [math.inf]]), "k": np.array(0)},
    "one-row": {"a": np.array(math.nan), "b": np.array([[-0.0]]), "n": np.array(1)},
}


class TestColumnWriters:
    @pytest.mark.parametrize("command", list(DEFAULT_ARGV))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_match_row_writers_at_defaults(self, command, fmt):
        cfg = cli._parse([command, "--format", fmt, *DEFAULT_ARGV[command]])
        table = cli._ROW_BUILDERS[command](cfg)
        assert {name: col.shape for name, col in table.items()} == DEFAULT_SHAPES[command]
        if fmt == "csv":
            text, want = cli._to_csv(table), _ref_to_csv(_row_dicts(table))
        else:
            text, want = cli._to_json(table), _ref_to_json(_row_dicts(table))
        assert text == want
        assert cli.render([command, "--format", fmt, *DEFAULT_ARGV[command]]) == text

    def test_int_columns(self):
        assert cli._rows_cv(cli._parse(["cv", "--ar-steps", "3"]))["is_max"].dtype.kind == "i"
        table = cli._rows_teleport_mc(cli._parse(["teleport-mc", "--alphas", "1", "--r-steps",
                                                  "2", "--samples", "3"]))
        assert table["samples"].dtype.kind == "i"

    @pytest.mark.parametrize("table", [
        {"x": np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                        1e300, -1e300, 1.0 / 3.0, 0.1, 1e16, 123456789.0]),
         "n": np.array([0, 1, -7, 2**62, -(2**62), 10, 3, 4, 5, 6, 7, 8, 9])},
        {"only": np.array([math.nan])},
        {"a": np.array([1.5, -2.5]), "b_col": np.array([-0.0, math.inf]),
         "k": np.array([1, 0]), "c": np.array([math.nan, 1e-320])},
    ])
    def test_match_row_writers_on_extreme_values(self, table):
        rows = _row_dicts(table)
        assert cli._to_csv(table) == _ref_to_csv(rows)
        assert cli._to_json(table) == _ref_to_json(rows)
        back = json.loads(cli._to_json(table))
        assert [list(r) for r in back] == [list(table)] * len(rows)

    @pytest.mark.parametrize("table", list(BROADCAST_TABLES.values()), ids=list(BROADCAST_TABLES))
    def test_broadcast_columns_match_row_writers(self, table):
        rows = _row_dicts(table)
        csv_text, json_text = cli._to_csv(table), cli._to_json(table)
        assert csv_text == _ref_to_csv(rows)
        assert json_text == _ref_to_json(rows)
        assert [list(r) for r in json.loads(json_text)] == [list(table)] * len(rows)

    def test_broadcast_rows_are_alpha_major_and_keep_signed_zeros(self):
        table = BROADCAST_TABLES["with-full-column"]
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

    def test_teleport_rows_match_per_point_loop(self):
        cfg = cli._parse(["teleport-mc", "--alphas", "0.3", "1.7", "--r-min", "0.05",
                          "--r-max", "0.93", "--r-steps", "5", "--samples", "37",
                          "--seed", "5"])
        table = cli._rows_teleport_mc(cfg)
        want = []
        for a, alpha in enumerate(cfg.alphas):
            for i, r in enumerate(cli._r_grid(cfg)):
                q = protocols.bloch_transfer(channel_rho4(alpha, float(r)))
                mean, stderr = protocols.teleport_average_mc(q, cfg.samples,
                                                             cfg.seed + 5 * a + i)
                want.append((alpha, float(r), protocols.average_fidelity(q), mean, stderr,
                             cfg.samples))
        got = _row_tuples(table)
        assert [tuple(map(repr, row)) for row in got] == [tuple(map(repr, row)) for row in want]

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

    def test_teleport_rows_check_each_batch_once(self, monkeypatch):
        # one density check per request (its (alpha, r) batch); the rows are views of it
        checks = []
        check = qe.TwoQubitDensity.__post_init__
        monkeypatch.setattr(qe.TwoQubitDensity, "__post_init__",
                            lambda self: checks.append(self.matrix.shape) or check(self))
        cli._rows_teleport_mc(cli._parse(["teleport-mc", "--alphas", "0.5", "1.5",
                                          "--r-steps", "6", "--samples", "3"]))
        assert checks == [(2, 6, 4, 4)]

    @pytest.mark.parametrize("command", ["fig2a", "fig2b", "fig3"])
    def test_fig_rows_match_per_alpha_renders(self, command):
        # one numeric pass over the (alpha, r) grid gives each alpha's own rows
        alphas = ["0.001", "0.05", "0.7", "2.3", "14", "1e6"]
        grid = ["--r-min", "0.05", "--r-max", "0.99", "--r-steps", "9"]
        table = cli._ROW_BUILDERS[command](cli._parse([command, "--alphas", *alphas, *grid]))
        want = []
        for alpha in alphas:
            one = cli._ROW_BUILDERS[command](cli._parse([command, "--alphas", alpha, *grid]))
            want += _row_tuples(one)
        got = _row_tuples(table)
        assert [tuple(map(repr, row)) for row in got] == [tuple(map(repr, row)) for row in want]

    def test_teleport_rows_match_per_alpha_renders(self):
        # the batched request keeps each row's stream, seed + alpha index * len(r) + i
        alphas, steps, seed = ["0.3", "1.7", "2.9"], 4, 11
        base = ["--r-max", "0.93", "--r-steps", str(steps), "--samples", "23"]
        table = cli._rows_teleport_mc(
            cli._parse(["teleport-mc", "--alphas", *alphas, "--seed", str(seed), *base]))
        want = []
        for a, alpha in enumerate(alphas):
            one = cli._rows_teleport_mc(cli._parse(
                ["teleport-mc", "--alphas", alpha, "--seed", str(seed + a * steps), *base]))
            want += _row_tuples(one)
        got = _row_tuples(table)
        assert [tuple(map(repr, row)) for row in got] == [tuple(map(repr, row)) for row in want]

    @pytest.mark.parametrize("chunk", [1, 7, protocols.MC_CHUNK])
    def test_mc_kernel_matches_shot_minor_reference(self, monkeypatch, chunk):
        monkeypatch.setattr(protocols, "MC_CHUNK", chunk)
        channels = [channel_rho4(1.0, 0.0), channel_rho4(0.4, 0.6), channel_rho4(2.0, 0.93)]
        # 2 chunk and 2 chunk + 1 put block edges at the start of the phase and
        # outcome-draw segments of the stream; the first seed runs again after the
        # others, so no state can carry from one call to the next
        for samples in sorted({1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1,
                               3 * chunk + 5} - {0}):
            for k in (0, 1, 2, 0):
                got = protocols.teleport_average_mc(protocols.bloch_transfer(channels[k]),
                                                    samples, seed=100 + k)
                want = _mc_kernel_reference(channels[k], samples, 100 + k, chunk)
                assert tuple(map(repr, got)) == tuple(map(repr, want))

    @pytest.mark.parametrize("channel", [
        pytest.param(lambda: channel_rho4(1e-3, 0.4), id="alpha1e-3"),
        # e^{-4 alpha^2} is subnormal: transfer entries near underflow
        pytest.param(lambda: channel_rho4(13.4, 0.0), id="alpha13.4-r0"),
        pytest.param(lambda: channel_rho4(13.4, 0.7), id="alpha13.4-r0.7"),
        pytest.param(lambda: channel_rho4(1e6, 0.9), id="alpha1e6"),
        *(pytest.param(lambda seed=seed: random_density(seed), id=f"random{seed}")
          for seed in (1, 2, 3)),
    ])
    def test_mc_kernel_matches_reference_at_extremes(self, channel):
        # the kernel takes the m = 0 numerator row as half the outcome probability
        channel = channel()
        for samples in (1, 2, protocols.MC_CHUNK - 1, protocols.MC_CHUNK + 1):
            got = protocols.teleport_average_mc(protocols.bloch_transfer(channel), samples,
                                                seed=samples)
            want = _mc_kernel_reference(channel, samples, samples, protocols.MC_CHUNK)
            assert tuple(map(repr, got)) == tuple(map(repr, want))

    def test_teleport_request_makes_one_transfer_and_one_average(self, monkeypatch):
        calls = []
        for name in ("bloch_transfer", "average_fidelity"):
            fn = getattr(protocols, name)
            monkeypatch.setattr(protocols, name,
                                lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
        cli.render(["teleport-mc", "--alphas", "0.5", "1.5", "2.5", "--r-steps", "4",
                    "--samples", "3"])
        assert sorted(calls) == ["average_fidelity", "bloch_transfer"]

    def test_concentrate_request_makes_one_ideal_swap_and_one_closed_form_call(self, monkeypatch):
        calls = []
        for name in ("concentrate_ideal", "concentration_success_closed_form"):
            fn = getattr(protocols, name)
            monkeypatch.setattr(protocols, name, lambda *a, _fn=fn, _name=name:
                                calls.append((_name, np.shape(a[-1]))) or _fn(*a))
        cli.render(["concentrate", "--alphas", "0.5", "1.0", "2.0",
                    "--etas", "0.3", "0.7", "1.1"])
        assert sorted(calls) == [("concentrate_ideal", (3,)),
                                 ("concentration_success_closed_form", (3,))]

    def test_cv_request_makes_one_fidelity_call_for_its_grid(self, monkeypatch):
        # cv_max is a closed form, which calls no fidelity
        calls = []
        real = protocols.cv_fidelity
        monkeypatch.setattr(protocols, "cv_fidelity",
                            lambda x: calls.append(np.shape(x)) or real(x))
        cli.render(["cv", "--ar-steps", "7"])
        assert calls == [(7,)]


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
    captured = capsys.readouterr()
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in captured.err, argv
    if code != 0:
        return code
    if argv[0] == "report":  # no checks run under the stub
        assert captured.out == "0/0 checks passed\n"
    elif captured.out.startswith("["):
        values = [v for row in json.loads(captured.out) for v in row.values()]
        assert all(math.isfinite(v) for v in values), argv
    else:
        lines = captured.out.splitlines()[1:]
        assert all(math.isfinite(float(x)) for ln in lines for x in ln.split(",")), argv
    return code


class TestExtremeFlags:
    """Every command under each flag's extreme values ends in a clean exit."""

    @pytest.fixture(autouse=True)
    def _stub_report(self, monkeypatch):
        # the acceptance checks take seconds and have their own tests
        monkeypatch.setattr(acceptance, "run_all", lambda property_cases: [])

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

    @pytest.mark.parametrize("argv,code", [
        (["fig2a", "--alphas=1e308"], 2),
        (["teleport-mc", "--alphas", "1", str(cli.MAX_ALPHA * 1.001)], 2),
        (["bellmeas", "--alphas", "30"], 3),
    ])
    def test_huge_amplitudes(self, argv, code, capsys):
        # alpha^2 overflowed past ~1.3e154, and the Fock amplitudes underflow
        # past alpha ~ 26.6 on the beam splitter's output modes
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("ecsim: ") and "Traceback" not in err


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
