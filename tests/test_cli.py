import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsfield import casimir, cli, csvtext, errors
from rsfield.casimir import (
    CasimirScenario,
    VelocityProfile,
    casimir_map,
    casimir_maps,
    solve_modes,
    solve_modes_direct,
)
from rsfield.cli import (
    FOCK_KEYS,
    FOCK_THRESHOLDS,
    load_config,
    main,
    parse_casimir_config,
    run_amplify,
    run_casimir,
    run_fock_check,
    run_sweep,
)
from rsfield.errors import ConfigError
from rsfield.fock import FockState, coherent_state, measure_rsf
from rsfield.numerics import FloquetSolution
from rsfield.rsf import ReducedField
from rsfield.symplectic import (
    SYMPLECTIC_TOL,
    classicality,
    is_classical_closed,
    is_classical_open,
    roundoff_limit,
    symplectic_residuals,
)

E2_MINUS_1 = 6.389056098930650
ROOT = Path(__file__).resolve().parents[1]


def write_config(path, **overrides):
    cfg = {
        "refractive_index": 1.5,
        "omega": 1.0,
        "theta": np.pi / 4,
        "profile": {"kind": "sinusoid", "beta0": 0.2, "drive_frequency": 2.0},
        "t_end": 10.0,
        "samples": 21,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg


# the config errors of test_malformed_value_exits_two: a bad value of the
# key that each change sets
MALFORMED = [
    ("casimir", {"omega": "fast"}),
    ("casimir", {"omega": None}),
    ("casimir", {"rel_tol": "tight"}),
    ("casimir", {"rel_tol": 0.0}),
    ("casimir", {"rel_tol": -1e-3}),
    ("casimir", {"t_end": float("nan")}),
    ("sweep", {"sweep": {"drive_frequency": [1.0, "x"]}}),
    ("fock-check", {"cutoff": "big"}),
    ("fock-check", {"cutoff": 12.7}),
    ("fock-check", {"squeeze": "x"}),
    ("fock-check", {"angle": None}),
    ("fock-check", {"seed": "a"}),
    ("fock-check", {"checks": "squeeze"}),
    ("amplify", {"t_end": "x"}),
    ("amplify", {"t_end": -1.0}),
    ("fock-check", {"cutoff": 0}),
    ("fock-check", {"cutoff": 1}),
    ("fock-check", {"cutoff": -3}),
    ("casimir", {"out_dir": 5}),
    ("fock-check", {"out_dir": ["x"]}),
    ("fock-check", {"checks": []}),
    ("amplify", {"kappa": float("nan")}),
    ("amplify", {"kappa": [float("inf")]}),
    ("amplify", {"kappa": -1.0}),
    ("amplify", {"m": [float("nan")]}),
    ("amplify", {"m": float("-inf")}),
    ("amplify", {"m": [-1.0]}),
    ("amplify", {"kappa": [], "m": []}),
    ("fock-check", {"angle": 100.0}),
    ("fock-check", {"angle": -7.0}),
    ("fock-check", {"squeeze": 400.0}),
    ("fock-check", {"squeeze": 1000.0}),
    *[("fock-check", {"cutoff": c, "checks": ["identity"]}) for c in range(2, 6)],
    *[("fock-check", {"cutoff": c, "checks": ["observables"]}) for c in range(2, 5)],
    # a JSON boolean is not a number: float(true) would read it as 1
    ("casimir", {"omega": True}),
    ("casimir", {"theta": False}),
    ("casimir", {"profile": {"kind": "sinusoid", "beta0": 0.2, "drive_frequency": True}}),
    ("casimir", {"sigma": True}),
    ("sweep", {"sweep": {"drive_frequency": [1.0, True]}}),
    ("amplify", {"kappa": [True]}),
    ("fock-check", {"seed": True}),
    ("fock-check", {"angle": True}),
    ("fock-check", {"cutoff": True}),
]
# moments the cutoff leaves out: 1.25e-7 of the squeezed vacuum but 4.5e-6 of
# its pair moment lie beyond cutoff 24 (admitted by the population alone, it
# failed the squeeze check at 5.07e-6), and the identity check's coherent
# state at cutoffs 6 and 7, whose boundary shell passes, misses 4.1e-9 and
# 6.2e-11 of its closed-form moments
MOMENT_TAIL = [
    ("fock-check", {"squeeze": 0.9236984507943009, "checks": ["squeeze"], "cutoff": 24}),
    ("fock-check", {"cutoff": 6, "checks": ["identity"]}),
    ("fock-check", {"cutoff": 7, "checks": ["identity"]}),
]

# configs with a key that nothing would read, (command, change, key): each
# exits 2 naming the key
_SINUSOID = {"kind": "sinusoid", "beta0": 0.2, "drive_frequency": 2.0}
UNREAD = [
    ("casimir", {"profile": {**_SINUSOID, "duration": 3.0}}, "duration"),
    ("casimir", {"profile": {**_SINUSOID, "ramp_time": 3.0}}, "ramp_time"),
    ("extract", {"profile": {**_SINUSOID, "hold_time": 1.0}}, "hold_time"),
    ("casimir", {"profile": {"kind": "constant", "beta0": 0.2, "drive_frequency": 2.0}},
     "drive_frequency"),
    ("casimir", {"sweep": {"omega": [1.0]}}, "sweep"),
    ("extract", {"sweep": {"omega": [1.0]}}, "sweep"),
    ("sweep", {"profile": {"kind": "smooth_pulse", "beta0": 0.2, "duration": 10.0},
               "sweep": {"drive_frequency": [1.0, 2.0]}}, "drive_frequency"),
]

# the media of test_overflowing_medium_exits_two, (key, value)
OVERFLOWING = [
    ("refractive_index", 1e160),
    ("refractive_index", 1e200),
    ("sigma", 1e160),
    ("sigma", 1e200),
    ("sigma", 1e-200),
    ("sigma", 1e-160),
]
# finite sigmas whose frame, e^(6|c|) with c = ln(sigma_auto / sigma), leaves
# the float range
ILL_CONDITIONED = [("sigma", 1e150), ("sigma", 1e-150)]

# the config files of test_json_array_config_exits_two
JSON_ARRAYS = ["[]", "[1, 2]"]

# runs past the array budget, (command, change, extra argv): without the
# bound each asked numpy for terabytes and ended in a traceback at once
OVERSIZED = [
    ("fock-check", {"cutoff": 1e6}, []),
    ("fock-check", {"cutoff": 1000000, "checks": ["beam_splitter"]}, []),
    *[(command, {"samples": 1e12}, []) for command in ("casimir", "sweep", "extract", "amplify")],
    *[(command, {}, ["--samples", "1000000000000"])
      for command in ("casimir", "sweep", "extract", "amplify")],
]


def made(path: Path) -> Path:
    """``path``, created as ``main`` creates a run's output directory before
    its runner starts."""
    path.mkdir()
    return path


# a gate's report line, ``name: value V, limit L, t=T``
REPORT_LINE = re.compile(r"^  (.+): (value (\S+), limit (\S+), t=(\S+))$", re.MULTILINE)


def printed_gates(out: str) -> dict:
    """The gate lines of a printed report, (value, limit, t) by name."""
    return {m[1]: tuple(map(float, m.groups()[2:])) for m in REPORT_LINE.finditer(out)}


def write_command_config(path, command, change):
    """A config of ``command`` with ``change`` applied, or the text ``change``."""
    if isinstance(change, str):
        path.write_text(change, encoding="utf-8")
    elif command in ("casimir", "sweep", "extract"):
        write_config(path, **change)
    else:
        base = {"amplify": {"kappa": [1.0], "m": [0.0]}}.get(command, {})
        path.write_text(json.dumps({**base, **change}), encoding="utf-8")


class TestConfigValidation:
    def test_unknown_key_is_named(self, tmp_path):
        p = tmp_path / "c.json"
        write_config(p, omga=2.0)
        with pytest.raises(ConfigError, match="omga"):
            parse_casimir_config(load_config(p))

    def test_unknown_profile_key_is_named(self, tmp_path):
        p = tmp_path / "c.json"
        write_config(p, profile={"kind": "sinusoid", "beta0": 0.2,
                                 "drive_frequency": 2.0, "beta1": 0.3})
        with pytest.raises(ConfigError, match="beta1"):
            parse_casimir_config(load_config(p))

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "c.json"
        cfg = write_config(p)
        del cfg["omega"]
        p.write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.raises(ConfigError, match="omega"):
            parse_casimir_config(load_config(p))

    def test_superluminal_profile_names_constraint(self, tmp_path):
        p = tmp_path / "c.json"
        write_config(p, profile={"kind": "sinusoid", "beta0": 1.2,
                                 "drive_frequency": 2.0})
        with pytest.raises(ConfigError, match="subluminal"):
            parse_casimir_config(load_config(p))

    @pytest.mark.parametrize("sigma", ["auto", 1.3])
    def test_parsed_scenario_is_built_from_the_same_keys(self, tmp_path, sigma):
        cfg = write_config(tmp_path / "c.json", sigma=sigma)
        parsed = parse_casimir_config(cfg)
        expected = CasimirScenario(
            refractive_index=cfg["refractive_index"], omega=cfg["omega"], theta=cfg["theta"],
            profile=VelocityProfile(**cfg["profile"]), t_end=cfg["t_end"], sigma=sigma,
        )
        assert parsed["scenario"] == expected
        assert sorted(parsed) == ["abs_tol", "out_dir", "rel_tol", "samples", "scenario"]

    def test_exit_code_two_on_bad_config(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        write_config(p, profile={"kind": "sinusoid", "beta0": 1.2,
                                 "drive_frequency": 2.0})
        code = main(["casimir", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "subluminal" in capsys.readouterr().err


class TestRunCasimir:
    @pytest.mark.parametrize("change", [
        {"omega": 0.233, "theta": 2.56, "t_end": 0.00708,
         "profile": {"kind": "smooth_pulse", "beta0": 0.3, "duration": 0.00775}},
        {"theta": 0.9, "t_end": 14.0, "samples": 201,
         "profile": {"kind": "linear_ramp_windowed", "beta0": 0.3, "ramp_time": 1e-3,
                     "hold_time": 3.0}},
        {"theta": 0.9, "t_end": 14.0, "samples": 201,
         "profile": {"kind": "linear_ramp_windowed", "beta0": 0.3, "ramp_time": 1e-9,
                     "hold_time": 3.0}},
    ], ids=["short_pulse", "short_ramp", "sudden_ramp"])
    def test_growth_law_step_follows_the_profile(self, tmp_path, capsys, change):
        # a step of 5e-4 / omega was an eighth of the short pulse (residual
        # 2.8e-9 against 2.3e-13) and spanned the short ramp's corner; from
        # 5e-4 of the duration the pulse reads 3.0e-19.  The step stops at
        # 5e-9 / omega, so the sudden ramp's roundoff stays below the limit
        p = tmp_path / "c.json"
        write_config(p, **change)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["casimir", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 0, capsys.readouterr().out

    def test_growth_law_limit_takes_the_difference_error(self, tmp_path, capsys):
        # a pulse of 1e-7, far below 1e-5 / omega, which the capped step does
        # not resolve: at t = 0 its stencil reads 3.48e-13 against the floor
        # 1e-12 omega = 2.33e-13, and again at h/2 -1.8e-14, so the sample's
        # limit gains 16/15 of the difference, to 6.2e-13
        p = tmp_path / "c.json"
        write_config(p, omega=0.233, theta=0.9, t_end=14.0, samples=201,
                     profile={"kind": "smooth_pulse", "beta0": 0.3, "duration": 1e-7})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["casimir", "--config", str(p), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0, out
        value, limit, t = printed_gates(out)["growth_law"]
        assert 0.233e-12 < value < limit < 1e-12 and t == 0.0

    def test_passing_growth_law_evaluates_no_further_stencil(self, tmp_path, monkeypatch):
        steps = []
        real = casimir._density_rates

        def recording(sol, t, side, h):
            steps.append(h)
            return real(sol, t, side, h)

        monkeypatch.setattr(casimir, "_density_rates", recording)
        report = run_casimir(parse_casimir_config(write_config(tmp_path / "c.json")), tmp_path)
        assert report.ok and len(steps) == 1

    def test_constant_profile_run(self, tmp_path):
        p = tmp_path / "c.json"
        cfg = write_config(p, profile={"kind": "constant", "beta0": 0.2})
        report = run_casimir(parse_casimir_config(cfg), tmp_path)
        assert report.ok
        assert report.summary["final_photon_density"] <= 1e-12
        assert report.summary["classical_closed_final"] is True
        assert report.summary["classical_open_always"] is True
        assert report.summary["floquet_exponent"] is None  # no period

    def test_sinusoid_run_produces_and_stays_open_classical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        report = run_casimir(parse_casimir_config(cfg), tmp_path)
        assert report.ok
        assert report.summary["final_photon_density"] > 1e-10
        assert report.summary["classical_closed_final"] is False
        assert report.summary["classical_open_always"] is True
        assert np.max(np.abs(report.columns["ccr_residual"])) <= 1e-8
        assert np.max(report.columns["_symplectic_residual"]) <= 1e-8

    def test_summary_recomputes_from_columns(self, tmp_path):
        # the summary's numpy reductions against plain loops over the columns;
        # it restates no gate
        cfg = write_config(tmp_path / "c.json")
        report = run_casimir(parse_casimir_config(cfg), tmp_path)
        assert report.ok
        cols = {name: c.tolist() for name, c in report.columns.items()}
        period_end = solve_modes_direct(parse_casimir_config(cfg)["scenario"],
                                        [0.0, np.pi], rtol=1e-11, atol=1e-13)
        beta = 0.2 * math.sin(2.0 * cols["T"][-1])
        delta = (1.5 ** 2 - 1.0) / (1.5 ** 2 - beta * beta)
        rho = 0.25 * math.log((1.0 - delta * beta * beta) / (1.0 - 0.5 * delta * beta * beta))
        again = {
            "final_photon_density": cols["n_density"][-1],
            "classical_closed_final": cols["classical_closed"][-1],
            "classical_open_always": all(cols["classical_open"]),
            "gamma_up_min": min(cols["gamma_up"]),
            # sigma_auto = 1 at beta(0) = 0, so rho = ln(sigma_inst(T)) and the
            # columns are the frame of sigma = "auto"
            "final_instantaneous_density": abs(
                math.cosh(rho) * complex(cols["re_fRm"][-1], cols["im_fRm"][-1])
                - math.sinh(rho) * complex(cols["re_fRp"][-1], cols["im_fRp"][-1])) ** 2,
            # from the direct route's U(P), P = pi: |Re u_M| = 0.99965 < 1
            "floquet_exponent": math.acosh(max(1.0, abs(period_end.f_rp[-1].real))) / np.pi,
            # three whole periods: the period's last grid is the one kept
            "route": "floquet",
            "steps": cli._solve(parse_casimir_config(cfg)).propagator.grids[-1],
        }
        assert report.summary["floquet_exponent"] == 0.0
        assert again.keys() == report.summary.keys()
        for key, value in report.summary.items():
            if isinstance(value, bool):
                assert again[key] is value
            elif isinstance(value, str):
                assert again[key] == value
            else:
                assert abs(again[key] - value) <= 1e-12
        # each gate is its column at the sample of largest residual / limit
        for name, residual, limit in [
            ("ccr_invariant", cols["ccr_residual"], [1e-8] * len(cols["T"])),
            ("growth_law", cols["growth_residual"], cols["_growth_limit"]),
        ]:
            ratios = [abs(r) / lim for r, lim in zip(residual, limit)]
            worst = ratios.index(max(ratios))
            assert report.gates[name] == cli.Gate(residual[worst], limit[worst], cols["T"][worst])

    def test_csv_schema_and_roundtrip_precision(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        report = run_casimir(parse_casimir_config(cfg), tmp_path, csv_name="run.csv")
        lines = (tmp_path / "run.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "T", "re_fRp", "im_fRp", "re_fRm", "im_fRm", "re_fLp", "im_fLp",
            "re_fLm", "im_fLm", "phi", "n_density", "ccr_residual", "h",
            "gamma_up", "gamma_up_extracted", "gamma_down_extracted",
            "growth_residual", "classical_closed", "classical_open",
        ]
        assert len(lines) == 1 + 21
        # 17 significant digits make the round trip exact
        row5 = lines[6].split(",")
        assert float(row5[1]) == report.columns["re_fRp"][5]
        assert float(row5[10]) == report.columns["n_density"][5]
        assert row5[17] in ("true", "false")

    def test_bitwise_reproducible(self, tmp_path):
        p = tmp_path / "c.json"
        write_config(p)
        assert main(["casimir", "--config", str(p), "--out", str(tmp_path / "a")]) == 0
        assert main(["casimir", "--config", str(p), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "casimir.csv").read_bytes()
        b = (tmp_path / "b" / "casimir.csv").read_bytes()
        assert a == b


class TestRouteReport:
    RAMP = {"kind": "linear_ramp_windowed", "beta0": 0.3, "ramp_time": 2.0, "hold_time": 1.0}

    @pytest.mark.parametrize("overrides, route, steps", [
        ({}, "floquet", 256),  # three periods: the period's kept grid
        ({"profile": RAMP, "t_end": 6.0}, "direct", 384),
        # the README medium over 63 periods at rel_tol 1e-13: the roundoff of
        # M^63 misses the tolerance, so the run falls back to the direct route
        ({"t_end": 200.0, "rel_tol": 1e-13, "abs_tol": 1e-15}, "direct", 12800),
    ], ids=["floquet", "ramp", "roundoff_fallback"])
    def test_summary_and_report_name_the_route(self, tmp_path, capsys, overrides, route, steps):
        cfg = parse_casimir_config(write_config(tmp_path / "c.json", **overrides))
        report = run_casimir(cfg, made(tmp_path / "run"))
        assert (report.summary["route"], report.summary["steps"]) == (route, steps)
        sol = cli._solve(cfg)
        assert (sol.route, sol.steps) == (route, steps)
        assert (route == "floquet") == isinstance(sol.propagator, FloquetSolution)
        assert main(["casimir", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "main")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert f"  route: {route}" in out and f"  steps: {steps}" in out
        # the CSV keeps its columns
        header = (tmp_path / "main" / "casimir.csv").read_text().splitlines()[0]
        assert header.split(",") == list(cli.CSV_COLUMNS)


class TestRunSweep:
    def test_single_point_sweep_matches_plain_run(self, tmp_path):
        cfg = parse_casimir_config(write_config(tmp_path / "c.json"))
        plain = run_casimir(cfg, made(tmp_path / "plain"))
        cfg_sweep = cli.parse_sweep_config(write_config(
            tmp_path / "s.json", sweep={"omega": [1.0], "theta": None,
                                        "drive_frequency": None, "beta0": None}))
        sweep = run_sweep(cfg_sweep, made(tmp_path / "sw"))
        assert sweep.summary["points"] == 1
        a = (tmp_path / "plain" / "casimir.csv").read_bytes()
        b = (tmp_path / "sw" / "casimir_000.csv").read_bytes()
        assert a == b

    def test_grid_creates_deterministic_files(self, tmp_path):
        cfg = cli.parse_sweep_config(write_config(
            tmp_path / "c.json", samples=11, t_end=5.0,
            sweep={"omega": [0.8, 1.0, 1.2], "theta": None,
                   "drive_frequency": [1.6, 2.0, 2.4], "beta0": None}))
        report = run_sweep(cfg, made(tmp_path / "sw"))
        assert report.summary["points"] == 9
        names = sorted(f.name for f in (tmp_path / "sw").glob("casimir_*.csv"))
        assert names == [f"casimir_{i:03d}.csv" for i in range(9)]

    def test_resonance_scan_reports_empirical_peak(self, tmp_path):
        # scan the drive frequency; the reported best point must be the
        # argmax of the per-point final densities (resonance located by
        # the scan itself)
        cfg = cli.parse_sweep_config(write_config(
            tmp_path / "c.json", theta=np.pi / 2, samples=11, t_end=15.0,
            sweep={"omega": None, "theta": None,
                   "drive_frequency": [0.6, 1.0, 1.6, 2.0, 2.6], "beta0": None}))
        report = run_sweep(cfg, made(tmp_path / "sw"))
        densities = report.columns["final_photon_density"]
        assert report.summary["best_index"] == int(np.argmax(densities))
        # the peak sits at the drive nearest the effective mode frequency
        assert report.summary["best_point"]["drive_frequency"] == 1.0

    def test_failed_point_is_isolated(self, tmp_path):
        cfg = cli.parse_sweep_config(write_config(
            tmp_path / "c.json", samples=11, t_end=5.0,
            sweep={"omega": None, "theta": None, "drive_frequency": None,
                   "beta0": [0.2, 1.5]}))
        report = run_sweep(cfg, made(tmp_path / "sw"))
        assert not report.ok
        assert report.columns["status"] == ["ok", "error"]
        # the error point writes no CSV, and the summary names none for it
        assert report.columns["csv"] == ["casimir_000.csv", ""]
        assert sorted(f.name for f in (tmp_path / "sw").iterdir()) == [
            "casimir_000.csv", "sweep_summary.csv"]
        assert (tmp_path / "sw" / "sweep_summary.csv").read_text().splitlines()[2].endswith(
            ",error,")
        assert report.failures[-1].startswith("point 1: ConfigError: ")

    def test_top_level_scenario_is_checked_under_a_sweep(self, tmp_path, capsys):
        # the parsed config holds the top-level scenario, so an omega that the
        # sweep overrides at every point is still a configuration error
        p = tmp_path / "c.json"
        write_config(p, omega=-1.0, sweep={"omega": [1.0]})
        code = main(["sweep", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "config error: omega must be positive, got -1.0\n"
        assert not (tmp_path / "o").exists()


class TestRunAmplify:
    def test_unit_rate_vacuum(self, tmp_path):
        cfg = {"kappa": [1.0], "m": [0.0], "t_end": 1.0, "samples": 6}
        report = run_amplify(cli.parse_amplify_config(cfg), tmp_path)
        assert report.ok
        assert report.gates["closed_form_mismatch"].value <= 1e-8
        assert report.columns["closed_total_number"][-1] == pytest.approx(
            E2_MINUS_1, rel=1e-10
        )

    def test_zero_rate_exact(self, tmp_path):
        cfg = {"kappa": [0.0], "m": [0.3], "t_end": 2.0, "samples": 4}
        report = run_amplify(cli.parse_amplify_config(cfg), tmp_path)
        assert report.ok
        assert np.max(report.columns["relative_deviation"]) < 1e-12

    def test_per_mode_rates(self, tmp_path):
        cfg = {"kappa": [1.0, 2.0], "m": [0.5, 0.0], "t_end": 1.0, "samples": 5}
        report = run_amplify(cli.parse_amplify_config(cfg), tmp_path)
        assert report.ok
        assert report.gates["closed_form_mismatch"].value <= 1e-8

    def test_exit_zero_through_main(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_text(json.dumps({"kappa": [1.0], "m": [0.0]}), encoding="utf-8")
        assert main(["amplify", "--config", str(p), "--out", str(tmp_path / "o")]) == 0

    def test_samples_flag(self, tmp_path, capsys):
        p = tmp_path / "a.json"
        p.write_text(json.dumps({"kappa": [1.0], "m": [0.0]}), encoding="utf-8")
        out = str(tmp_path / "o")
        assert main(["amplify", "--config", str(p), "--out", out, "--samples", "3"]) == 0
        assert len((tmp_path / "o" / "amplify.csv").read_text().splitlines()) == 1 + 3
        assert main(["amplify", "--config", str(p), "--out", out, "--samples", "1"]) == 2
        assert "samples must be an integer >= 2" in capsys.readouterr().err

    def test_builds_no_field_per_sample(self, tmp_path, monkeypatch):
        built = []
        post_init = ReducedField.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ReducedField, "__post_init__", counting)
        counts = []
        for samples in (2, 1000):
            built.clear()
            p = tmp_path / f"{samples}.json"
            p.write_text(json.dumps({"kappa": [1.0, 0.5], "m": 0.5, "samples": samples}))
            assert main(["amplify", "--config", str(p), "--out", str(tmp_path / str(samples))]) == 0
            counts.append(len(built))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("change", [
        {"kappa": 355.0}, {"kappa": 354.0, "m": 1e10}, {"m": 1e308}, {"t_end": 1e6},
    ])
    def test_overflowing_amplifier_exits_two(self, tmp_path, capsys, change):
        # a rate 2 kappa (1 + m) or an occupation at t_end past the float range
        # is a configuration error naming the key, with no warning
        p = tmp_path / "a.json"
        p.write_text(json.dumps({"kappa": 1.0, "m": 0.0, **change}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["amplify", "--config", str(p), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: config.") and list(change)[-1] in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kappa,code", [(354.0, 0), (354.544, 0), (354.545, 2)])
    def test_largest_admitted_rate_runs(self, tmp_path, kappa, code):
        # the occupation e^(2 kappa) - 1 at t_end = 1 is admitted up to half
        # the largest float, as the kinetic route forms r + r^dag
        p = tmp_path / "a.json"
        p.write_text(json.dumps({"kappa": kappa, "m": 0.0}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["amplify", "--config", str(p), "--out", str(tmp_path / "o")]) == code

    @pytest.mark.parametrize("kappa,m", [(1e-250, 1e300), (1.0, 1e12)])
    def test_extreme_rates_match_the_closed_form(self, tmp_path, capsys, kappa, m):
        # exp(2 kappa t) - 1 below unit roundoff must not cancel to 0 in the
        # closed form, and a source column of gamma_up ~ 2e12 must not over-scale
        # the kinetic route's exponentials
        p = tmp_path / "a.json"
        p.write_text(json.dumps({"kappa": kappa, "m": m}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["amplify", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert printed_gates(capsys.readouterr().out)["closed_form_mismatch"][0] <= 1e-12

    def test_tolerance_keys_rejected(self, tmp_path, capsys):
        # the constant generators are propagated exactly; no tolerance applies
        p = tmp_path / "a.json"
        p.write_text(json.dumps({"kappa": [1.0], "m": [0.0], "rel_tol": 1e-30}), encoding="utf-8")
        assert main(["amplify", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "rel_tol" in capsys.readouterr().err

    @pytest.mark.parametrize("kappa,m,limit", [
        (0.37, 1e10, 4.5776367185723643e-07), (0.013, 3.2e10, 1.9264221191167552e-07),
        (1.0, 1e12, cli.AMPLIFY_LIMIT),
    ])
    def test_limit_takes_the_rounded_rate(self, tmp_path, capsys, kappa, m, limit):
        # the kinetic route grows at g = 2 kappa (1 + m) - 2 kappa m, which
        # rounds by 2.3e-7 and 9.6e-8 in the first two and not at all in the
        # third; the limit is twice t_end |g - 2 kappa| over the 1e-8 floor
        p = tmp_path / "a.json"
        p.write_text(json.dumps({"kappa": kappa, "m": m}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["amplify", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert printed_gates(capsys.readouterr().out)["closed_form_mismatch"][1] == float(
            f"{limit:.3e}")
        assert cli.parse_amplify_config({"kappa": kappa, "m": m})["limit"] == limit

    @pytest.mark.parametrize("kappa", [1.0, 0.001])
    def test_rate_without_its_digits_exits_two(self, tmp_path, capsys, kappa):
        # at m = 1e16, 2 kappa (1 + m) - 2 kappa m is 0 or a few ulps of
        # 2 kappa m: the kinetic route no longer models the amplifier
        p = tmp_path / "a.json"
        p.write_text(json.dumps({"kappa": kappa, "m": 1e16}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["amplify", "--config", str(p), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: config.m: the kinetic rate g ") and "lower m" in err
        assert not (tmp_path / "o").exists()


def _log_uniform(low: int, high: int):
    """0, or 10^e for e uniform in [low, high]."""
    return st.one_of(st.just(0.0), st.floats(low, high).map(lambda e: 10.0 ** e))


def run_main(argv) -> tuple:
    """``main(argv)`` in process with warnings as errors: its exit code,
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# a gate's report line: its name, worst value, limit and time
GATE_LINE = r"\w+ \(value [^ ,]+, limit [^ ,]+, t=[^ )]+\)"


def assert_named_outcome(command, code, out, err, keys, failure=GATE_LINE):
    """The run ended in one of three ways, with no traceback: exit 0; exit 2
    with a config error naming one of ``keys`` (a regex); or exit 1 with a
    named ``RsfieldError`` or violated lines that each match ``failure``."""
    assert "Traceback" not in out + err
    if code == 0:
        assert out.startswith(f"[{command}] OK") and not err
    elif code == 2:
        assert re.fullmatch(rf"config error: [^\n]*\b({keys})\b[^\n]*\n", err), err
    else:
        assert code == 1
        failed = re.fullmatch(r"run failed: (\w+): [^\n]*\n", err)
        if failed:
            assert issubclass(getattr(errors, failed[1]), errors.RsfieldError)
        else:
            assert not err and out.startswith(f"[{command}] FAILED")
            violated = re.findall(r"^  violated: (.*)$", out, re.MULTILINE)
            assert violated and all(re.fullmatch(failure, v) for v in violated), violated


class TestAmplifyContract:
    # every amplify run ends in exactly one of three ways: exit 0; exit 2
    # with a config error naming a key; or exit 1 with a named RsfieldError
    # or a violated gate.  No traceback and no warning, over many decades
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        rates=st.integers(1, 3).flatmap(lambda modes: st.tuples(
            st.lists(_log_uniform(-8, 8), min_size=modes, max_size=modes),
            st.lists(_log_uniform(-8, 308), min_size=modes, max_size=modes),
        )),
        t_end=_log_uniform(-8, 8),
        samples=st.integers(2, 20),
        by_flag=st.booleans(),
    )
    def test_every_run_ends_in_a_named_outcome(self, rates, t_end, samples, by_flag):
        kappa, m = rates
        cfg = {"kappa": kappa, "m": m, "t_end": t_end}
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "a.json"
            p.write_text(json.dumps(cfg if by_flag else {**cfg, "samples": samples}))
            argv = ["amplify", "--config", str(p), "--out", str(Path(tmp) / "o")]
            code, out, err = run_main(argv + (["--samples", str(samples)] if by_flag else []))
        if code == 2:
            assert err.startswith("config error: config.")
        assert_named_outcome("amplify", code, out, err, r"kappa|m|t_end|samples",
                             r"closed_form_mismatch \(value [^\n]*")


def _scaled(exponents, unit: float):
    """10^e / unit for e drawn from ``exponents``."""
    return exponents.map(lambda e: 10.0 ** e / unit)


# the keys a casimir config error may name
CASIMIR_ERROR_KEYS = "|".join([*cli.CASIMIR_KEYS, *cli.PROFILE_KEYS, "sweep"])
# a value no key takes, with a key it is put under; the draws leave it out
# of most configs
BAD_VALUES = st.tuples(
    st.sampled_from(["refractive_index", "omega", "theta", "sigma", "t_end", "samples",
                     "rel_tol", "abs_tol"]),
    st.sampled_from([None, "x", -1.0, 0.0, True, 1e308, [1.0], {}]),
)


@st.composite
def casimir_configs(draw):
    """A casimir config with omega t_end and drive t_end at most 1e3 and at
    most 50 samples, over every profile kind; a few carry a bad value."""
    t_end = draw(_scaled(st.floats(-2, 2), 1.0))
    kind = draw(st.sampled_from(sorted(casimir.PROFILE_KINDS)))
    profile = {"kind": kind, "beta0": draw(st.floats(-0.99, 0.99))}
    if kind == "sinusoid":
        profile["drive_frequency"] = draw(_scaled(st.floats(-2, 3), t_end))
    elif kind == "smooth_pulse":
        profile["duration"] = draw(_scaled(st.floats(-8, 0.5), 1.0 / t_end))
    elif kind == "linear_ramp_windowed":
        profile["ramp_time"] = draw(_scaled(st.floats(-8, -0.4), 1.0 / t_end))
        profile["hold_time"] = draw(st.one_of(st.just(0.0),
                                              _scaled(st.floats(-3, -0.4), 1.0 / t_end)))
    cfg = {
        "refractive_index": draw(st.floats(1.0, 3.0)),
        "omega": draw(_scaled(st.floats(-3, 3), t_end)),
        "theta": draw(st.floats(0.0, math.pi)),
        "sigma": draw(st.one_of(st.just("auto"), _scaled(st.floats(-2, 2), 1.0))),
        "profile": profile,
        "t_end": t_end,
        "samples": draw(st.integers(2, 50)),
        "rel_tol": draw(st.sampled_from([1e-11, 1e-9, 1e-6, 1e-3])),
    }
    bad = draw(st.one_of(st.none(), st.none(), st.none(), BAD_VALUES))
    if bad:
        cfg[bad[0]] = bad[1]
    return cfg


def _sweep_config(cfg, axis, values):
    """``cfg`` with a sweep of ``values`` over ``axis``, a drive sweep only
    over a sinusoid."""
    if axis == "drive_frequency" and cfg["profile"]["kind"] != "sinusoid":
        axis = "omega"
    return {**cfg, "sweep": {axis: values}}


class TestConfigContract:
    """``TestAmplifyContract``'s contract for the other commands: every run
    ends in exit 0, exit 2 naming a key, or exit 1 with a named error or
    violated gates; no traceback and no warning."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(cfg=casimir_configs(), command=st.sampled_from(["casimir", "extract"]))
    def test_casimir_and_extract(self, cfg, command):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "c.json"
            p.write_text(json.dumps(cfg))
            code, out, err = run_main([command, "--config", str(p), "--out", str(Path(tmp) / "o")])
        assert_named_outcome(command, code, out, err, CASIMIR_ERROR_KEYS)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(cfg=casimir_configs(),
           axis=st.sampled_from(["omega", "theta", "beta0", "drive_frequency"]),
           values=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=3))
    def test_sweep_of_at_most_three_points(self, cfg, axis, values):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "c.json"
            p.write_text(json.dumps(_sweep_config(cfg, axis, values)))
            code, out, err = run_main(["sweep", "--config", str(p), "--out", str(Path(tmp) / "o")])
        failure = rf"point \d+: (\w+Error: .*|{GATE_LINE})"
        assert_named_outcome("sweep", code, out, err, CASIMIR_ERROR_KEYS, failure)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        checks=st.lists(st.sampled_from(sorted(cli.FOCK_THRESHOLDS)), min_size=1, max_size=4,
                        unique=True),
        cutoff=st.integers(2, 30),
        squeeze=st.floats(-2.0, 2.0),
        angle=st.floats(-7.0, 7.0),
        seed=st.integers(0, 2**32),
    )
    def test_fock_check(self, checks, cutoff, squeeze, angle, seed):
        cfg = {"checks": checks, "cutoff": cutoff, "squeeze": squeeze, "angle": angle,
               "seed": seed}
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "f.json"
            p.write_text(json.dumps(cfg))
            code, out, err = run_main(["fock-check", "--config", str(p),
                                       "--out", str(Path(tmp) / "o")])
        assert_named_outcome("fock-check", code, out, err, "|".join(cli.FOCK_KEYS))

    @pytest.mark.parametrize("command,change,reason", [
        ("casimir", "{", r"config is not valid JSON"),
        ("casimir", {"profile": [1]}, r"config\.profile must be a JSON object"),
        ("sweep", {"sweep": [1]}, r"config\.sweep over a sinusoid profile must be a JSON object"),
        ("sweep", {"sweep": {"omega": []}}, r"sweep\.omega must be a nonempty list"),
        ("sweep", {"sweep": {"omega": 1.0}}, r"sweep\.omega must be a nonempty list"),
        ("extract", {"t_end": 0}, r"t_end must be positive"),
        ("casimir", {"sigma": "bogus"}, r"sigma must be positive or 'auto', got 'bogus'"),
        ("casimir", {"profile": {"kind": "sinusoid", "beta0": 0.2, "drive_frequency": 0}},
         r"sinusoid profile needs drive_frequency > 0"),
        ("casimir", {"profile": {"kind": "smooth_pulse", "beta0": 0.2, "duration": 0}},
         r"smooth_pulse profile needs duration > 0"),
        ("casimir", {"profile": {"kind": "linear_ramp_windowed", "beta0": 0.2, "ramp_time": 0}},
         r"linear_ramp_windowed profile needs ramp_time > 0"),
        ("casimir", {"profile": {"kind": "linear_ramp_windowed", "beta0": 0.2, "ramp_time": 1.0,
                                 "hold_time": -1.0}}, r"hold_time must be nonnegative"),
        # a key of another kind is unknown before its value is read
        ("casimir", {"profile": {"kind": "sinusoid", "beta0": 0.2, "drive_frequency": 2.0,
                                 "hold_time": -1.0}},
         r"unknown key\(s\) in config\.profile of kind sinusoid: hold_time"),
        ("casimir", {"profile": {"kind": "sinusoid", "beta0": 0.2, "drive_frequency": 2.0,
                                 "duration": "x"}},
         r"unknown key\(s\) in config\.profile of kind sinusoid: duration"),
    ], ids=["invalid_json", "profile_list", "sweep_list", "sweep_empty", "sweep_scalar",
            "t_end_zero", "sigma_bogus", "drive_zero", "duration_zero", "ramp_zero",
            "hold_negative", "other_kind_hold_negative", "other_kind_duration_text"])
    def test_rejected_config_names_its_reason(self, tmp_path, command, change, reason):
        p = tmp_path / "c.json"
        write_command_config(p, command, change)
        code, out, err = run_main([command, "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2 and not out
        assert re.fullmatch(rf"config error: {reason}[^\n]*\n", err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["casimir", "extract"])
    @pytest.mark.parametrize("change", [{"omega": 1e308}, {"rel_tol": 1e308}],
                             ids=["omega", "rel_tol"])
    def test_values_past_the_float_range_raise_no_warning(self, tmp_path, command, change):
        # an initial step whose step count overflows, and a tolerance whose
        # product with an amplitude does, once warned from numpy
        p = tmp_path / "c.json"
        write_config(p, **change)
        code, out, err = run_main([command, "--config", str(p), "--out", str(tmp_path / "o")])
        assert_named_outcome(command, code, out, err, CASIMIR_ERROR_KEYS)
        if "omega" in change:
            assert err.startswith("run failed: ConvergenceError: ") and "holds inf steps" in err

    def test_missing_config_file_exits_two(self, tmp_path):
        missing = tmp_path / "absent.json"
        code, _, err = run_main(["casimir", "--config", str(missing)])
        assert code == 2 and err == f"config error: config file not found: {missing}\n"

    def test_samples_in_exponent_notation_is_the_integer(self, tmp_path):
        p = tmp_path / "c.json"
        write_config(p, samples="1e3", t_end=2.0)
        code, _, err = run_main(["casimir", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 0 and not err
        assert len((tmp_path / "o" / "casimir.csv").read_text().splitlines()) == 1001

    def test_sweep_point_past_a_gate_is_an_invariant_violation(self, tmp_path):
        # test_loose_tolerance_exits_one_on_growth_law's run as a sweep point
        p = tmp_path / "c.json"
        write_config(p, t_end=300.0, samples=11, rel_tol=1e-3, sweep={"omega": [1.0]},
                     profile={"kind": "sinusoid", "beta0": 0.5, "drive_frequency": 0.05})
        code, out, _ = run_main(["sweep", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 1
        assert re.search(r"^  violated: point 0: growth_law \(value ", out, re.MULTILINE)
        rows = (tmp_path / "o" / "sweep_summary.csv").read_text().splitlines()
        assert rows[1].split(",")[-2] == "invariant_violation"


class TestWriteCsv:
    def test_numpy_scalars_write_as_python_scalars(self, tmp_path):
        py = {"passed": [True, False], "x": [0.1, 2.5], "n": [3, -1], "name": ["a", "b"]}
        npy = {"passed": np.array(py["passed"]), "x": np.array(py["x"]),
               "n": np.array(py["n"], dtype=np.int64), "name": py["name"]}
        cli._write_csv(tmp_path / "py.csv", py)
        cli._write_csv(tmp_path / "np.csv", npy)
        text = (tmp_path / "py.csv").read_text()
        assert (tmp_path / "np.csv").read_text() == text
        assert text.splitlines() == [
            "passed,x,n,name", "true,0.10000000000000001,3,a", "false,2.5,-1,b",
        ]


class TestRunFockCheck:
    def test_default_catalog_passes(self, tmp_path):
        report = run_fock_check(cli.parse_fock_config({}), tmp_path)
        assert report.ok
        devs = dict(zip(report.columns["check"], report.columns["deviation"]))
        assert devs["squeeze"] <= 1e-6
        assert devs["beam_splitter"] <= 1e-8
        assert devs["observables"] <= 1e-6

    def test_nonzero_observables_deviation_writes_true(self, tmp_path, monkeypatch):
        real = cli.expect_additive
        monkeypatch.setattr(cli, "expect_additive", lambda rf, o: real(rf, o) + 1e-12)
        report = run_fock_check(cli.parse_fock_config({"checks": ["observables"], "cutoff": 8}),
                                tmp_path)
        assert report.ok
        check, deviation, _, passed = (
            (tmp_path / "fock_check.csv").read_text().splitlines()[1].split(",")
        )
        assert (check, passed) == ("observables", "true")
        assert 0.0 < float(deviation) <= 1e-6

    def test_observables_check_catches_a_transposed_r(self):
        # r_kk' = <a_k'^dag a_k>: a coherent state with z1 conj(z2) not real has
        # r_12 != r_21, so the brute-force side, from raised lowered states,
        # tells r from its transpose; the squeezed vacuum's r is diagonal
        state = coherent_state(0.4 + 0.1j, -0.2 + 0.3j, 12)
        rf, _ = measure_rsf(state)
        assert abs(rf.r[0, 1].imag) > 0.05
        seed = FOCK_KEYS["seed"]
        assert cli._observables_deviation(state, rf, seed) <= 1e-12
        transposed = ReducedField(rf.r.T, rf.alpha)
        assert cli._observables_deviation(state, transposed, seed) > FOCK_THRESHOLDS["observables"]

    def test_squeeze_and_observables_share_one_squeezed_state(self, tmp_path):
        cfg = {"checks": ["identity", "beam_splitter", "squeeze", "observables"]}
        columns = run_fock_check(cli.parse_fock_config(cfg), made(tmp_path / "all")).columns
        devs = dict(zip(columns["check"], columns["deviation"]))
        for check in ("squeeze", "observables"):
            alone = run_fock_check(cli.parse_fock_config({"checks": [check]}),
                                   made(tmp_path / check))
            assert alone.ok
            assert alone.columns["check"] == [check]
            assert alone.columns["deviation"][0] == devs[check]

    @pytest.mark.parametrize("cfg", [
        {"checks": ["beam_splitter"], "cutoff": 2},
        {"checks": ["beam_splitter"], "cutoff": 3},
        {"checks": ["identity"], "squeeze": 400.0},
    ])
    def test_squeeze_range_binds_only_the_squeeze_check(self, tmp_path, cfg):
        # the default squeeze 0.3 leaves 6e-4 beyond cutoff 2, and 400 leaves
        # all of it; a run without the squeeze check never reads the value
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["fock-check", "--config", str(p), "--out", str(tmp_path / "o")]) == 0

    def test_admitted_squeeze_passes_at_every_cutoff(self, tmp_path):
        # the largest squeeze the parser admits at each cutoff, to 1e-12, runs
        # and passes: the pair moment's tail, not the population beyond the
        # cutoff, bounds what the check compares
        def admitted(squeeze, cutoff):
            try:
                cli.parse_fock_config({"checks": ["squeeze"], "cutoff": cutoff, "squeeze": squeeze})
            except ConfigError as exc:
                assert str(exc).startswith("config.squeeze ")
                return False
            return True

        for cutoff in range(2, 41):
            low, high = 0.0, 2.0
            while high - low > 1e-12:
                mid = 0.5 * (low + high)
                low, high = (mid, high) if admitted(mid, cutoff) else (low, mid)
            p = tmp_path / f"{cutoff}.json"
            p.write_text(json.dumps({"checks": ["squeeze"], "cutoff": cutoff, "squeeze": low}))
            code, out, err = run_main(["fock-check", "--config", str(p),
                                       "--out", str(tmp_path / str(cutoff))])
            assert code == 0 and not err, (cutoff, low, out, err)
        # the benchmark's squeeze, and the default one at the default cutoff
        assert admitted(0.303, 28) and admitted(FOCK_KEYS["squeeze"], FOCK_KEYS["cutoff"])

    def test_admitted_identity_cutoff_passes(self, tmp_path):
        # the closed-form moments' tail rejects cutoffs 6 and 7, where the
        # truncated state's moments miss 4.1e-9 and 6.2e-11 of them; every
        # cutoff it admits runs and passes
        def admitted(cutoff):
            try:
                cli.parse_fock_config({"checks": ["identity"], "cutoff": cutoff})
            except ConfigError as exc:
                assert str(exc).startswith(f"config.cutoff {cutoff} ")
                return False
            return True

        cutoffs = [c for c in range(2, 41) if admitted(c)]
        assert cutoffs == list(range(8, 41))
        for cutoff in cutoffs:
            p = tmp_path / f"{cutoff}.json"
            p.write_text(json.dumps({"checks": ["identity"], "cutoff": cutoff}))
            code, out, err = run_main(["fock-check", "--config", str(p),
                                       "--out", str(tmp_path / str(cutoff))])
            assert code == 0 and not err, (cutoff, out, err)
        assert admitted(FOCK_KEYS["cutoff"]) and admitted(28)

    def test_identity_check_catches_a_perturbed_amplitude(self, tmp_path):
        # the evolved moments are compared with the coherent state's closed
        # form, not with the same state's: <1, 0| moved by 1e-8 relative
        # reads a deviation of 2.9e-9, past the threshold 1e-10
        cfg = cli.parse_fock_config({"checks": ["identity"]})
        assert run_fock_check(cfg, made(tmp_path / "exact")).ok
        z, state = cfg["states"]["identity"]
        amp = state.amplitudes.copy()
        amp[1, 0] *= 1.0 + 1e-8
        cfg["states"]["identity"] = z, FockState(amp)
        report = run_fock_check(cfg, made(tmp_path / "perturbed"))
        assert not report.ok
        assert report.gates["identity"].value > FOCK_THRESHOLDS["identity"]

    def test_check_selection(self, tmp_path):
        report = run_fock_check(cli.parse_fock_config({"checks": ["identity"]}), tmp_path)
        assert report.columns["check"] == ["identity"]

    def test_unknown_check_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="wigner"):
            cli.parse_fock_config({"checks": ["wigner"]})

    def test_exit_zero_through_main(self, tmp_path):
        assert main(["fock-check", "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("check, cutoff", [("identity", 8), ("observables", 5)])
    def test_smallest_cutoff_of_a_coherent_check_runs(self, tmp_path, check, cutoff):
        # one below these cutoffs is a configuration error
        # (test_malformed_value_exits_two); at them the check runs and passes
        report = run_fock_check(cli.parse_fock_config({"checks": [check], "cutoff": cutoff}),
                                tmp_path)
        assert report.ok and report.columns["check"] == [check]


def gates_and_limits(cols, monkeypatch) -> tuple:
    """``cli._gates(cols, 1.0)`` and the limit each gate was given, by name,
    broadcast to the samples."""
    recorded = []
    real_gate = cli._gate

    def recording(times, residual, limit):
        recorded.append(np.broadcast_to(limit, np.shape(residual)))
        return real_gate(times, residual, limit)

    monkeypatch.setattr(cli, "_gate", recording)
    gates = cli._gates(cols, 1.0)
    return gates, dict(zip(gates, recorded))


class TestExitCodes:
    def test_first_grid_past_the_step_cap_exits_one(self, tmp_path, capsys):
        # omega 2e6 over t_end 1 asks for a first grid of 2e6 steps, past the
        # cap of 2^20: the run fails before any grid is propagated
        p = tmp_path / "c.json"
        write_config(p, omega=2e6, t_end=1.0, profile={"kind": "constant", "beta0": 0.2})
        code = main(["casimir", "--config", str(p), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            "run failed: ConvergenceError: Magnus propagation not within rtol=1e-11, "
            "atol=1e-13 at 1048576 steps: the first grid holds 2000000 steps\n"
        )

    def test_loose_tolerance_exits_one_on_growth_law(self, tmp_path, capsys):
        # at a hopeless tolerance CCR still holds (every Magnus step map is
        # in SU(1,1)), but the dense output no longer follows the growth law:
        # a slow drive, whose period grid already holds more than
        # numerics.FIRST_GRID_STEPS steps of about one radian each
        p = tmp_path / "c.json"
        write_config(p, t_end=300.0, samples=11,
                     profile={"kind": "sinusoid", "beta0": 0.5,
                              "drive_frequency": 0.05})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["casimir", "--config", str(p), "--out", str(tmp_path / "o"),
                         "--rel-tol", "1e-3"])
        assert code == 1
        out = capsys.readouterr().out
        # the difference error added to the failing samples' limits does
        # not hide a trajectory that misses the law
        assert "violated: growth_law" in out
        assert "violated: ccr_invariant" not in out
        # extract answers for the extraction gates only, and those hold
        code = main(["extract", "--config", str(p), "--out", str(tmp_path / "o"),
                     "--rel-tol", "1e-3"])
        assert code == 0
        assert "violated" not in capsys.readouterr().out

    def test_resonant_run_at_rel_tol_1e8_exits_zero(self, tmp_path, capsys):
        # the resonant medium at T=100 (n ~ 2.3) once failed CCR at this
        # tolerance after the whole run (residual -5.1e-8)
        p = tmp_path / "c.json"
        write_config(p, theta=np.pi / 2, t_end=100.0, samples=201,
                     profile={"kind": "sinusoid", "beta0": 0.4,
                              "drive_frequency": 0.98})
        code = main(["casimir", "--config", str(p), "--out", str(tmp_path / "o"),
                     "--rel-tol", "1e-8"])
        assert code == 0
        header, *rows = (tmp_path / "o" / "casimir.csv").read_text().splitlines()
        ccr = [float(r.split(",")[header.split(",").index("ccr_residual")]) for r in rows]
        assert max(map(abs, ccr)) < 1e-12

    def test_resonant_run_at_large_photon_number_exits_zero(self, tmp_path, capsys):
        # W3 at T=800 (n ~ 3.4e7): the CCR residual, about 35 eps (2n + 1),
        # exceeds 1e-8 on a correct trajectory and must not fail the run
        p = tmp_path / "c.json"
        write_config(p, theta=np.pi / 2, t_end=800.0, samples=201,
                     profile={"kind": "sinusoid", "beta0": 0.4,
                              "drive_frequency": 0.98})
        assert main(["casimir", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert "violated" not in capsys.readouterr().out
        header, *rows = (tmp_path / "o" / "casimir.csv").read_text().splitlines()
        names = header.split(",")
        last = rows[-1].split(",")
        assert float(last[names.index("n_density")]) > 1e7
        ccr = [abs(float(r.split(",")[names.index("ccr_residual")])) for r in rows]
        assert max(ccr) > SYMPLECTIC_TOL

    def test_resonant_run_past_extraction_floor_exits_zero(self, tmp_path, capsys):
        # W3 at T=850 (n ~ 1.1e8): the extracted gamma_down, zero exactly,
        # reads about eps (2n + 1) omega, past the absolute 1e-8 omega
        p = tmp_path / "c.json"
        write_config(p, theta=np.pi / 2, t_end=850.0, samples=201,
                     profile={"kind": "sinusoid", "beta0": 0.4,
                              "drive_frequency": 0.98})
        assert main(["casimir", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert "violated" not in capsys.readouterr().out
        header, *rows = (tmp_path / "o" / "casimir.csv").read_text().splitlines()
        column = header.split(",").index("gamma_down_extracted")
        assert max(abs(float(r.split(",")[column])) for r in rows) > cli.GAMMA_DOWN_LIMIT

    def test_linear_ramp_kinks_exit_zero(self, tmp_path, capsys):
        # beta(t) has kinks at t = 2, 3 and 5, all on samples
        p = tmp_path / "c.json"
        write_config(p, theta=1.0, t_end=6.0, samples=31,
                     profile={"kind": "linear_ramp_windowed", "beta0": 0.3,
                              "ramp_time": 2.0, "hold_time": 1.0})
        assert main(["casimir", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert "violated" not in capsys.readouterr().out

    def test_unwritable_csv_exits_one(self, tmp_path):
        # a directory where the CSV goes: the run fails by name, not by traceback
        (tmp_path / "o" / "fock_check.csv").mkdir(parents=True)
        code, out, err = run_main(["fock-check", "--out", str(tmp_path / "o")])
        assert code == 1 and not out
        assert re.fullmatch(r"run failed: IsADirectoryError: \[Errno 21\] Is a directory: "
                            r"'[^']*fock_check\.csv'\n", err)

    def test_out_dir_from_config(self, tmp_path):
        p = tmp_path / "c.json"
        write_config(p, samples=5, t_end=2.0, out_dir=str(tmp_path / "configured"))
        assert main(["casimir", "--config", str(p)]) == 0
        assert (tmp_path / "configured" / "casimir.csv").exists()

    def test_flag_overrides_config_out_dir(self, tmp_path):
        p = tmp_path / "c.json"
        write_config(p, samples=5, t_end=2.0, out_dir=str(tmp_path / "configured"))
        assert main(["casimir", "--config", str(p), "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "casimir.csv").exists()
        assert not (tmp_path / "configured").exists()


    @pytest.mark.parametrize("command", ["amplify", "fock-check"])
    @pytest.mark.parametrize("text", JSON_ARRAYS)
    def test_json_array_config_exits_two(self, tmp_path, capsys, command, text):
        p = tmp_path / "c.json"
        p.write_text(text, encoding="utf-8")
        code = main([command, "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["amplify", "--rel-tol", "-5"],
        ["fock-check", "--rel-tol", "0"],
        ["fock-check", "--samples", "1"],
    ])
    def test_flag_the_command_does_not_read_exits_two(self, tmp_path, argv):
        p = tmp_path / "a.json"
        p.write_text(json.dumps({"kappa": [1.0], "m": [0.0]}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(p), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_non_symplectic_map_exits_one_with_csv(self, tmp_path, capsys, monkeypatch):
        # a 1e-6 relative error in the environment's X_up entry (and its
        # conjugate) breaks the symplectic check of the stacked maps; the run
        # still leaves its CSV and summary
        real_maps = cli.casimir_maps

        def perturbed(sol):
            x, _ = real_maps(sol)
            x[:, [1, 3], [1, 3]] *= 1 + 1e-6
            return x, symplectic_residuals(x)

        monkeypatch.setattr(cli, "casimir_maps", perturbed)
        p = tmp_path / "c.json"
        write_config(p)
        assert main(["casimir", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert (tmp_path / "o" / "casimir.csv").exists()
        out = capsys.readouterr().out
        assert "  final_photon_density: " in out
        assert re.search(r"  symplectic_residual: value 2\.\d+e-06, limit 1\.000e-08, t=", out)
        gate = r"violated: symplectic_residual \(value 2\.\d+e-06, limit 1\.000e-08, t="
        assert re.search(gate, out)

    def test_nonzero_gamma_down_exits_one(self, tmp_path, capsys, monkeypatch):
        # the README sinusoid with gamma_down off zero by 1e-6: the roundoff
        # floor of the gate stays far below its 1e-8 limit at n ~ 1
        real_extract = cli.extracted_generators

        def perturbed(sol):
            h, gamma_up, gamma_down = real_extract(sol)
            return h, gamma_up, gamma_down + 1e-6

        monkeypatch.setattr(cli, "extracted_generators", perturbed)
        p = tmp_path / "c.json"
        write_config(p, t_end=40.0, samples=401)
        assert main(["casimir", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        gate = r"violated: extraction_gamma_down_zero \(value 1\.000e-06, limit 1\.000e-08, t=\S+\)"
        assert re.search(gate, capsys.readouterr().out)

    @pytest.mark.parametrize("command,change", MALFORMED + MOMENT_TAIL)
    def test_malformed_value_exits_two(self, tmp_path, capsys, command, change):
        # a bad value is a configuration error (exit 2) naming the key, not a
        # traceback, a "run failed" (exit 1) or a silently rounded number
        p = tmp_path / "c.json"
        write_command_config(p, command, change)
        code = main([command, "--config", str(p), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: config.") and next(iter(change)) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value", OVERFLOWING + ILL_CONDITIONED)
    def test_overflowing_medium_exits_two(self, tmp_path, capsys, key, value):
        # n^2 past the float range, or a sigma so far from "auto" that its
        # frame's factor e^(6|c|) is: a configuration error naming the key,
        # with no warning, no traceback and no CSV
        p = tmp_path / "c.json"
        write_config(p, **{key: value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["casimir", "--config", str(p), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {key} ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,change,flags", OVERSIZED)
    def test_oversized_run_exits_two(self, tmp_path, capsys, command, change, flags):
        # a samples or cutoff whose largest array exceeds cli.ARRAY_BUDGET is a
        # configuration error naming the key, not a numpy allocation traceback
        p = tmp_path / "c.json"
        write_command_config(p, command, change)
        code = main([command, "--config", str(p), "--out", str(tmp_path / "o"), *flags])
        err = capsys.readouterr().err
        key = "cutoff" if command == "fock-check" else "samples"
        assert code == 2
        assert err.startswith(f"config error: config.{key} must be at most ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cutoff,ok", [(2047, True), (2048, False), (9000, False)])
    def test_cutoff_bound_at_the_parser(self, cutoff, ok):
        # (cutoff + 1)^2 complex amplitudes at 16 x 16 bytes each: cutoff 2047
        # fills the 1 GiB budget exactly; neither check below builds a state at
        # parse time
        cfg = {"cutoff": cutoff, "checks": ["beam_splitter", "squeeze"]}
        if ok:
            assert cli.parse_fock_config(cfg)["cutoff"] == cutoff
        else:
            with pytest.raises(ConfigError, match=r"^config\.cutoff must be at most 2047, got"):
                cli.parse_fock_config(cfg)

    @pytest.mark.parametrize("parse,base,row_bytes", [
        # a casimir run's peak memory per sample
        (parse_casimir_config, "casimir", 2048),
        (cli.parse_sweep_config, "casimir", 2048),
        # 8 times the (samples, d, d) complex interval maps, d = (modes + 1)^2
        (cli.parse_amplify_config, {"kappa": [1.0], "m": [0.0]}, 8 * 16 * 4 * 4),
        (cli.parse_amplify_config, {"kappa": [1.0, 2.0], "m": 0.0}, 8 * 16 * 9 * 9),
    ], ids=["casimir", "sweep", "amplify_one_mode", "amplify_two_modes"])
    def test_samples_bound_at_the_parser(self, tmp_path, parse, base, row_bytes):
        if base == "casimir":
            base = write_config(tmp_path / "c.json")
        most = 2**30 // row_bytes
        assert parse({**base, "samples": most})["samples"] == most
        with pytest.raises(ConfigError, match=rf"^config\.samples must be at most {most}, got"):
            parse({**base, "samples": most + 1})

    @pytest.mark.parametrize("key,value", [
        ("cutoff", 12.0), ("cutoff", "12"), ("seed", 3.0), ("seed", "3"),
    ])
    def test_integral_value_of_an_integer_key_runs(self, tmp_path, key, value):
        # an integral float or an integer string is the integer, as int()
        # read it before; only a fractional or non-numeric value is an error
        report = run_fock_check(
            cli.parse_fock_config({"checks": ["observables"], "cutoff": 8, key: value}), tmp_path
        )
        expected = run_fock_check(
            cli.parse_fock_config({"checks": ["observables"], "cutoff": 8, key: int(float(value))}),
            made(tmp_path / "int"),
        )
        assert report.columns == expected.columns and not report.failures

    def test_integral_samples_value_runs(self, tmp_path):
        cfg = parse_casimir_config(write_config(tmp_path / "c.json", samples=5.0, t_end=2.0))
        assert cfg["samples"] == 5 and isinstance(cfg["samples"], int)
        cfg = {"kappa": [1.0], "m": [0.0], "t_end": 1.0, "samples": "4"}
        assert len(cli.run_amplify(cli.parse_amplify_config(cfg), tmp_path).columns["t"]) == 4

    def test_classicality_columns_are_the_library_masks(self):
        # the columns are symplectic.classicality's verdicts on the map
        # stack, sample for sample, and the open gate reads its residual and
        # limit; the symplectic scale is the stack's max|X_ij|^2
        s = CasimirScenario(1.5, 1.0, np.pi / 2, VelocityProfile.sinusoid(0.4, 0.98), 300.0)
        sol = solve_modes(s, 201)
        cols = cli._casimir_columns(sol)
        x, _ = casimir_maps(sol)
        closed, open_ = classicality(x, n_sys=2), classicality(x, n_sys=1)
        assert cols["classical_closed"][0] and not cols["classical_closed"][-1]
        assert np.array_equal(cols["classical_closed"], closed[0] <= closed[1])
        assert np.array_equal(cols["classical_open"], open_[0] <= open_[1])
        assert np.array_equal(cols["_open_residual"], open_[0])
        assert np.array_equal(cols["_open_limit"], open_[1])
        assert np.array_equal(cols["_map_scale"], np.max(np.abs(x), axis=(-2, -1)) ** 2)

    @pytest.mark.parametrize("t_end", [800.0, 1000.0, 3000.0])
    def test_cli_checks_are_the_library_checks(self, monkeypatch, t_end):
        # W3 up to n = 6.1e29: at every sample the limit of the symplectic
        # gate is, bit for bit, the one casimir_map's BogoliubovMap checks;
        # the classicality columns are the library's verdicts; and the open
        # gate reads max|X_down_S| against a positive limit
        s = CasimirScenario(1.5, 1.0, np.pi / 2, VelocityProfile.sinusoid(0.4, 0.98), t_end)
        sol = solve_modes(s, 201, rtol=1e-11, atol=1e-13)
        cols = cli._casimir_columns(sol)
        gates, limits = gates_and_limits(cols, monkeypatch)
        symplectic = limits["symplectic_residual"]
        for i in range(201):
            m = casimir_map(sol, i)
            assert roundoff_limit(m.scale, SYMPLECTIC_TOL) == symplectic[i], i
            assert is_classical_closed(m) == cols["classical_closed"][i], i
            assert is_classical_open(m) == cols["classical_open"][i], i
        x, _ = casimir_maps(sol)
        gate = gates["open_classicality"]
        assert gate.limit > 0.0 and gate.value == np.max(np.abs(x[:, 0, 2]))

    def test_resonant_map_past_n_3e26_is_not_passive(self):
        # W3 at T=3000 (n = 6.1e29): |X_down| ~ 7.8e14 is far above the
        # entry scale's limit, though below 256 eps n, the limit of a
        # quadratic scale
        s = CasimirScenario(1.5, 1.0, np.pi / 2, VelocityProfile.sinusoid(0.4, 0.98), 3000.0)
        sol = solve_modes(s, 201, rtol=1e-11, atol=1e-13)
        cols = cli._casimir_columns(sol)
        assert sol.density()[-1] > 3.1e26
        assert not np.any(cols["classical_closed"][1:])
        assert not is_classical_closed(casimir_map(sol, -1))

    def test_gate_limits_are_the_explicit_formulas(self, monkeypatch):
        # W3 at T=800 (n ~ 3.4e7), where the scaled term sets the limits: the
        # CCR, symplectic and extraction-rate limits equal, bit for bit,
        # max(floor, 256 eps scale) written out with the scales of each gate
        s = CasimirScenario(1.5, 1.0, np.pi / 2, VelocityProfile.sinusoid(0.4, 0.98), 800.0)
        sol = solve_modes(s, 201, rtol=1e-11, atol=1e-13)
        cols = cli._casimir_columns(sol)
        _, limits = gates_and_limits(cols, monkeypatch)
        eps = np.finfo(float).eps
        rp, rm = (cols[f"re_{f}"] ** 2 + cols[f"im_{f}"] ** 2 for f in ("fRp", "fRm"))
        rates = 256.0 * eps * (rp + rm) * 1.0
        entries = np.max(np.abs(casimir_maps(sol)[0]), axis=(-2, -1))
        expected = {
            "ccr_invariant": np.maximum(1e-8, 256.0 * eps * (rp + rm)),
            "symplectic_residual": np.maximum(1e-8, 256.0 * eps * entries * entries),
            "extraction_gamma_agreement": np.maximum(1e-7, rates),
            "extraction_gamma_down_zero": np.maximum(1e-8, rates),
        }
        for name, limit in expected.items():
            assert np.max(limit) > 1e-6, name
            assert np.array_equal(limits[name], limit), name
        assert np.array_equal(cli._rate_roundoff(cols, 1.0), rates)


class TestParseBeforeRun:
    """A config is parsed whole before its command's runner starts: every
    configuration error exits 2 with no runner called and no output."""

    @pytest.mark.parametrize("command,change,flags", [
        *[(command, change, []) for command, change in MALFORMED],
        *[(command, text, []) for command in ("amplify", "fock-check") for text in JSON_ARRAYS],
        *[("casimir", {key: value}, []) for key, value in OVERFLOWING],
        *OVERSIZED,
        *[("casimir", {key: value}, []) for key, value in ILL_CONDITIONED],
        *[(command, change, []) for command, change, _ in UNREAD],
        # a kind that is no string names no entry of casimir.PROFILE_KINDS
        ("casimir", {"profile": {"kind": ["sinusoid"], "beta0": 0.2}}, []),
        *[(command, change, []) for command, change in MOMENT_TAIL],
    ])
    def test_config_error_exits_before_the_runner(self, tmp_path, capsys, monkeypatch,
                                                  command, change, flags):
        def never(cfg, out_dir):
            pytest.fail(f"{command}'s runner started on a bad config")

        for name, (argv_flags, parse, _) in list(cli.COMMANDS.items()):
            monkeypatch.setitem(cli.COMMANDS, name, (argv_flags, parse, never))
        p = tmp_path / "c.json"
        write_command_config(p, command, change)
        code = main([command, "--config", str(p), "--out", str(tmp_path / "o"), *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("case", ["out_is_a_file", "config_is_a_directory",
                                      "config_not_utf8"])
    def test_unusable_path_exits_before_the_runner(self, tmp_path, monkeypatch, command, case):
        # an --out that names a file, or a config that is a directory or not
        # UTF-8, is a configuration error naming the path, with no traceback
        def never(cfg, out_dir):
            pytest.fail(f"{command}'s runner started with an unusable path")

        for name, (argv_flags, parse, _) in list(cli.COMMANDS.items()):
            monkeypatch.setitem(cli.COMMANDS, name, (argv_flags, parse, never))
        config, out = tmp_path / "c.json", tmp_path / "o"
        write_command_config(config, command, {})
        if case == "out_is_a_file":
            out.write_text("taken", encoding="utf-8")
            reason = f"cannot create the output directory {out}: File exists"
        elif case == "config_is_a_directory":
            config = tmp_path / "dir.json"
            config.mkdir()
            reason = f"cannot read config {config}: Is a directory"
        else:
            config.write_bytes(b"\xff\xfe{}")
            reason = (f"cannot read config {config}: 'utf-8' codec can't decode byte 0xff in "
                      f"position 0: invalid start byte")
        code, stdout, err = run_main([command, "--config", str(config), "--out", str(out)])
        assert (code, stdout, err) == (2, "", f"config error: {reason}\n")
        assert out.is_file() == (case == "out_is_a_file")

    @pytest.mark.parametrize("command,change,key", UNREAD)
    def test_unread_key_is_named(self, tmp_path, capsys, command, change, key):
        # a key of another profile kind, a sweep outside the sweep command or
        # a drive sweep of a profile with no drive would go unread
        p = tmp_path / "c.json"
        write_command_config(p, command, change)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        assert re.fullmatch(rf"config error: unknown key\(s\) in config[^\n]*: {key}\n",
                            capsys.readouterr().err)


class TestExtractCommand:
    def test_extract_gates_are_casimir_gates_in_order(self):
        # a stale name in EXTRACT_GATES is a KeyError when extract runs
        s = CasimirScenario(1.5, 1.0, 0.7, VelocityProfile.sinusoid(0.2, 2.0), 1.0)
        gates = list(cli._gates(cli._casimir_columns(solve_modes(s, 5)), 1.0))
        assert [name for name in gates if name in cli.EXTRACT_GATES] == list(cli.EXTRACT_GATES)

    def test_extract_writes_trajectory(self, tmp_path):
        p = tmp_path / "c.json"
        write_config(p, samples=9)
        code = main(["extract", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 0
        lines = (tmp_path / "o" / "extract.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "T"
        assert len(lines) == 10

    def test_summary_names_the_worst_sample(self, tmp_path, monkeypatch, capsys):
        # the summary reads all_valid, worst_time and worst_witness off the
        # scan's arrays: the smaller witness of either rate, at its sample
        def scan(gamma_up, gamma_down, floor=0.0):
            up = np.array([1.0, 0.5, -0.3, 0.2, 0.0])
            down = np.array([0.0, -0.4, 0.0, 0.1, 0.0])
            return up, down, np.array([True, False, False, True, True])

        monkeypatch.setattr(cli, "validity_report", scan)
        p = tmp_path / "c.json"
        write_config(p, samples=5)
        assert main(["extract", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "  all_valid: False\n  worst_time: 2.5\n  worst_witness: -0.4\n" in out

    def test_generator_columns_match_casimir(self, tmp_path):
        p = tmp_path / "c.json"
        write_config(p)
        out = str(tmp_path / "o")
        assert main(["casimir", "--config", str(p), "--out", out]) == 0
        assert main(["extract", "--config", str(p), "--out", out]) == 0

        def columns(name):
            header, *rows = (tmp_path / "o" / name).read_text().splitlines()
            names = header.split(",")
            return {n: [r.split(",")[names.index(n)] for r in rows] for n in names}

        casimir, extract = columns("casimir.csv"), columns("extract.csv")
        for name in ("T", "h", "gamma_up", "gamma_up_extracted", "gamma_down_extracted"):
            assert extract[name] == casimir[name]

    def test_valid_column_does_not_depend_on_tolerance_at_large_photon_number(
        self, tmp_path
    ):
        # W3 at T=800 (n ~ 3.4e7): gamma_down_extracted is roundoff of a few
        # 1e-9 that changes with the tolerance; judged against the rates'
        # roundoff floor, both tolerances give the same verdicts
        p = tmp_path / "c.json"
        write_config(p, theta=np.pi / 2, t_end=800.0, samples=201,
                     profile={"kind": "sinusoid", "beta0": 0.4,
                              "drive_frequency": 0.98})
        valid, down = {}, {}
        for tol in ("1e-11", "1e-13"):
            out = tmp_path / tol
            assert main(["extract", "--config", str(p), "--rel-tol", tol,
                         "--out", str(out)]) == 0
            header, *rows = (out / "extract.csv").read_text().splitlines()
            names = header.split(",")
            valid[tol] = [r.split(",")[names.index("valid")] for r in rows]
            down[tol] = [float(r.split(",")[names.index("gamma_down_extracted")]) for r in rows]
        assert valid["1e-11"] == valid["1e-13"]
        # the roundoff is there, and the genuinely negative gamma_up stays invalid
        assert min(down["1e-11"] + down["1e-13"]) < -1e-9
        assert "true" in valid["1e-11"] and "false" in valid["1e-11"]


def reference_csv(columns: dict) -> str:
    """CSV text written one value at a time: booleans as true/false, floats
    with 17 significant digits, anything else as ``str``."""
    def text(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return f"{v:.17g}" if isinstance(v, float) else str(v)

    rows = zip(*(np.asarray(v).tolist() for v in columns.values()))
    return "".join(",".join(map(text, row)) + "\n" for row in [list(columns), *rows])


class TestCsvBytes:
    def test_every_command_matches_the_reference_writer(self, tmp_path, monkeypatch):
        written = []
        real = cli._write_csv

        def record(path, columns):
            written.append((path, columns))
            real(path, columns)

        python = set()
        real_words = csvtext._words

        def words(values):
            python.add(Path(written[-1][0]).name)
            return real_words(values)

        monkeypatch.setattr(cli, "_write_csv", record)
        monkeypatch.setattr(csvtext, "_words", words)
        write_config(tmp_path / "long.json", t_end=20.0, samples=401)
        write_config(tmp_path / "sweep.json", samples=41,
                     sweep={"beta0": [0.2, 1.5], "omega": [0.8, 1.0]})
        (tmp_path / "amp.json").write_text(json.dumps(
            {"kappa": [1.0, 0.5], "m": 0.5, "t_end": 2.0, "samples": 101}), encoding="utf-8")
        (tmp_path / "amp_small.json").write_text(json.dumps({"kappa": 1.0, "m": 0.5}),
                                                 encoding="utf-8")
        runs = [("casimir", "long"), ("extract", "long"), ("sweep", "sweep"),
                ("amplify", "amp"), ("amplify", "amp_small"), ("fock-check", None)]
        for i, (command, config) in enumerate(runs):
            argv = [command, "--out", str(tmp_path / str(i))]
            if config:
                argv += ["--config", str(tmp_path / f"{config}.json")]
            # the sweep's points at beta0 = 1.5 are superluminal: exit 1
            assert main(argv) == (1 if command == "sweep" else 0)
        names = sorted(Path(path).name for path, _ in written)
        assert names == ["amplify.csv", "amplify.csv", "casimir.csv", "casimir_000.csv",
                         "casimir_002.csv", "extract.csv", "fock_check.csv",
                         "sweep_summary.csv"]
        # only a table with a str or int column is formatted by Python; the
        # float-and-boolean tables take the kernel at any size, 44 values up
        assert python == {"fock_check.csv", "sweep_summary.csv"}
        assert min(sum(np.asarray(v).size for v in cols.values()) for path, cols in written
                   if Path(path).name not in python) == 44
        for path, columns in written:
            assert Path(path).read_text(encoding="utf-8") == reference_csv(columns), path
        summary = (tmp_path / "2" / "sweep_summary.csv").read_text().splitlines()
        rows = [line.split(",") for line in summary[1:]]
        assert [row[-2] for row in rows] == ["ok", "error", "ok", "error"]
        assert [row[-1] for row in rows] == ["casimir_000.csv", "", "casimir_002.csv", ""]
        assert [row[-3] for row in rows[1::2]] == ["nan", "nan"]


class TestReportLines:
    def test_printed_gates_are_the_report_gates(self, tmp_path, monkeypatch):
        # every command prints each gate of its RunReport once, in order, as
        # "name: value V, limit L, t=T", and a violated line for each gate that
        # failed, in the same form, then a sweep's point errors
        reports = {}
        for name, (argv_flags, parse, run) in list(cli.COMMANDS.items()):
            def recording(cfg, out_dir, run=run, name=name):
                reports[name] = run(cfg, out_dir)
                return reports[name]

            monkeypatch.setitem(cli.COMMANDS, name, (argv_flags, parse, recording))
        monkeypatch.setitem(cli.FOCK_THRESHOLDS, "beam_splitter", 0.0)  # fails at 2.8e-16
        write_config(tmp_path / "loose.json", t_end=300.0, samples=11, rel_tol=1e-3,
                     profile={"kind": "sinusoid", "beta0": 0.5, "drive_frequency": 0.05})
        write_config(tmp_path / "sweep.json", samples=11, sweep={"beta0": [0.2, 1.5]})
        (tmp_path / "amp.json").write_text(json.dumps({"kappa": [1.0, 0.5], "m": 0.5}))
        runs = [("casimir", "loose", 1), ("extract", "loose", 0), ("sweep", "sweep", 1),
                ("amplify", "amp", 0), ("fock-check", None, 1)]
        for command, config, expected in runs:
            argv = [command, "--out", str(tmp_path / command)]
            code, out, err = run_main(argv + (["--config", str(tmp_path / f"{config}.json")]
                                              if config else []))
            report = reports[command]
            assert (code, err) == (expected, "") and report.ok == (code == 0)
            lines = {m[1]: m[2] for m in REPORT_LINE.finditer(out)}
            assert list(lines) == list(report.gates) != [], command
            for name, (value, limit, t) in printed_gates(out).items():
                g = report.gates[name]
                assert (value, limit, t) == tuple(
                    float(f"{x:{spec}}") for x, spec in
                    ((g.value, ".3e"), (g.limit, ".3e"), (g.time, ".6g"))), name
            violated = re.findall(r"^  violated: (.*)$", out, re.MULTILINE)
            assert violated == [f"{name} ({lines[name]})"
                                for name, g in report.gates.items() if not g.ok] + report.errors
            assert all(re.fullmatch(rf"(point \d+: )?{GATE_LINE}", v) for v in violated
                       if v not in report.errors)


class TestBenchHeaders:
    def test_csv_headers_are_the_benchmarks(self, tmp_path):
        # perfbench checks every op's CSV header against the column lists
        # copied into perfbench/workloads.py; read (not imported or edited)
        # here, so that a column change fails this test instead of every op
        tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
        bench = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                 and node.targets[0].id in ("CASIMIR_COLUMNS", "FOCK_COLUMNS")}
        write_config(tmp_path / "c.json", samples=3, t_end=1.0)
        assert main(["casimir", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path)]) == 0
        assert main(["fock-check", "--out", str(tmp_path)]) == 0
        for name, columns in (("casimir.csv", "CASIMIR_COLUMNS"), ("fock_check.csv", "FOCK_COLUMNS")):
            header = (tmp_path / name).read_text(encoding="utf-8").splitlines()[0]
            assert header.split(",") == bench[columns], name
        assert list(cli.CSV_COLUMNS) == bench["CASIMIR_COLUMNS"]


class TestImportHygiene:
    def test_commands_run_without_scipy(self, tmp_path):
        # scipy is a test dependency only: the runtime, imports and every
        # command included, never loads it; nor do the commands load fractions,
        # decimal or numpy.ma, whose imports would cost the first op or set-up
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        (tmp_path / "run.json").write_text(
            re.search(r"```json\n(.*?)```", readme, re.S).group(1), encoding="utf-8"
        )
        (tmp_path / "amp.json").write_text(json.dumps({"kappa": 1.0, "m": 0.5}), encoding="utf-8")
        code = textwrap.dedent("""
            import sys
            import rsfield.cli as cli
            for argv in (["casimir", "--config", "run.json", "--out", "c"],
                         ["extract", "--config", "run.json", "--out", "e"],
                         ["sweep", "--config", "run.json", "--out", "s"],
                         ["fock-check", "--out", "f"],
                         ["amplify", "--config", "amp.json", "--out", "a"]):
                assert cli.main(argv) == 0, argv
            heavy = ("scipy", "fractions", "decimal", "numpy.ma")
            loaded = sorted(m for m in sys.modules
                            if any(m == h or m.startswith(h + ".") for h in heavy))
            assert not loaded, loaded
        """)
        run_python(code, tmp_path)

    def test_fock_check_draws_without_numpy_random(self, tmp_path):
        # the observables are drawn by stdlib random: a first fock-check op
        # pays for no numpy.random import (11 modules, secrets and hmac)
        code = textwrap.dedent("""
            import sys
            import rsfield.cli as cli
            assert cli.main(["fock-check", "--out", "f"]) == 0
            loaded = sorted(m for m in sys.modules
                            if m in ("numpy.random", "secrets", "hmac")
                            or m.startswith("numpy.random."))
            assert not loaded, loaded
        """)
        run_python(code, tmp_path)

    def test_commands_run_without_argparse(self, tmp_path):
        # the argv is read against cli.COMMANDS: a first op pays for no
        # argparse import (gettext, locale and its compiled regexes)
        write_config(tmp_path / "c.json")
        code = textwrap.dedent("""
            import sys
            import rsfield.cli as cli
            assert cli.main(["casimir", "--config", "c.json", "--out", "c"]) == 0
            assert cli.main(["fock-check", "--out", "f"]) == 0
            try:
                cli.main(["casimir", "--out", "bad"])
            except SystemExit as exc:
                assert exc.code == 2, exc.code
            else:
                raise AssertionError("a missing --config ran")
            assert "argparse" not in sys.modules
        """)
        run_python(code, tmp_path)


class TestParserReuse:
    def test_one_process_matches_fresh_runs(self, tmp_path):
        # a sequence of calls of main in one process writes the CSVs and
        # exit codes of separate fresh runs, and no flag of one call
        # (--rel-tol, a rejected argv) reaches the next; at omega = 5 the
        # period's grids at the two tolerances differ
        write_config(tmp_path / "c.json", omega=5.0)
        calls = [
            ["casimir", "--config", "c.json", "--out", "{}/tight", "--rel-tol", "1e-9"],
            ["casimir", "--config", "c.json", "--out", "{}/plain"],
            ["casimir", "--config", "c.json", "--out", "{}/bad", "--cutoff", "3"],
            ["fock-check", "--out", "{}/fock"],
        ]
        codes = [0, 0, 2, 0]
        code = textwrap.dedent(f"""
            import rsfield.cli as cli
            codes = []
            for argv in {calls!r}:
                try:
                    codes.append(cli.main([a.format("same") for a in argv]))
                except SystemExit as exc:
                    codes.append(exc.code)
            assert codes == {codes!r}, codes
        """)
        run_python(code, tmp_path)
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        for argv, expected in zip(calls, codes):
            result = subprocess.run(
                [sys.executable, "-m", "rsfield.cli", *(a.format("fresh") for a in argv)],
                cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                capture_output=True, timeout=120,
            )
            assert result.returncode == expected, result.stderr
        for out, name in (("tight", "casimir.csv"), ("plain", "casimir.csv"),
                          ("fock", "fock_check.csv")):
            same = (tmp_path / "same" / out / name).read_bytes()
            assert same == (tmp_path / "fresh" / out / name).read_bytes(), out
        assert not (tmp_path / "same" / "bad").exists()
        tight, plain = ((tmp_path / "same" / d / "casimir.csv").read_bytes()
                        for d in ("tight", "plain"))
        assert tight != plain  # so a leaked --rel-tol would show


CHOOSE = " (choose from casimir, sweep, amplify, fock-check, extract)"


class TestArgv:
    """The argv grammar of ``cli.COMMANDS``: ``--flag value`` or
    ``--flag=value``, the token after a flag always its value, the last of a
    repeated flag kept, no abbreviations, exit 2 on any argv error."""

    @pytest.mark.parametrize("argv,reason", [
        ([], "a command is required"),
        (["bogus"], "unknown command 'bogus'" + CHOOSE),
        (["--config", "{c}", "casimir"], "unknown command '--config'" + CHOOSE),
        (["casimir", "--config", "{c}", "--bogus", "1"], "unrecognized argument '--bogus'"),
        (["casimir", "--conf", "{c}"], "unrecognized argument '--conf'"),
        (["casimir", "--config", "{c}", "stray"], "unrecognized argument 'stray'"),
        (["amplify", "--config", "{c}", "--rel-tol", "1e-9"], "amplify does not take --rel-tol"),
        (["fock-check", "--samples=3"], "fock-check does not take --samples"),
        (["casimir", "--config", "{c}", "--out"], "--out expects a value"),
        (["casimir", "--config", "{c}", "--samples", "1.5"],
         "--samples must be an integer, got '1.5'"),
        (["casimir", "--config", "{c}", "--rel-tol=tight"],
         "--rel-tol must be a number, got 'tight'"),
        (["extract", "--config", "{c}", "--samples", "x", "-h"],
         "--samples must be an integer, got 'x'"),
        (["casimir", "--out", "{o}"], "casimir requires --config"),
        (["sweep"], "sweep requires --config"),
    ])
    def test_argv_error_exits_two_with_usage(self, tmp_path, capsys, argv, reason):
        write_config(tmp_path / "c.json")
        names = {"c": str(tmp_path / "c.json"), "o": str(tmp_path / "o")}
        argv = [a.format(**names) for a in argv]
        command = argv[0] if argv and argv[0] in cli.COMMANDS else None
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"{cli._usage(command)}\nrsfield: error: {reason}\n"
        assert not (tmp_path / "o").exists() and not (tmp_path / "out").exists()

    def test_usage_lines_come_from_the_table(self):
        assert cli._usage(None) == (
            "usage: rsfield [-h] {casimir,sweep,amplify,fock-check,extract} ..."
        )
        assert cli._usage("casimir") == (
            "usage: rsfield casimir [-h] --config CONFIG [--out OUT] "
            "[--rel-tol REL_TOL] [--samples SAMPLES]"
        )
        assert cli._usage("amplify") == (
            "usage: rsfield amplify [-h] --config CONFIG [--out OUT] [--samples SAMPLES]"
        )
        assert cli._usage("fock-check") == (
            "usage: rsfield fock-check [-h] [--config CONFIG] [--out OUT]"
        )

    @pytest.mark.parametrize("argv,usage", [
        (["-h"], None),
        (["--help"], None),
        (["casimir", "-h"], "casimir"),
        (["fock-check", "--out", "o", "--help"], "fock-check"),
    ])
    def test_help_prints_the_usage_and_exits_zero(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 0
        assert err == ""
        lines = [cli._usage(usage)] if usage else [cli._usage(c) for c in cli.COMMANDS]
        assert out == "\n".join(lines) + "\n"

    def test_equals_form_writes_the_same_csv(self, tmp_path):
        write_config(tmp_path / "c.json")
        config = str(tmp_path / "c.json")
        assert main(["casimir", "--config", config, "--out", str(tmp_path / "a"),
                     "--samples", "7"]) == 0
        assert main(["casimir", f"--config={config}", f"--out={tmp_path / 'b'}",
                     "--samples=7"]) == 0
        a, b = ((tmp_path / d / "casimir.csv").read_bytes() for d in "ab")
        assert a == b and a.count(b"\n") == 8

    def test_repeated_flag_keeps_its_last_value(self, tmp_path):
        # at omega = 5 the period's grids at rel_tol 1e-9 and 1e-11 differ
        write_config(tmp_path / "c.json", omega=5.0)
        config = str(tmp_path / "c.json")
        assert main(["casimir", "--config", config, "--out", str(tmp_path / "once"),
                     "--rel-tol", "1e-9"]) == 0
        assert main(["casimir", "--config", "missing.json", "--config", config,
                     "--out", str(tmp_path / "first"), "--out", str(tmp_path / "twice"),
                     "--rel-tol", "1e-11", "--rel-tol=1e-9"]) == 0
        assert not (tmp_path / "first").exists()
        assert main(["casimir", "--config", config, "--out", str(tmp_path / "plain")]) == 0
        once, twice, plain = ((tmp_path / d / "casimir.csv").read_bytes()
                              for d in ("once", "twice", "plain"))
        assert once == twice != plain

    @pytest.mark.parametrize("value", ["-5", "-inf"])
    def test_value_starting_with_a_dash_fails_validation(self, tmp_path, capsys, value):
        # the token after --rel-tol is its value even when it starts with "-"
        write_config(tmp_path / "c.json")
        code = main(["casimir", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "o"), "--rel-tol", value])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: config.rel_tol")
        assert not (tmp_path / "o").exists()


class TestNoSvd:
    def test_casimir_runs_with_svd_unavailable(self, tmp_path, monkeypatch):
        # the per-sample stage inverts and takes condition numbers without an
        # SVD: a casimir run writes the same CSV with every SVD route raising
        write_config(tmp_path / "c.json", t_end=20.0, samples=201)
        argv = ["casimir", "--config", str(tmp_path / "c.json"), "--out"]
        assert main(argv + [str(tmp_path / "plain")]) == 0

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD called in a casimir run")

        monkeypatch.setattr(np.linalg, "cond", no_svd)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        # the function that numpy's cond and 2-norms call internally
        internal = np.linalg._linalg if hasattr(np.linalg, "_linalg") else np.linalg.linalg
        monkeypatch.setattr(internal, "svd", no_svd)
        assert main(argv + [str(tmp_path / "guarded")]) == 0
        assert ((tmp_path / "guarded" / "casimir.csv").read_bytes()
                == (tmp_path / "plain" / "casimir.csv").read_bytes())


def run_python(code, cwd):
    """Run ``code`` in a fresh interpreter that imports rsfield from src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
