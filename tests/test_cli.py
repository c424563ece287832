import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from rsfield import cli, csvtext
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
from rsfield.fock import coherent_state, measure_rsf
from rsfield.numerics import FloquetSolution
from rsfield.rsf import ReducedField
from rsfield.symplectic import (
    SYMPLECTIC_TOL,
    classical_mask,
    is_classical_closed,
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
        assert sorted(parsed) == ["abs_tol", "out_dir", "rel_tol", "samples", "scenario", "sweep"]

    def test_exit_code_two_on_bad_config(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        write_config(p, profile={"kind": "sinusoid", "beta0": 1.2,
                                 "drive_frequency": 2.0})
        code = main(["casimir", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "subluminal" in capsys.readouterr().err


class TestRunCasimir:
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
        assert report.summary["max_ccr_residual"] <= 1e-8
        assert report.summary["max_symplectic_residual"] <= 1e-8

    def test_summary_recomputes_from_columns(self, tmp_path):
        # the summary's numpy reductions against plain loops over the columns
        cfg = write_config(tmp_path / "c.json")
        report = run_casimir(parse_casimir_config(cfg), tmp_path)
        assert report.ok
        cols = {name: c.tolist() for name, c in report.columns.items()}
        period_end = solve_modes_direct(parse_casimir_config(cfg)["scenario"],
                                        [0.0, np.pi], rtol=1e-11, atol=1e-13)
        max_rate = max(abs(r) for r in cols["_growth_rate"])
        again = {
            "final_photon_density": cols["n_density"][-1],
            "max_ccr_residual": max(abs(r) for r in cols["ccr_residual"]),
            "max_symplectic_residual": max(cols["_symplectic_residual"]),
            "classical_closed_final": cols["classical_closed"][-1],
            "classical_open_always": all(cols["classical_open"]),
            "gamma_up_min": min(cols["gamma_up"]),
            "growth_law_max_residual": max(cols["growth_residual"]),
            "growth_law_bound": max(cli.GROWTH_LIMIT * max_rate, 1e-12),
            "extraction_max_h_deviation": max(
                abs(a - b) for a, b in zip(cols["h"], cols["h_extracted"])
            ),
            "extraction_max_gamma_deviation": max(
                abs(a - b) for a, b in zip(cols["gamma_up"], cols["gamma_up_extracted"])
            ),
            "extraction_max_gamma_down": max(abs(r) for r in cols["gamma_down_extracted"]),
            "endpoint_velocity_mismatch": abs(0.2 * np.sin(2.0 * cols["T"][-1])),
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
        report = run_casimir(cfg, tmp_path / "run")
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
        plain = run_casimir(cfg, tmp_path / "plain")
        cfg_sweep = dict(cfg)
        cfg_sweep["sweep"] = {"omega": [1.0], "theta": None,
                              "drive_frequency": None, "beta0": None}
        sweep = run_sweep(cfg_sweep, tmp_path / "sw")
        assert sweep.summary["points"] == 1
        a = (tmp_path / "plain" / "casimir.csv").read_bytes()
        b = (tmp_path / "sw" / "casimir_000.csv").read_bytes()
        assert a == b

    def test_grid_creates_deterministic_files(self, tmp_path):
        cfg = parse_casimir_config(write_config(tmp_path / "c.json", samples=11, t_end=5.0))
        cfg["sweep"] = {"omega": [0.8, 1.0, 1.2], "theta": None,
                        "drive_frequency": [1.6, 2.0, 2.4], "beta0": None}
        report = run_sweep(cfg, tmp_path / "sw")
        assert report.summary["points"] == 9
        names = sorted(f.name for f in (tmp_path / "sw").glob("casimir_*.csv"))
        assert names == [f"casimir_{i:03d}.csv" for i in range(9)]

    def test_resonance_scan_reports_empirical_peak(self, tmp_path):
        # scan the drive frequency; the reported best point must be the
        # argmax of the per-point final densities (resonance located by
        # the scan itself)
        cfg = parse_casimir_config(
            write_config(tmp_path / "c.json", theta=np.pi / 2, samples=11, t_end=15.0)
        )
        cfg["sweep"] = {"omega": None, "theta": None,
                        "drive_frequency": [0.6, 1.0, 1.6, 2.0, 2.6], "beta0": None}
        report = run_sweep(cfg, tmp_path / "sw")
        densities = report.columns["final_photon_density"]
        assert report.summary["best_index"] == int(np.argmax(densities))
        # the peak sits at the drive nearest the effective mode frequency
        assert report.summary["best_point"]["drive_frequency"] == 1.0

    def test_failed_point_is_isolated(self, tmp_path):
        cfg = parse_casimir_config(write_config(tmp_path / "c.json", samples=11, t_end=5.0))
        cfg["sweep"] = {"omega": None, "theta": None, "drive_frequency": None,
                        "beta0": [0.2, 1.5]}
        report = run_sweep(cfg, tmp_path / "sw")
        assert not report.ok
        statuses = report.columns["status"]
        assert statuses.count("ok") == 1
        assert statuses.count("error") == 1
        assert (tmp_path / "sw" / "casimir_000.csv").exists()

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
        report = run_amplify(cfg, tmp_path)
        assert report.ok
        assert report.summary["max_relative_deviation"] <= 1e-8
        assert report.columns["closed_total_number"][-1] == pytest.approx(
            E2_MINUS_1, rel=1e-10
        )

    def test_zero_rate_exact(self, tmp_path):
        cfg = {"kappa": [0.0], "m": [0.3], "t_end": 2.0, "samples": 4}
        report = run_amplify(cfg, tmp_path)
        assert report.ok
        assert report.summary["max_relative_deviation"] < 1e-12

    def test_per_mode_rates(self, tmp_path):
        cfg = {"kappa": [1.0, 2.0], "m": [0.5, 0.0], "t_end": 1.0, "samples": 5}
        report = run_amplify(cfg, tmp_path)
        assert report.ok
        assert report.summary["max_relative_deviation"] <= 1e-8

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

    def test_tolerance_keys_rejected(self, tmp_path, capsys):
        # the constant generators are propagated exactly; no tolerance applies
        p = tmp_path / "a.json"
        p.write_text(json.dumps({"kappa": [1.0], "m": [0.0], "rel_tol": 1e-30}), encoding="utf-8")
        assert main(["amplify", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "rel_tol" in capsys.readouterr().err


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
        report = run_fock_check(None, tmp_path)
        assert report.ok
        devs = dict(zip(report.columns["check"], report.columns["deviation"]))
        assert devs["squeeze"] <= 1e-6
        assert devs["beam_splitter"] <= 1e-8
        assert devs["observables"] <= 1e-6

    def test_nonzero_observables_deviation_writes_true(self, tmp_path, monkeypatch):
        real = cli.expect_additive
        monkeypatch.setattr(cli, "expect_additive", lambda rf, o: real(rf, o) + 1e-12)
        report = run_fock_check({"checks": ["observables"], "cutoff": 8}, tmp_path)
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
        devs = dict(zip(*(run_fock_check(cfg, tmp_path / "all").columns[c]
                          for c in ("check", "deviation"))))
        for check in ("squeeze", "observables"):
            alone = run_fock_check({"checks": [check]}, tmp_path / check)
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

    def test_check_selection(self, tmp_path):
        report = run_fock_check({"checks": ["identity"]}, tmp_path)
        assert report.columns["check"] == ["identity"]

    def test_unknown_check_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="wigner"):
            run_fock_check({"checks": ["wigner"]}, tmp_path)

    def test_exit_zero_through_main(self, tmp_path):
        assert main(["fock-check", "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("check, cutoff", [("identity", 6), ("observables", 5)])
    def test_smallest_cutoff_of_a_coherent_check_runs(self, tmp_path, check, cutoff):
        # one below these cutoffs is a configuration error
        # (test_malformed_value_exits_two); at them the check runs and passes
        report = run_fock_check({"checks": [check], "cutoff": cutoff}, tmp_path)
        assert report.ok and report.columns["check"] == [check]


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
        code = main(["casimir", "--config", str(p), "--out", str(tmp_path / "o"),
                     "--rel-tol", "1e-3"])
        assert code == 1
        out = capsys.readouterr().out
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
    @pytest.mark.parametrize("text", ["[]", "[1, 2]"])
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
        assert "max_symplectic_residual" in out
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

    @pytest.mark.parametrize("command,change", [
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
    ])
    def test_malformed_value_exits_two(self, tmp_path, capsys, command, change):
        # a bad value is a configuration error (exit 2) naming the key, not a
        # traceback, a "run failed" (exit 1) or a silently rounded number
        p = tmp_path / "c.json"
        if command in ("casimir", "sweep"):
            write_config(p, **change)
        else:
            base = {"amplify": {"kappa": [1.0], "m": [0.0]}}.get(command, {})
            p.write_text(json.dumps({**base, **change}), encoding="utf-8")
        code = main([command, "--config", str(p), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: config.") and next(iter(change)) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value", [
        ("cutoff", 12.0), ("cutoff", "12"), ("seed", 3.0), ("seed", "3"),
    ])
    def test_integral_value_of_an_integer_key_runs(self, tmp_path, key, value):
        # an integral float or an integer string is the integer, as int()
        # read it before; only a fractional or non-numeric value is an error
        report = run_fock_check({"checks": ["observables"], "cutoff": 8, key: value}, tmp_path)
        expected = run_fock_check(
            {"checks": ["observables"], "cutoff": 8, key: int(float(value))}, tmp_path / "int"
        )
        assert report.columns == expected.columns and not report.failures

    def test_integral_samples_value_runs(self, tmp_path):
        cfg = parse_casimir_config(write_config(tmp_path / "c.json", samples=5.0, t_end=2.0))
        assert cfg["samples"] == 5 and isinstance(cfg["samples"], int)
        cfg = {"kappa": [1.0], "m": [0.0], "t_end": 1.0, "samples": "4"}
        assert len(cli.run_amplify(cfg, tmp_path).columns["t"]) == 4

    def test_classicality_columns_are_the_library_masks(self):
        # _casimir_columns reads the map scales off the f's; its masks are
        # classical_mask's on the map stack, sample for sample
        s = CasimirScenario(1.5, 1.0, np.pi / 2, VelocityProfile.sinusoid(0.4, 0.98), 300.0)
        sol = solve_modes(s, 201)
        cols = cli._casimir_columns(sol)
        x, _ = casimir_maps(sol)
        assert cols["classical_closed"][0] and not cols["classical_closed"][-1]
        assert np.array_equal(cols["classical_closed"], classical_mask(x, n_sys=2))
        assert np.array_equal(cols["classical_open"], classical_mask(x, n_sys=1))
        np.testing.assert_allclose(cols["_map_scale"], np.max(np.abs(x), axis=(-2, -1)) ** 2,
                                   rtol=1e-14)

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
        cols = cli._casimir_columns(solve_modes(s, 201, rtol=1e-11, atol=1e-13))
        recorded = []
        real_gate = cli._gate

        def recording(times, residual, limit):
            recorded.append(np.broadcast_to(limit, np.shape(residual)))
            return real_gate(times, residual, limit)

        monkeypatch.setattr(cli, "_gate", recording)
        limits = dict(zip(cli._gates(cols, 1.0), recorded))
        eps = np.finfo(float).eps
        rp, rm, lp, lm = (cols[f"re_{f}"] ** 2 + cols[f"im_{f}"] ** 2
                          for f in ("fRp", "fRm", "fLp", "fLm"))
        rates = 256.0 * eps * (rp + rm) * 1.0
        expected = {
            "ccr_invariant": np.maximum(1e-8, 256.0 * eps * (rp + rm)),
            "symplectic_residual": np.maximum(1e-8, 256.0 * eps * np.max([rp, rm, lp, lm], axis=0)),
            "extraction_gamma_agreement": np.maximum(1e-7, rates),
            "extraction_gamma_down_zero": np.maximum(1e-8, rates),
        }
        for name, limit in expected.items():
            assert np.max(limit) > 1e-6, name
            assert np.array_equal(limits[name], limit), name
        assert np.array_equal(cli._rate_roundoff(cols, 1.0), rates)


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
        # W3 at T=800 (n ~ 3.4e7): gamma_down_min_eig is roundoff of a few
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
            down[tol] = [float(r.split(",")[names.index("gamma_down_min_eig")]) for r in rows]
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

        monkeypatch.setattr(cli, "_write_csv", record)
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
        sizes = [sum(np.asarray(v).size for v in cols.values()) for _, cols in written]
        # tables on both sides of the bound between the two writers
        assert min(sizes) < csvtext.SMALL_TABLE <= max(sizes)
        for path, columns in written:
            assert Path(path).read_text(encoding="utf-8") == reference_csv(columns), path
        summary = (tmp_path / "2" / "sweep_summary.csv").read_text().splitlines()
        rows = [line.split(",") for line in summary[1:]]
        assert [row[-2] for row in rows] == ["ok", "error", "ok", "error"]
        assert [row[-3] for row in rows[1::2]] == ["nan", "nan"]


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


class TestParserReuse:
    def test_one_process_matches_fresh_runs(self, tmp_path):
        # main builds its parser once per process and reuses it: a sequence
        # of calls in one process writes the CSVs of separate fresh runs, and
        # no flag of one call (--rel-tol, a rejected argv) reaches the next;
        # at omega = 5 the period's grids at the two tolerances differ
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
            built = []
            build = cli.build_parser
            cli.build_parser = lambda: built.append(1) or build()
            codes = []
            for argv in {calls!r}:
                try:
                    codes.append(cli.main([a.format("same") for a in argv]))
                except SystemExit as exc:
                    codes.append(exc.code)
            assert codes == {codes!r}, codes
            assert len(built) == 1, built
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

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


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
