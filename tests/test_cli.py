import json

import numpy as np
import pytest

from rsfield import cli
from rsfield.cli import (
    load_config,
    main,
    parse_casimir_config,
    run_amplify,
    run_casimir,
    run_fock_check,
    run_sweep,
    summarize_rows,
)
from rsfield.errors import ConfigError

E2_MINUS_1 = 6.389056098930650


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

    def test_sinusoid_run_produces_and_stays_open_classical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        report = run_casimir(parse_casimir_config(cfg), tmp_path)
        assert report.ok
        assert report.summary["final_photon_density"] > 1e-10
        assert report.summary["classical_closed_final"] is False
        assert report.summary["classical_open_always"] is True
        assert report.summary["max_ccr_residual"] <= 1e-8
        assert report.summary["max_symplectic_residual"] <= 1e-8

    def test_summary_recomputes_from_rows(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        report = run_casimir(parse_casimir_config(cfg), tmp_path)
        again, failures = summarize_rows(report.rows, 1.0)
        assert not failures
        for key, value in report.summary.items():
            if isinstance(value, bool):
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
        assert float(row5[1]) == report.rows[5]["re_fRp"]
        assert float(row5[10]) == report.rows[5]["n_density"]
        assert row5[17] in ("true", "false")

    def test_bitwise_reproducible(self, tmp_path):
        p = tmp_path / "c.json"
        write_config(p)
        assert main(["casimir", "--config", str(p), "--out", str(tmp_path / "a")]) == 0
        assert main(["casimir", "--config", str(p), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "casimir.csv").read_bytes()
        b = (tmp_path / "b" / "casimir.csv").read_bytes()
        assert a == b


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
        densities = [r["final_photon_density"] for r in report.rows]
        assert report.summary["best_index"] == int(np.argmax(densities))
        # the peak sits at the drive nearest the effective mode frequency
        assert report.summary["best_point"]["drive_frequency"] == 1.0

    def test_failed_point_is_isolated(self, tmp_path):
        cfg = parse_casimir_config(write_config(tmp_path / "c.json", samples=11, t_end=5.0))
        cfg["sweep"] = {"omega": None, "theta": None, "drive_frequency": None,
                        "beta0": [0.2, 1.5]}
        report = run_sweep(cfg, tmp_path / "sw")
        assert not report.ok
        statuses = [r["status"] for r in report.rows]
        assert statuses.count("ok") == 1
        assert statuses.count("error") == 1
        assert (tmp_path / "sw" / "casimir_000.csv").exists()


class TestRunAmplify:
    def test_unit_rate_vacuum(self, tmp_path):
        cfg = {"kappa": [1.0], "m": [0.0], "t_end": 1.0, "samples": 6}
        report = run_amplify(cfg, tmp_path)
        assert report.ok
        assert report.summary["max_relative_deviation"] <= 1e-8
        assert report.rows[-1]["closed_total_number"] == pytest.approx(
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


class TestWriteCsv:
    def test_numpy_scalars_write_as_python_scalars(self, tmp_path):
        columns = ("passed", "x", "n", "name")
        py = [{"passed": True, "x": 0.1, "n": 3, "name": "a"},
              {"passed": False, "x": 2.5, "n": -1, "name": "b"}]
        npy = [{"passed": np.bool_(r["passed"]), "x": np.float64(r["x"]),
                "n": np.int64(r["n"]), "name": r["name"]} for r in py]
        cli._write_csv(tmp_path / "py.csv", columns, py)
        cli._write_csv(tmp_path / "np.csv", columns, npy)
        text = (tmp_path / "py.csv").read_text()
        assert (tmp_path / "np.csv").read_text() == text
        assert text.splitlines() == [
            "passed,x,n,name", "true,0.10000000000000001,3,a", "false,2.5,-1,b",
        ]


class TestRunFockCheck:
    def test_default_catalog_passes(self, tmp_path):
        report = run_fock_check(None, tmp_path)
        assert report.ok
        devs = {r["check"]: r["deviation"] for r in report.rows}
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

    def test_check_selection(self, tmp_path):
        report = run_fock_check({"checks": ["identity"]}, tmp_path)
        assert [r["check"] for r in report.rows] == ["identity"]

    def test_unknown_check_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="wigner"):
            run_fock_check({"checks": ["wigner"]}, tmp_path)

    def test_exit_zero_through_main(self, tmp_path):
        assert main(["fock-check", "--out", str(tmp_path / "o")]) == 0


class TestExitCodes:
    def test_invariant_violation_exits_one(self, tmp_path, capsys):
        # a hopeless tolerance breaks the CCR gate mid-run
        p = tmp_path / "c.json"
        write_config(p, t_end=50.0, samples=11,
                     profile={"kind": "sinusoid", "beta0": 0.5,
                              "drive_frequency": 2.0})
        code = main(["casimir", "--config", str(p), "--out", str(tmp_path / "o"),
                     "--rel-tol", "1e-3"])
        assert code == 1
        assert "CCR" in capsys.readouterr().err

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

    def test_non_symplectic_map_exits_one_before_csv(self, tmp_path, capsys, monkeypatch):
        # a 1e-6 relative error in f_L- passes the CCR and helicity gates of
        # solve_modes but not the symplectic check of the stacked maps
        real_solve = cli.solve_modes

        def perturbed(*args, **kwargs):
            sol = real_solve(*args, **kwargs)
            sol.f_lm = sol.f_lm * (1 + 1e-6)
            return sol

        monkeypatch.setattr(cli, "solve_modes", perturbed)
        p = tmp_path / "c.json"
        write_config(p)
        code = main(["casimir", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "NotSymplecticError" in capsys.readouterr().err
        assert not (tmp_path / "o" / "casimir.csv").exists()


class TestExtractCommand:
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
