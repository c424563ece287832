import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

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
)
from rsfield.errors import ConfigError

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

    def test_summary_recomputes_from_columns(self, tmp_path):
        # the summary's numpy reductions against plain loops over the columns
        cfg = write_config(tmp_path / "c.json")
        report = run_casimir(parse_casimir_config(cfg), tmp_path)
        assert report.ok
        cols = {name: c.tolist() for name, c in report.columns.items()}
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
        }
        assert again.keys() == report.summary.keys()
        for key, value in report.summary.items():
            if isinstance(value, bool):
                assert again[key] is value
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

    def test_check_selection(self, tmp_path):
        report = run_fock_check({"checks": ["identity"]}, tmp_path)
        assert report.columns["check"] == ["identity"]

    def test_unknown_check_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="wigner"):
            run_fock_check({"checks": ["wigner"]}, tmp_path)

    def test_exit_zero_through_main(self, tmp_path):
        assert main(["fock-check", "--out", str(tmp_path / "o")]) == 0


class TestExitCodes:
    def test_loose_tolerance_exits_one_on_growth_law(self, tmp_path, capsys):
        # at a hopeless tolerance CCR still holds (every Magnus step map is
        # in SU(1,1)), but the dense output no longer follows the growth law
        p = tmp_path / "c.json"
        write_config(p, t_end=50.0, samples=11,
                     profile={"kind": "sinusoid", "beta0": 0.5,
                              "drive_frequency": 2.0})
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
        assert max(ccr) > cli.INVARIANT_LIMIT

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

    def _run_perturbed(self, tmp_path, capsys, monkeypatch, amplitude, change):
        real_solve = cli.solve_modes

        def perturbed(*args, **kwargs):
            sol = real_solve(*args, **kwargs)
            setattr(sol, amplitude, change(getattr(sol, amplitude)))
            return sol

        monkeypatch.setattr(cli, "solve_modes", perturbed)
        p = tmp_path / "c.json"
        write_config(p)
        code = main(["casimir", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 1
        assert (tmp_path / "o" / "casimir.csv").exists()
        return capsys.readouterr().out

    def test_non_symplectic_map_exits_one_with_csv(self, tmp_path, capsys, monkeypatch):
        # a 1e-6 relative error in f_L- breaks the symplectic check of the
        # stacked maps; the run still leaves its CSV and summary
        out = self._run_perturbed(tmp_path, capsys, monkeypatch, "f_lm", lambda f: f * (1 + 1e-6))
        assert "max_symplectic_residual" in out
        gate = r"violated: symplectic_residual \(value 2\.\d+e-06, limit 1\.000e-08, t="
        assert re.search(gate, out)

    def test_broken_helicity_symmetry_exits_one(self, tmp_path, capsys, monkeypatch):
        out = self._run_perturbed(tmp_path, capsys, monkeypatch, "f_lp", lambda f: f + 1e-6)
        assert re.search(r"violated: helicity_symmetry \(value \S+, limit 1\.000e-08, t=\S+\)", out)


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


class TestImportHygiene:
    def test_commands_run_without_scipy(self, tmp_path):
        # scipy is a test dependency only: the runtime, imports and the
        # casimir, fock-check and amplify commands included, never loads it
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        (tmp_path / "run.json").write_text(
            re.search(r"```json\n(.*?)```", readme, re.S).group(1), encoding="utf-8"
        )
        (tmp_path / "amp.json").write_text(json.dumps({"kappa": 1.0, "m": 0.5}), encoding="utf-8")
        code = textwrap.dedent("""
            import sys
            import rsfield.cli as cli
            for argv in (["casimir", "--config", "run.json", "--out", "c"],
                         ["fock-check", "--out", "f"],
                         ["amplify", "--config", "amp.json", "--out", "a"]):
                assert cli.main(argv) == 0, argv
            loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
            assert not loaded, loaded
        """)
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
