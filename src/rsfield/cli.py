"""Scenario runner: configure, execute and export production runs.

Subcommands (console script ``rsfield``):

* ``casimir``    -- one moving-medium run; per-sample CSV plus summary.
* ``sweep``      -- grid of runs over (omega, theta, drive_frequency,
                    beta0); one CSV per point plus ``sweep_summary.csv``.
* ``amplify``    -- closed-form amplification vs kinetic integration.
* ``fock-check`` -- truncated-Fock oracle catalog.
* ``extract``    -- generator trajectory (closed form and generic
                    extraction) with validity witnesses.

Configuration is a single JSON document; unknown keys are rejected so
that a typo in a physics parameter cannot silently fall back to a
default.  All floats are written with 17 significant digits and the
integrator is deterministic, so identical configs produce bitwise
identical CSVs.  Exit status: 0 all checks passed, 1 an invariant or
threshold failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .amplifier import AmplifierSpec, amplified_rsf, amplifier_generators
from .casimir import (
    CCR_TOL,
    MAP_TOL,
    CasimirScenario,
    VelocityProfile,
    casimir_maps,
    closed_form_generators,
    extracted_generators,
    growth_law_residual,
    solve_modes,
)
from .errors import ConfigError, RsfieldError
from .fock import (
    FockState,
    QuadraticHamiltonian,
    apply_ladder,
    beam_splitter_pair,
    coherent_state,
    evolve,
    measure_rsf,
    oracle_check_transform,
    squeeze_pair,
)
from .kinetics import integrate_kinetics, validity_report
from .numerics import max_abs
from .rsf import expect_additive, vacuum
from .symplectic import classical_mask, identity_map

EXTRACTION_LIMIT = 1e-7  # relative to omega
GAMMA_DOWN_LIMIT = 1e-8  # relative to omega
GROWTH_LIMIT = 1e-6  # relative to the peak density rate
AMPLIFY_LIMIT = 1e-8
DEFAULT_REL_TOL = 1e-11
DEFAULT_ABS_TOL = 1e-13

CSV_COLUMNS = (
    "T", "re_fRp", "im_fRp", "re_fRm", "im_fRm", "re_fLp", "im_fLp",
    "re_fLm", "im_fLm", "phi", "n_density", "ccr_residual", "h", "gamma_up",
    "gamma_up_extracted", "gamma_down_extracted", "growth_residual",
    "classical_closed", "classical_open",
)


def _formatter(value):
    """The text form of a CSV column, picked from its first value: booleans
    (Python or numpy) as true/false, integers as integers, strings as they
    are, anything else as a float with 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return lambda v: "true" if v else "false"
    if isinstance(value, str):
        return str
    if isinstance(value, (int, np.integer)):
        return lambda v: str(int(v))
    return lambda v: f"{float(v):.17g}"


def _write_csv(path: Path, columns, rows) -> None:
    values = [[row[c] for row in rows] for c in columns]
    text = zip(*(map(_formatter(v[0]), v) for v in values if v))
    lines = [",".join(columns), *(",".join(r) for r in text)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _require_keys(cfg: dict, allowed: dict, where: str) -> dict:
    """Reject unknown keys and fill defaults; ``allowed`` maps key -> default
    (``...`` marks a required key)."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    out = {}
    for key, default in allowed.items():
        if key in cfg:
            out[key] = cfg[key]
        elif default is ...:
            raise ConfigError(f"missing required key '{key}' in {where}")
        else:
            out[key] = default
    return out


PROFILE_KEYS = {
    "kind": ...,
    "beta0": ...,
    "drive_frequency": 0.0,
    "duration": 0.0,
    "ramp_time": 0.0,
    "hold_time": 0.0,
}

CASIMIR_KEYS = {
    "refractive_index": ...,
    "omega": ...,
    "theta": ...,
    "sigma": "auto",
    "profile": ...,
    "t_end": ...,
    "samples": 201,
    "rel_tol": DEFAULT_REL_TOL,
    "abs_tol": DEFAULT_ABS_TOL,
    "sweep": None,
    "out_dir": None,
}

SWEEP_AXES = ("omega", "theta", "drive_frequency", "beta0")


def load_config(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def parse_casimir_config(cfg: dict) -> dict:
    out = _require_keys(cfg, CASIMIR_KEYS, "config")
    prof = _require_keys(out["profile"], PROFILE_KEYS, "config.profile")
    try:
        out["profile"] = VelocityProfile(
            kind=prof["kind"],
            beta0=float(prof["beta0"]),
            drive_frequency=float(prof["drive_frequency"]),
            duration=float(prof["duration"]),
            ramp_time=float(prof["ramp_time"]),
            hold_time=float(prof["hold_time"]),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.profile: {exc}") from exc
    if not isinstance(out["samples"], int) or out["samples"] < 2:
        raise ConfigError("samples must be an integer >= 2")
    if out["sweep"] is not None:
        out["sweep"] = _require_keys(
            out["sweep"], {axis: None for axis in SWEEP_AXES}, "config.sweep"
        )
    return out


def build_scenario(cfg: dict) -> CasimirScenario:
    sigma = cfg["sigma"]
    return CasimirScenario(
        refractive_index=float(cfg["refractive_index"]),
        omega=float(cfg["omega"]),
        theta=float(cfg["theta"]),
        profile=cfg["profile"],
        t_end=float(cfg["t_end"]),
        sigma=sigma if isinstance(sigma, str) else float(sigma),
    )


@dataclass
class RunReport:
    rows: list
    summary: dict
    ok: bool
    failures: list


def _casimir_columns(s: CasimirScenario, cfg: dict) -> dict:
    """Every per-sample quantity of one run, as arrays over the sample axis;
    ``casimir`` and ``extract`` both select their CSV columns from it."""
    sol = solve_modes(s, cfg["samples"], rtol=cfg["rel_tol"], atol=cfg["abs_tol"])
    x, symplectic = casimir_maps(sol)
    h, gamma_up = closed_form_generators(sol)
    ext_h, ext_up, ext_down = extracted_generators(sol)
    growth = growth_law_residual(sol, gamma_up=gamma_up)
    return {
        "T": sol.times,
        "re_fRp": sol.f_rp.real, "im_fRp": sol.f_rp.imag,
        "re_fRm": sol.f_rm.real, "im_fRm": sol.f_rm.imag,
        "re_fLp": sol.f_lp.real, "im_fLp": sol.f_lp.imag,
        "re_fLm": sol.f_lm.real, "im_fLm": sol.f_lm.imag,
        "phi": sol.phi,
        "n_density": sol.density(),
        "ccr_residual": sol.ccr_residual,
        "h": h,
        "gamma_up": gamma_up,
        "h_extracted": ext_h[:, 0, 0].real,
        "gamma_up_extracted": ext_up[:, 0, 0].real,
        "gamma_down_extracted": ext_down[:, 0, 0].real,
        "growth_residual": growth.residuals,
        "classical_closed": classical_mask(x, n_sys=2),
        "classical_open": classical_mask(x, n_sys=1),
        "_symplectic_residual": symplectic,
        "_growth_rate": growth.density_rate,
        "_endpoint_mismatch": np.full(sol.times.size, sol.endpoint_velocity_mismatch()),
    }


def _rows(columns: dict) -> list:
    """One dict of Python scalars per sample."""
    return [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]


def summarize_rows(rows: list, omega: float) -> tuple[dict, list]:
    """Summary and failed-invariant list, recomputed purely from the rows."""
    max_rate = max(abs(r["_growth_rate"]) for r in rows)
    growth_bound = max(GROWTH_LIMIT * max_rate, 1e-12 * omega)
    summary = {
        "final_photon_density": rows[-1]["n_density"],
        "max_ccr_residual": max(abs(r["ccr_residual"]) for r in rows),
        "max_symplectic_residual": max(r["_symplectic_residual"] for r in rows),
        "classical_closed_final": rows[-1]["classical_closed"],
        "classical_open_always": all(r["classical_open"] for r in rows),
        "gamma_up_min": min(r["gamma_up"] for r in rows),
        "growth_law_max_residual": max(r["growth_residual"] for r in rows),
        "growth_law_bound": growth_bound,
        "extraction_max_h_deviation": max(
            abs(r["h"] - r["h_extracted"]) for r in rows
        ),
        "extraction_max_gamma_deviation": max(
            abs(r["gamma_up"] - r["gamma_up_extracted"]) for r in rows
        ),
        "extraction_max_gamma_down": max(
            abs(r["gamma_down_extracted"]) for r in rows
        ),
        "endpoint_velocity_mismatch": rows[-1]["_endpoint_mismatch"],
    }
    failures = []
    if summary["max_ccr_residual"] > CCR_TOL:
        failures.append("ccr_invariant")
    if summary["max_symplectic_residual"] > MAP_TOL:
        failures.append("symplectic_residual")
    if not summary["classical_open_always"]:
        failures.append("open_classicality")
    if summary["extraction_max_h_deviation"] > EXTRACTION_LIMIT * omega:
        failures.append("extraction_h_agreement")
    if summary["extraction_max_gamma_deviation"] > EXTRACTION_LIMIT * omega:
        failures.append("extraction_gamma_agreement")
    if summary["extraction_max_gamma_down"] > GAMMA_DOWN_LIMIT * omega:
        failures.append("extraction_gamma_down_zero")
    if summary["growth_law_max_residual"] > growth_bound:
        failures.append("growth_law")
    return summary, failures


def run_casimir(cfg: dict, out_dir: Path, csv_name: str = "casimir.csv") -> RunReport:
    s = build_scenario(cfg)
    rows = _rows(_casimir_columns(s, cfg))
    summary, failures = summarize_rows(rows, s.omega)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / csv_name, CSV_COLUMNS, rows)
    return RunReport(rows=rows, summary=summary, ok=not failures, failures=failures)


def sweep_grid(cfg: dict) -> list:
    axes = []
    for axis in SWEEP_AXES:
        values = (cfg["sweep"] or {}).get(axis)
        if values is None:
            if axis == "omega":
                values = [cfg["omega"]]
            elif axis == "theta":
                values = [cfg["theta"]]
            elif axis == "drive_frequency":
                values = [cfg["profile"].drive_frequency]
            else:
                values = [cfg["profile"].beta0]
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"sweep.{axis} must be a nonempty list")
        axes.append([float(v) for v in values])
    return [
        {"omega": w, "theta": th, "drive_frequency": dr, "beta0": b}
        for w, th, dr, b in product(*axes)
    ]


def _point_config(cfg: dict, point: dict) -> dict:
    out = dict(cfg)
    out["omega"] = point["omega"]
    out["theta"] = point["theta"]
    prof = cfg["profile"]
    out["profile"] = VelocityProfile(
        kind=prof.kind,
        beta0=point["beta0"],
        drive_frequency=point["drive_frequency"],
        duration=prof.duration,
        ramp_time=prof.ramp_time,
        hold_time=prof.hold_time,
    )
    out["sweep"] = None
    return out


def run_sweep(cfg: dict, out_dir: Path) -> RunReport:
    grid = sweep_grid(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    failures = []
    for index, point in enumerate(grid):
        name = f"casimir_{index:03d}.csv"
        row = {"index": index, **point, "csv": name}
        try:
            report = run_casimir(_point_config(cfg, point), out_dir, csv_name=name)
        except RsfieldError as exc:
            row["status"] = "error"
            row["final_photon_density"] = float("nan")
            failures.append(f"point {index}: {type(exc).__name__}: {exc}")
        else:
            row["status"] = "ok" if report.ok else "invariant_violation"
            row["final_photon_density"] = report.summary["final_photon_density"]
            if not report.ok:
                failures.append(f"point {index}: {','.join(report.failures)}")
        rows.append(row)
    columns = ("index", "omega", "theta", "drive_frequency", "beta0",
               "final_photon_density", "status", "csv")
    _write_csv(out_dir / "sweep_summary.csv", columns, rows)
    solved = [r for r in rows if r["status"] != "error"]
    best = max(solved, key=lambda r: r["final_photon_density"]) if solved else None
    summary = {
        "points": len(rows),
        "failed_points": len(failures),
        "best_index": best["index"] if best else -1,
        "best_final_photon_density": best["final_photon_density"] if best else float("nan"),
    }
    if best is not None:
        summary["best_point"] = {
            axis: best[axis] for axis in ("omega", "theta", "drive_frequency", "beta0")
        }
    return RunReport(rows=rows, summary=summary, ok=not failures, failures=failures)


AMPLIFY_KEYS = {
    "kappa": ...,
    "m": ...,
    "t_end": 1.0,
    "samples": 11,
    "rel_tol": DEFAULT_REL_TOL,
    "abs_tol": DEFAULT_ABS_TOL,
    "out_dir": None,
}


def run_amplify(cfg: dict, out_dir: Path) -> RunReport:
    cfg = _require_keys(cfg, AMPLIFY_KEYS, "config")
    try:
        spec = AmplifierSpec(kappa=cfg["kappa"], m=cfg["m"])
    except RsfieldError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.kappa/m: {exc}") from exc
    if not isinstance(cfg["samples"], int) or cfg["samples"] < 2:
        raise ConfigError("samples must be an integer >= 2")
    times = np.linspace(0.0, float(cfg["t_end"]), cfg["samples"])
    rf0, _ = vacuum(spec.n_modes)
    snaps = integrate_kinetics(
        rf0, amplifier_generators(spec), (0.0, float(cfg["t_end"])), times,
        rtol=float(cfg["rel_tol"]), atol=float(cfg["abs_tol"]),
    )
    rows = []
    worst = 0.0
    for t, snap in zip(times, snaps):
        closed = amplified_rsf(spec, rf0, float(t))
        scale = 1.0 + max_abs(closed.r)
        deviation = max(
            max_abs(snap.r - closed.r) / scale,
            max_abs(snap.alpha - closed.alpha) / scale,
        )
        worst = max(worst, deviation)
        rows.append({
            "t": float(t),
            "relative_deviation": deviation,
            "closed_total_number": np.trace(closed.r).real,
            "kinetic_total_number": np.trace(snap.r).real,
        })
    summary = {"max_relative_deviation": worst, "threshold": AMPLIFY_LIMIT}
    failures = [] if worst <= AMPLIFY_LIMIT else ["closed_form_mismatch"]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "amplify.csv",
        ("t", "relative_deviation", "closed_total_number", "kinetic_total_number"),
        rows,
    )
    return RunReport(rows=rows, summary=summary, ok=not failures, failures=failures)


FOCK_KEYS = {
    "checks": ["squeeze", "beam_splitter", "identity", "observables"],
    "cutoff": 12,
    "squeeze": 0.3,
    "angle": 0.7,
    "seed": 20240817,
    "out_dir": None,
}

FOCK_THRESHOLDS = {
    "squeeze": 1e-6,
    "beam_splitter": 1e-8,
    "identity": 1e-10,
    "observables": 1e-6,
}


def run_fock_check(cfg: dict | None, out_dir: Path) -> RunReport:
    cfg = _require_keys({} if cfg is None else cfg, FOCK_KEYS, "config")
    known = set(FOCK_THRESHOLDS)
    unknown = set(cfg["checks"]) - known
    if unknown:
        raise ConfigError(f"unknown fock checks: {', '.join(sorted(unknown))}")
    cutoff = int(cfg["cutoff"])
    rows = []

    def record(name, deviation):
        rows.append({
            "check": name,
            "deviation": deviation,
            "threshold": FOCK_THRESHOLDS[name],
            "passed": deviation <= FOCK_THRESHOLDS[name],
        })

    if "identity" in cfg["checks"]:
        dev = oracle_check_transform(
            identity_map(1, 1), coherent_state(0.3, -0.2, cutoff),
            QuadraticHamiltonian(), 1.0,
        )
        record("identity", dev)
    if "beam_splitter" in cfg["checks"]:
        h, m = beam_splitter_pair(float(cfg["angle"]))
        dev = oracle_check_transform(m, FockState.number_state(1, 0, cutoff), h, 1.0)
        record("beam_splitter", dev)
    if "squeeze" in cfg["checks"]:
        h, m = squeeze_pair(float(cfg["squeeze"]), 1.0)
        dev = oracle_check_transform(m, FockState.vacuum(cutoff), h, 1.0)
        record("squeeze", dev)
    if "observables" in cfg["checks"]:
        h, _ = squeeze_pair(float(cfg["squeeze"]), 1.0)
        state = evolve(FockState.vacuum(cutoff), h, 1.0)
        rf, _ = measure_rsf(state)
        lowered = [
            apply_ladder(state, 0, "lower").amplitudes.ravel(),
            apply_ladder(state, 1, "lower").amplitudes.ravel(),
        ]
        rng = np.random.default_rng(int(cfg["seed"]))
        dev = 0.0
        for _ in range(20):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            o = 0.5 * (z + z.conj().T)
            direct = sum(
                o[k, kp] * np.vdot(lowered[k], lowered[kp])
                for k in range(2)
                for kp in range(2)
            ).real
            dev = max(dev, float(abs(expect_additive(rf, o) - direct)))
        record("observables", dev)

    failures = [r["check"] for r in rows if not r["passed"]]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "fock_check.csv",
        ("check", "deviation", "threshold", "passed"),
        rows,
    )
    summary = {r["check"]: r["deviation"] for r in rows}
    return RunReport(rows=rows, summary=summary, ok=not failures, failures=failures)


EXTRACT_COLUMNS = (
    "T", "h", "gamma_up", "h_extracted", "gamma_up_extracted",
    "gamma_down_extracted", "gamma_up_min_eig", "gamma_down_min_eig", "valid",
)


def run_extract(cfg: dict, out_dir: Path) -> RunReport:
    s = build_scenario(cfg)
    cols = _casimir_columns(s, cfg)
    validity = validity_report(
        cols["T"], cols["gamma_up_extracted"][:, None, None],
        cols["gamma_down_extracted"][:, None, None],
    )
    cols["gamma_up_min_eig"] = validity.gamma_up_min_eig
    cols["gamma_down_min_eig"] = validity.gamma_down_min_eig
    cols["valid"] = validity.valid
    dev_h = float(np.max(np.abs(cols["h"] - cols["h_extracted"])))
    dev_g = float(np.max(np.abs(cols["gamma_up"] - cols["gamma_up_extracted"])))
    failures = []
    if dev_h > EXTRACTION_LIMIT * s.omega:
        failures.append("extraction_h_agreement")
    if dev_g > EXTRACTION_LIMIT * s.omega:
        failures.append("extraction_gamma_agreement")
    summary = {
        "max_h_deviation": dev_h,
        "max_gamma_deviation": dev_g,
        "all_valid": validity.all_valid,
        "worst_time": validity.worst_time,
        "worst_witness": validity.worst_witness,
    }
    rows = _rows(cols)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "extract.csv", EXTRACT_COLUMNS, rows)
    return RunReport(rows=rows, summary=summary, ok=not failures, failures=failures)


def _print_report(name: str, report: RunReport) -> None:
    print(f"[{name}] {'OK' if report.ok else 'FAILED'}")
    for key, value in report.summary.items():
        print(f"  {key}: {value}")
    for failure in report.failures:
        print(f"  violated: {failure}")


RUNNERS = {"casimir": run_casimir, "sweep": run_sweep, "amplify": run_amplify,
           "fock-check": run_fock_check, "extract": run_extract}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsfield",
        description="moving-medium photon production and reduced-field checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        if name != "fock-check":
            p.add_argument("--config", required=True, help="JSON config path")
        else:
            p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default=None,
                       help="output directory (default: config out_dir or ./out)")
        p.add_argument("--rel-tol", type=float, default=None,
                       help="override integrator relative tolerance")
        p.add_argument("--samples", type=int, default=None,
                       help="override sample count")
    return parser


def _resolve_out(args, cfg) -> Path:
    configured = cfg.get("out_dir") if isinstance(cfg, dict) else None
    return Path(args.out or configured or "out")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else None
        if args.command in ("casimir", "sweep", "extract"):
            cfg = parse_casimir_config(cfg)
            if args.rel_tol is not None:
                cfg["rel_tol"] = args.rel_tol
            if args.samples is not None:
                if args.samples < 2:
                    raise ConfigError("samples must be an integer >= 2")
                cfg["samples"] = args.samples
        report = RUNNERS[args.command](cfg, _resolve_out(args, cfg))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RsfieldError as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _print_report(args.command, report)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
