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
default.  Every CSV goes through ``csvtext.write_csv``, which writes each
float exactly as ``f"{v:.17g}"``: a table of 256 or more floats and booleans
gets its digits from numpy, and Python formats a smaller table and any value
next to a rounding tie, non-finite, or nonzero outside [1e-280, 1e280].  The
integrator is deterministic, so identical configs produce bitwise
identical CSVs.  A run is one dict of column arrays, from the solution to
the CSV and the summary; ``_gates`` compares every invariant with its limit,
and a violating run still writes both before it names the invariant, value,
limit and time.  The CCR and symplectic limits, and the roundoff floor
of the extraction-rate limits, are
``symplectic.roundoff_limit``, the limit the library's ``BogoliubovMap``
uses: 1e-8, or 256 eps times the photon-number scale where that is larger;
the classicality columns are ``symplectic.classical_mask``'s.
Every numeric config key goes through ``_number``, so a malformed value is
a configuration error; ``parse_casimir_config`` turns the scenario keys
into the run's one ``CasimirScenario``, which a sweep point varies.  Exit status: 0 all checks passed, 1 an invariant or
threshold failed (or the solver gave up), 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from dataclasses import dataclass, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from .amplifier import AmplifierSpec, amplified_rsf, amplifier_generators
from .casimir import (
    CasimirScenario,
    ModeSolution,
    VelocityProfile,
    casimir_maps,
    closed_form_generators,
    extracted_generators,
    floquet_exponent,
    growth_law_residual,
    solve_modes,
)
from .csvtext import write_csv as _write_csv
from .errors import ConfigError, RsfieldError
from .fock import (
    BOUNDARY_POST_TOL,
    BOUNDARY_PRE_TOL,
    FockState,
    QuadraticHamiltonian,
    apply_ladder,
    beam_splitter_pair,
    coherent_state,
    measure_rsf,
    oracle_check_transform,
    squeeze_pair,
)
from .kinetics import integrate_kinetics, validity_report
from .numerics import max_abs
from .rsf import expect_additive, vacuum
from .symplectic import SYMPLECTIC_TOL, classical_mask, identity_map, roundoff_limit

EXTRACTION_LIMIT = 1e-7  # relative to omega
GAMMA_DOWN_LIMIT = 1e-8  # relative to omega
GROWTH_LIMIT = 1e-6  # relative to the peak density rate
AMPLIFY_LIMIT = 1e-8

CSV_COLUMNS = (
    "T", "re_fRp", "im_fRp", "re_fRm", "im_fRm", "re_fLp", "im_fLp",
    "re_fLm", "im_fLm", "phi", "n_density", "ccr_residual", "h", "gamma_up",
    "gamma_up_extracted", "gamma_down_extracted", "growth_residual",
    "classical_closed", "classical_open",
)


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


def _number(value, name: str, integer: bool = False):
    """``value`` of config key ``name`` as a finite float, or with ``integer``
    as an int (``12``, ``12.0`` and ``"12"`` alike, not ``12.7``); anything
    else is a ``ConfigError``, not a traceback."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if not integer:
        return number
    if not number.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)  # exact for large ints and integer strings
    except ValueError:  # "1e3"
        return int(number)


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
    "rel_tol": 1e-11,
    "abs_tol": 1e-13,
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
    """The checked config of a ``casimir``, ``sweep`` or ``extract`` run: its
    keys, with the scenario keys replaced by the ``CasimirScenario`` they
    make, under ``"scenario"``."""
    out = _require_keys(cfg, CASIMIR_KEYS, "config")
    prof = _require_keys(out["profile"], PROFILE_KEYS, "config.profile")
    out["profile"] = VelocityProfile(kind=prof["kind"], **{
        key: _number(prof[key], f"config.profile.{key}") for key in PROFILE_KEYS if key != "kind"
    })
    for key in ("refractive_index", "omega", "theta", "t_end", "rel_tol", "abs_tol"):
        out[key] = _number(out[key], f"config.{key}")
    if out["rel_tol"] <= 0 or out["abs_tol"] <= 0:
        raise ConfigError("config.rel_tol and config.abs_tol must be positive")
    if not isinstance(out["sigma"], str):  # "auto", or a name CasimirScenario rejects
        out["sigma"] = _number(out["sigma"], "config.sigma")
    out["samples"] = _number(out["samples"], "config.samples", integer=True)
    if out["samples"] < 2:
        raise ConfigError("samples must be an integer >= 2")
    if out["sweep"] is not None:
        out["sweep"] = _require_keys(
            out["sweep"], {axis: None for axis in SWEEP_AXES}, "config.sweep"
        )
    out["scenario"] = CasimirScenario(**{
        f.name: out.pop(f.name) for f in fields(CasimirScenario) if f.init
    })
    return out


@dataclass
class RunReport:
    columns: dict
    summary: dict
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class Gate:
    """One invariant of a run at its worst sample: the one where the residual
    is largest relative to its limit."""

    value: float
    limit: float
    time: float

    @property
    def ok(self) -> bool:
        return abs(self.value) <= self.limit


def _gate(times: np.ndarray, residual, limit) -> Gate:
    """``residual`` against ``limit`` at every sample; ``residual`` may stack
    several residuals, ``(k, samples)``.  A zero limit takes a verdict column
    (1 where the sample fails); its first failing sample is the worst."""
    res = np.asarray(residual, dtype=float)
    mag = np.abs(res)
    lim = np.broadcast_to(np.asarray(limit, dtype=float), res.shape)
    ratio = np.divide(mag, lim, out=np.where(mag > 0.0, np.inf, 0.0), where=lim > 0.0)
    worst = np.unravel_index(np.argmax(ratio), res.shape)
    return Gate(float(res[worst]), float(lim[worst]), float(times[worst[-1]]))


def _rate_roundoff(cols: dict, omega: float, floor: float = 0.0) -> np.ndarray:
    """The limit of an extracted rate per sample: the CCR's roundoff,
    256 eps (|f_R+|^2 + |f_R-|^2), in units of omega, above ``floor``."""
    return roundoff_limit(cols["_photon_sum"] * omega, floor)


def _gates(cols: dict, omega: float) -> dict:
    """Every invariant of a ``casimir`` run as a ``Gate``, by name; the only
    place where one is compared with its limit."""
    t = cols["T"]
    growth = max(GROWTH_LIMIT * float(np.max(np.abs(cols["_growth_rate"]))), 1e-12 * omega)
    return {
        "ccr_invariant": _gate(
            t, cols["ccr_residual"], roundoff_limit(cols["_photon_sum"], SYMPLECTIC_TOL),
        ),
        "symplectic_residual": _gate(
            t, cols["_symplectic_residual"],
            roundoff_limit(cols["_map_scale"], SYMPLECTIC_TOL),
        ),
        "open_classicality": _gate(t, ~cols["classical_open"], 0.0),
        "extraction_h_agreement": _gate(
            t, cols["h"] - cols["h_extracted"], EXTRACTION_LIMIT * omega,
        ),
        "extraction_gamma_agreement": _gate(
            t, cols["gamma_up"] - cols["gamma_up_extracted"],
            _rate_roundoff(cols, omega, EXTRACTION_LIMIT * omega),
        ),
        "extraction_gamma_down_zero": _gate(
            t, cols["gamma_down_extracted"],
            _rate_roundoff(cols, omega, GAMMA_DOWN_LIMIT * omega),
        ),
        "growth_law": _gate(t, cols["growth_residual"], growth),
    }


def _violations(gates: dict) -> list:
    """The failed gates, each with its worst value, limit and time."""
    return [
        f"{name} (value {g.value:.3e}, limit {g.limit:.3e}, t={g.time:.6g})"
        for name, g in gates.items() if not g.ok
    ]


def _solve(cfg: dict) -> ModeSolution:
    return solve_modes(cfg["scenario"], cfg["samples"], rtol=cfg["rel_tol"], atol=cfg["abs_tol"])


def _casimir_columns(sol: ModeSolution) -> dict:
    """Every per-sample quantity of one run, as arrays over the sample axis;
    ``casimir`` and ``extract`` both select their CSV columns from it, and
    the names starting with ``_`` feed only the gates and the summary."""
    x, symplectic = casimir_maps(sol)
    # the map's entries are f_R+ and f_R- times unit phases, in the system
    # row and the environment row alike, so both of its scales, as in
    # ``symplectic.BogoliubovMap``, are max(|f_R+|^2, |f_R-|^2);
    # |f_R+|^2 + |f_R-|^2 scales the CCR and extraction-rate limits
    f_lp, f_lm = sol.f_lp, sol.f_lm
    rp, rm = (f.real ** 2 + f.imag ** 2 for f in (sol.f_rp, sol.f_rm))
    scale = np.maximum(rp, rm)
    h, gamma_up = closed_form_generators(sol)
    ext_h, ext_up, ext_down = extracted_generators(sol)
    growth = growth_law_residual(sol, gamma_up=gamma_up)
    return {
        "T": sol.times,
        "re_fRp": sol.f_rp.real, "im_fRp": sol.f_rp.imag,
        "re_fRm": sol.f_rm.real, "im_fRm": sol.f_rm.imag,
        "re_fLp": f_lp.real, "im_fLp": f_lp.imag,
        "re_fLm": f_lm.real, "im_fLm": f_lm.imag,
        "phi": sol.phi,
        "n_density": sol.density(),
        "ccr_residual": sol.ccr_residual,
        "h": h,
        "gamma_up": gamma_up,
        "h_extracted": ext_h[:, 0, 0].real,
        "gamma_up_extracted": ext_up[:, 0, 0].real,
        "gamma_down_extracted": ext_down[:, 0, 0].real,
        "growth_residual": growth.residuals,
        "classical_closed": classical_mask(x, 2),
        "classical_open": classical_mask(x, 1),
        "_symplectic_residual": symplectic,
        "_map_scale": scale,
        "_photon_sum": rp + rm,
        "_growth_rate": growth.density_rate,
    }


def run_casimir(cfg: dict, out_dir: Path, csv_name: str = "casimir.csv") -> RunReport:
    sol = _solve(cfg)
    cols = _casimir_columns(sol)
    gates = _gates(cols, sol.scenario.omega)
    summary = {
        "final_photon_density": float(cols["n_density"][-1]),
        "max_ccr_residual": float(np.max(np.abs(cols["ccr_residual"]))),
        "max_symplectic_residual": float(np.max(cols["_symplectic_residual"])),
        "classical_closed_final": bool(cols["classical_closed"][-1]),
        "classical_open_always": bool(np.all(cols["classical_open"])),
        "gamma_up_min": float(np.min(cols["gamma_up"])),
        "growth_law_max_residual": float(np.max(cols["growth_residual"])),
        "growth_law_bound": gates["growth_law"].limit,
        "extraction_max_h_deviation": float(np.max(np.abs(cols["h"] - cols["h_extracted"]))),
        "extraction_max_gamma_deviation": float(
            np.max(np.abs(cols["gamma_up"] - cols["gamma_up_extracted"]))
        ),
        "extraction_max_gamma_down": float(np.max(np.abs(cols["gamma_down_extracted"]))),
        "endpoint_velocity_mismatch": sol.endpoint_velocity_mismatch(),
        "floquet_exponent": floquet_exponent(sol),
        "route": sol.route,
        "steps": sol.steps,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / csv_name, {c: cols[c] for c in CSV_COLUMNS})
    return RunReport(columns=cols, summary=summary, failures=_violations(gates))


def sweep_grid(cfg: dict) -> list:
    s = cfg["scenario"]
    defaults = {"omega": s.omega, "theta": s.theta,
                "drive_frequency": s.profile.drive_frequency, "beta0": s.profile.beta0}
    axes = []
    for axis in SWEEP_AXES:
        values = (cfg["sweep"] or {}).get(axis)
        if values is None:
            values = [defaults[axis]]
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"sweep.{axis} must be a nonempty list")
        axes.append([_number(v, f"config.sweep.{axis}") for v in values])
    return [
        {"omega": w, "theta": th, "drive_frequency": dr, "beta0": b}
        for w, th, dr, b in product(*axes)
    ]


def run_sweep(cfg: dict, out_dir: Path) -> RunReport:
    grid = sweep_grid(cfg)
    s = cfg["scenario"]
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [f"casimir_{index:03d}.csv" for index in range(len(grid))]
    density, status, failures = [], [], []
    for index, (point, name) in enumerate(zip(grid, names)):
        try:
            # a point the scenario rejects (a superluminal beta0) is an error row
            profile = replace(s.profile, beta0=point["beta0"],
                              drive_frequency=point["drive_frequency"])
            scenario = replace(s, omega=point["omega"], theta=point["theta"], profile=profile)
            report = run_casimir({**cfg, "scenario": scenario}, out_dir, csv_name=name)
        except RsfieldError as exc:
            status.append("error")
            density.append(float("nan"))
            failures.append(f"point {index}: {type(exc).__name__}: {exc}")
        else:
            status.append("ok" if report.ok else "invariant_violation")
            density.append(report.summary["final_photon_density"])
            if not report.ok:
                failures.append(f"point {index}: {','.join(report.failures)}")
    columns = {
        "index": list(range(len(grid))),
        **{axis: [point[axis] for point in grid] for axis in SWEEP_AXES},
        "final_photon_density": density,
        "status": status,
        "csv": names,
    }
    _write_csv(out_dir / "sweep_summary.csv", columns)
    solved = [i for i, st in enumerate(status) if st != "error"]
    best = max(solved, key=density.__getitem__) if solved else None
    summary = {
        "points": len(grid),
        "failed_points": len(failures),
        "best_index": best if best is not None else -1,
        "best_final_photon_density": density[best] if best is not None else float("nan"),
    }
    if best is not None:
        summary["best_point"] = dict(grid[best])
    return RunReport(columns=columns, summary=summary, failures=failures)


AMPLIFY_KEYS = {
    "kappa": ...,
    "m": ...,
    "t_end": 1.0,
    "samples": 11,
    "out_dir": None,
}


def run_amplify(cfg: dict, out_dir: Path) -> RunReport:
    cfg = _require_keys(cfg, AMPLIFY_KEYS, "config")
    rates = {}
    for key in ("kappa", "m"):  # a number, or a list of them, one per mode
        values = cfg[key] if isinstance(cfg[key], list) else [cfg[key]]
        rates[key] = [_number(v, f"config.{key}") for v in values]
    try:
        spec = AmplifierSpec(**rates)
    except RsfieldError as exc:
        raise ConfigError(f"config.kappa/m: {exc}") from exc
    samples = _number(cfg["samples"], "config.samples", integer=True)
    if samples < 2:
        raise ConfigError("samples must be an integer >= 2")
    t_end = _number(cfg["t_end"], "config.t_end")
    if t_end < 0:
        raise ConfigError(f"config.t_end must be nonnegative, got {t_end}")
    times = np.linspace(0.0, t_end, samples)
    rf0, _ = vacuum(spec.n_modes)
    snaps = integrate_kinetics(rf0, amplifier_generators(spec), (0.0, t_end), times)
    deviation, closed_number = [], []
    for t, snap in zip(times, snaps):
        closed = amplified_rsf(spec, rf0, float(t))
        scale = 1.0 + max_abs(closed.r)
        deviation.append(max(
            max_abs(snap.r - closed.r) / scale,
            max_abs(snap.alpha - closed.alpha) / scale,
        ))
        closed_number.append(np.trace(closed.r).real)
    columns = {
        "t": times,
        "relative_deviation": deviation,
        "closed_total_number": closed_number,
        "kinetic_total_number": [np.trace(snap.r).real for snap in snaps],
    }
    summary = {"max_relative_deviation": max(deviation), "threshold": AMPLIFY_LIMIT}
    gates = {"closed_form_mismatch": _gate(times, deviation, AMPLIFY_LIMIT)}
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "amplify.csv", columns)
    return RunReport(columns=columns, summary=summary, failures=_violations(gates))


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


def _observables_deviation(state: FockState, rf, seed: int) -> float:
    """The largest |tr(r o) - <psi| sum_kk' o_kk' a_k^dag a_k' |psi>| over 20
    random Hermitian 2x2 observables o, r from ``rf``.  The brute-force side
    takes the four moments <psi| a_k^dag a_k' psi> by raising the lowered
    states (``apply_ladder``) and overlapping them with psi, not from the
    Gram matrix of lowered states that ``measure_rsf`` builds r from."""
    psi = state.amplitudes.ravel()
    lowered = [apply_ladder(state, k, "lower") for k in range(2)]
    moments = np.array([
        [np.vdot(psi, apply_ladder(lowered[kp], k, "raise").amplitudes.ravel())
         for kp in range(2)]
        for k in range(2)
    ])
    # 20 complex 2x2 matrices of standard normal parts from stdlib ``random``:
    # importing ``numpy.random`` would cost more than the draws
    rng = random.Random(seed)
    draws = np.array([rng.gauss(0.0, 1.0) for _ in range(160)]).view(complex)
    dev = 0.0
    for z in draws.reshape(20, 2, 2):
        o = 0.5 * (z + z.conj().T)
        dev = max(dev, float(abs(expect_additive(rf, o) - np.sum(o * moments).real)))
    return dev


def run_fock_check(cfg: dict | None, out_dir: Path) -> RunReport:
    cfg = _require_keys({} if cfg is None else cfg, FOCK_KEYS, "config")
    checks = cfg["checks"]
    if not (isinstance(checks, list) and checks and all(isinstance(c, str) for c in checks)):
        raise ConfigError(f"config.checks must be a nonempty list of check names, got {checks!r}")
    unknown = set(checks) - set(FOCK_THRESHOLDS)
    if unknown:
        raise ConfigError(f"unknown fock checks: {', '.join(sorted(unknown))}")
    cutoff = _number(cfg["cutoff"], "config.cutoff", integer=True)
    if cutoff < 2:
        raise ConfigError(f"config.cutoff must be at least 2, got {cutoff}")
    seed = _number(cfg["seed"], "config.seed", integer=True)
    squeeze = _number(cfg["squeeze"], "config.squeeze")
    angle = _number(cfg["angle"], "config.angle")
    # one turn holds every beam-splitter map; the evolution's work grows with |angle|
    if not abs(angle) <= 2.0 * math.pi:
        raise ConfigError(f"config.angle must lie in [-2 pi, 2 pi], got {angle}")
    # the squeezed vacuum holds tanh^{2(cutoff+1)} |squeeze| beyond the cutoff;
    # only the squeeze check reads the value
    beyond = math.tanh(abs(squeeze)) ** (2 * (cutoff + 1))
    if "squeeze" in checks and not beyond <= BOUNDARY_POST_TOL:
        raise ConfigError(
            f"config.squeeze {squeeze} leaves {beyond:.3e} of the squeezed vacuum beyond "
            f"cutoff {cutoff}, above {BOUNDARY_POST_TOL:g}; lower it or raise the cutoff"
        )
    # the coherent states of identity and observables, each held to the
    # boundary gate it meets first: evolve's on entry, or the moments'
    states = {}
    for check, z2, tol in (("identity", -0.2, BOUNDARY_PRE_TOL),
                           ("observables", 0.2j, BOUNDARY_POST_TOL)):
        if check in checks:
            states[check] = coherent_state(0.3, z2, cutoff)
            edge = states[check].boundary_population()
            if not edge <= tol:
                raise ConfigError(
                    f"config.cutoff {cutoff} leaves {edge:.3e} of the {check} check's "
                    f"coherent state on its boundary shell, above {tol:g}; raise the cutoff"
                )
    deviation = {}
    if "identity" in checks:
        deviation["identity"] = oracle_check_transform(
            identity_map(1, 1), states["identity"], QuadraticHamiltonian(), 1.0,
        )
    if "beam_splitter" in checks:
        h, m = beam_splitter_pair(angle)
        deviation["beam_splitter"] = oracle_check_transform(
            m, FockState.number_state(1, 0, cutoff), h, 1.0,
        )
    if "squeeze" in checks:
        h, m = squeeze_pair(squeeze, 1.0)
        deviation["squeeze"] = oracle_check_transform(m, FockState.vacuum(cutoff), h, 1.0)
    if "observables" in checks:
        # z1 conj(z2) is not real, so r_01 = <a_1^dag a_0> is complex and a
        # transposed or conjugated r shows in the deviation
        state = states["observables"]
        deviation["observables"] = _observables_deviation(state, measure_rsf(state)[0], seed)

    checks = list(deviation)
    columns = {
        "check": checks,
        "deviation": [deviation[c] for c in checks],
        "threshold": [FOCK_THRESHOLDS[c] for c in checks],
        "passed": [deviation[c] <= FOCK_THRESHOLDS[c] for c in checks],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "fock_check.csv", columns)
    failures = [c for c, passed in zip(checks, columns["passed"]) if not passed]
    return RunReport(columns=columns, summary=deviation, failures=failures)


EXTRACT_COLUMNS = (
    "T", "h", "gamma_up", "h_extracted", "gamma_up_extracted",
    "gamma_down_extracted", "gamma_up_min_eig", "gamma_down_min_eig", "valid",
)


# the gates of extract; the growth law and open classicality are casimir's
EXTRACT_GATES = (
    "ccr_invariant", "symplectic_residual",
    "extraction_h_agreement", "extraction_gamma_agreement",
)


def run_extract(cfg: dict, out_dir: Path) -> RunReport:
    sol = _solve(cfg)
    cols = _casimir_columns(sol)
    validity = validity_report(
        cols["T"], cols["gamma_up_extracted"][:, None, None],
        cols["gamma_down_extracted"][:, None, None],
        floor=_rate_roundoff(cols, sol.scenario.omega),
    )
    cols["gamma_up_min_eig"] = validity.gamma_up_min_eig
    cols["gamma_down_min_eig"] = validity.gamma_down_min_eig
    cols["valid"] = validity.valid
    gates = _gates(cols, sol.scenario.omega)
    summary = {
        "max_h_deviation": float(np.max(np.abs(cols["h"] - cols["h_extracted"]))),
        "max_gamma_deviation": float(
            np.max(np.abs(cols["gamma_up"] - cols["gamma_up_extracted"]))
        ),
        "all_valid": validity.all_valid,
        "worst_time": validity.worst_time,
        "worst_witness": validity.worst_witness,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "extract.csv", {c: cols[c] for c in EXTRACT_COLUMNS})
    failures = _violations({name: gates[name] for name in EXTRACT_GATES})
    return RunReport(columns=cols, summary=summary, failures=failures)


def _print_report(name: str, report: RunReport) -> None:
    print(f"[{name}] {'OK' if report.ok else 'FAILED'}")
    for key, value in report.summary.items():
        print(f"  {key}: {value}")
    for failure in report.failures:
        print(f"  violated: {failure}")


CASIMIR_COMMANDS = ("casimir", "sweep", "extract")
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
        p.add_argument("--config", required=name != "fock-check", help="JSON config path")
        p.add_argument("--out", default=None,
                       help="output directory (default: config out_dir or ./out)")
        if name in CASIMIR_COMMANDS:
            p.add_argument("--rel-tol", type=float, default=None,
                           help="override integrator relative tolerance")
        if name != "fock-check":
            p.add_argument("--samples", type=int, default=None,
                           help="override sample count")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first call of ``main`` and reused: a
    parse leaves the parser as it was, and building one costs about 1 ms."""
    return build_parser()


def _resolve_out(args, cfg) -> Path:
    configured = cfg.get("out_dir") if isinstance(cfg, dict) else None
    if configured is not None and not isinstance(configured, str):
        raise ConfigError(f"config.out_dir must be a path string, got {configured!r}")
    return Path(args.out or configured or "out")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else None
        # flags override config keys before validation, so one check covers both
        overrides = {key: value for key, value in vars(args).items()
                     if key in ("rel_tol", "samples") and value is not None}
        if overrides and isinstance(cfg, dict):
            cfg = {**cfg, **overrides}
        if args.command in CASIMIR_COMMANDS:
            cfg = parse_casimir_config(cfg)
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
