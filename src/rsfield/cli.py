"""Scenario runner: configure, execute and export production runs.

Subcommands (console script ``rsfield``):

* ``casimir``    -- one moving-medium run; per-sample CSV plus summary.
* ``sweep``      -- grid of runs over (omega, theta, drive_frequency,
                    beta0); one CSV per point plus ``sweep_summary.csv``.
* ``amplify``    -- closed-form amplification vs kinetic integration.
* ``fock-check`` -- truncated-Fock oracle catalog.
* ``extract``    -- generator trajectory (closed form and generic
                    extraction) with validity witnesses.

``COMMANDS`` is the one table keyed by command name: each command's
flags and their types, its config parser and its runner.  The flags make
the argv grammar, the usage lines and the argv errors (``_parse_argv``):
``--flag value`` or ``--flag=value``, no abbreviations, and exit 2 with the
usage line on any argv error.  ``main`` reads argv, loads the JSON config,
lets the flags override its keys and parses it whole before the runner
starts: every configuration error, an out-of-budget ``samples`` or
``cutoff`` included, exits 2 before any output is written, and a runner
takes only a parsed config and raises no ``ConfigError``.

Configuration is a single JSON document; unknown keys are rejected so that
a typo in a physics parameter cannot silently fall back to a default, and
so is a key that the run would not read: a profile key of another kind, or
a ``sweep`` outside the ``sweep`` command.  The run types are the schema:
a profile's, a scenario's and an amplifier's keys, order and defaults are
the fields of ``VelocityProfile``, ``CasimirScenario`` and
``AmplifierSpec`` (``_fields``), and a profile reads only the keys of its
kind (``casimir.PROFILE_KINDS``).  Every CSV goes through
``csvtext.write_csv``, which writes each float exactly as ``f"{v:.17g}"``:
a table of floats and booleans gets its digits from numpy, and Python
formats a table with a str or int column and any value next to a rounding
tie, non-finite, or nonzero outside [1e-280, 1e280].  The integrator is
deterministic, so identical configs produce bitwise identical CSVs.  A run
is one dict of column arrays, from the solution to the CSV and the
summary.  Every check of every command is one ``Gate`` of
``RunReport.gates`` (``_gates`` compares each casimir invariant with its
limit), printed once as its value, limit and time; the summary restates
none, and a violating run still writes its CSV before it names the gate.
The CCR and symplectic limits, and the roundoff floor of the
extraction-rate limits, are ``symplectic.roundoff_limit``, the limit the
library's ``BogoliubovMap`` uses: 1e-8, or 256 eps times the photon-number
scale where that is larger; the classicality columns and gates are
``symplectic.classicality``'s.  Every numeric config key goes through
``_number``, so a malformed value is a configuration error;
``parse_casimir_config`` turns the scenario keys into the run's one
``CasimirScenario``, which a sweep point varies.  Exit status: 0 all
checks passed, 1 a check failed (or the solver gave up, or a CSV could not
be written), 2 configuration error.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import product
from pathlib import Path
from typing import NoReturn

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
    kind_keys,
    solve_modes,
)
from .csvtext import write_csv as _write_csv
from .errors import ConfigError, RsfieldError
from .fock import (
    BOUNDARY_POST_TOL,
    BOUNDARY_PRE_TOL,
    DEFAULT_CUTOFF,
    FockState,
    QuadraticHamiltonian,
    apply_ladder,
    beam_splitter_pair,
    coherent_moments,
    coherent_state,
    evolve,
    measure_rsf,
    oracle_check_transform,
    oracle_deviation,
    squeeze_pair,
)
from .kinetics import integrate_kinetics, validity_report
from .numerics import matrix_max
from .rsf import expect_additive, vacuum
from .symplectic import SYMPLECTIC_TOL, classicality, identity_map, roundoff_limit

EXTRACTION_LIMIT = 1e-7  # relative to omega
GAMMA_DOWN_LIMIT = 1e-8  # relative to omega
AMPLIFY_LIMIT = 1e-8
# the most relative change t_end |g - 2 kappa| that the kinetic route's rounded
# rate g = 2 kappa (1 + m) - 2 kappa m may make in an amplify occupation
AMPLIFY_RATE_TOL = 1e-6

CSV_COLUMNS = (
    "T", "re_fRp", "im_fRp", "re_fRm", "im_fRm", "re_fLp", "im_fLp",
    "re_fLm", "im_fLm", "phi", "n_density", "ccr_residual", "h", "gamma_up",
    "gamma_up_extracted", "gamma_down_extracted", "growth_residual",
    "classical_closed", "classical_open",
)


def _require_keys(cfg: dict, allowed: dict, where: str) -> dict:
    """Reject unknown keys and fill defaults; ``allowed`` maps key -> default
    (``...`` marks a required key).  An ``out_dir`` must be a path string."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    missing = [key for key, default in allowed.items() if default is ... and key not in cfg]
    if missing:
        raise ConfigError(f"missing required key '{missing[0]}' in {where}")
    out = {key: cfg.get(key, default) for key, default in allowed.items()}
    if not isinstance(out.get("out_dir"), (str, type(None))):
        raise ConfigError(f"{where}.out_dir must be a path string, got {out['out_dir']!r}")
    return out


def _number(value, name: str, integer: bool = False, most: float = math.inf):
    """``value`` of config key ``name`` as a finite float no larger than
    ``most``, or with ``integer`` as an int (``12``, ``12.0`` and ``"12"``
    alike, not ``12.7``); anything else, a JSON boolean included, is a
    ``ConfigError``, not a traceback."""
    if isinstance(value, bool):  # float(True) would read it as 1
        raise ConfigError(f"{name} must be a number, got the boolean {json.dumps(value)}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if number > most:
        raise ConfigError(f"{name} must be at most {most}, got {value!r}")
    if not integer:
        return number
    if not number.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)  # exact for large ints and integer strings
    except ValueError:  # "1e3"
        return int(number)


def _fields(cls) -> dict:
    """The key table of the fields that dataclass ``cls`` takes: name ->
    default, ``...`` where a field has none."""
    return {f.name: ... if f.default is MISSING else f.default for f in fields(cls) if f.init}


# the keys of a profile object; a profile takes kind, beta0 and the keys its
# kind reads (``casimir.PROFILE_KINDS``)
PROFILE_KEYS = _fields(VelocityProfile)

CASIMIR_KEYS = {**_fields(CasimirScenario), "samples": 201, "rel_tol": 1e-11, "abs_tol": 1e-13,
                "out_dir": None}

SWEEP_AXES = ("omega", "theta", "drive_frequency", "beta0")


def load_config(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no UTF-8, no permission
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config {p}: {reason}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


# The bytes a run may peak at.  Each parser bounds its size keys by the peak
# memory per unit they scale, measured as the growth of peak RSS between two
# sizes in fresh processes (2 vCPU Xeon, Python 3.11, numpy 2.4) and rounded
# up to a power of two: ``samples`` of ``casimir``, ``sweep`` and ``extract``
# at 1.3 KB per sample (2048 B), of ``amplify`` at 4.5 times its (samples,
# d, d) complex interval maps (8 x 16 d^2 B), and ``cutoff`` at 13.7 arrays
# of the (cutoff + 1)^2 complex Fock amplitudes (16 x 16 B per amplitude).
ARRAY_BUDGET = 2**30


def _samples(value, row_bytes: int) -> int:
    """Config key ``samples`` as an integer >= 2 whose run, at ``row_bytes``
    bytes per sample, fits ``ARRAY_BUDGET``."""
    samples = _number(value, "config.samples", integer=True, most=ARRAY_BUDGET // row_bytes)
    if samples < 2:
        raise ConfigError("samples must be an integer >= 2")
    return samples


def parse_casimir_config(cfg: dict) -> dict:
    """The checked config of a ``casimir`` or ``extract`` run: its keys, with the
    scenario keys replaced by the ``CasimirScenario`` they make, under
    ``"scenario"``.  A key that the run would not read, one of another
    profile kind or a ``sweep``, is unknown."""
    out = _require_keys(cfg, CASIMIR_KEYS, "config")
    # the profile's keys are checked against its kind's before any value is read
    given = out["profile"]
    kind = _require_keys(given, PROFILE_KEYS, "config.profile")["kind"]
    reads = ("beta0", *kind_keys(kind))
    _require_keys(given, dict.fromkeys(("kind", *reads)), f"config.profile of kind {kind}")
    out["profile"] = VelocityProfile(kind, **{
        key: _number(given[key], f"config.profile.{key}") for key in reads if key in given
    })
    for key in ("refractive_index", "omega", "theta", "t_end", "rel_tol", "abs_tol"):
        out[key] = _number(out[key], f"config.{key}")
    if out["rel_tol"] <= 0 or out["abs_tol"] <= 0:
        raise ConfigError("config.rel_tol and config.abs_tol must be positive")
    if not isinstance(out["sigma"], str):  # "auto", or a name CasimirScenario rejects
        out["sigma"] = _number(out["sigma"], "config.sigma")
    out["samples"] = _samples(out["samples"], 2048)
    out["scenario"] = CasimirScenario(**{key: out.pop(key) for key in _fields(CasimirScenario)})
    return out


@dataclass(frozen=True)
class Gate:
    """One check of a run at its worst sample: the one where the residual is
    largest relative to its limit.  ``str`` is the one rendering of a gate,
    in its report line and in its ``violated:`` line."""

    value: float
    limit: float
    time: float

    @property
    def ok(self) -> bool:
        return abs(self.value) <= self.limit

    def __str__(self) -> str:
        return f"value {self.value:.3e}, limit {self.limit:.3e}, t={self.time:.6g}"


@dataclass
class RunReport:
    """A run's columns, its summary (physics verdicts and solver facts, no
    check) and every check as a ``Gate`` by name; a sweep names each point's
    gates ``point i: name`` and lists a point that raised under ``errors``."""

    columns: dict
    summary: dict
    gates: dict
    errors: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        """The violated gates, each with its worst value, limit and time, then
        the errors."""
        return [f"{name} ({g})" for name, g in self.gates.items() if not g.ok] + self.errors

    @property
    def ok(self) -> bool:
        return not self.failures


def _gate(times: np.ndarray, residual, limit) -> Gate:
    """``residual`` against ``limit`` (a scalar or one per sample) at every
    sample; the worst sample is the one of largest |residual| / limit, where
    a limit that underflowed to zero ranks a nonzero residual first."""
    res = np.asarray(residual, dtype=float)
    mag = np.abs(res)
    lim = np.broadcast_to(np.asarray(limit, dtype=float), res.shape)
    ratio = np.divide(mag, lim, out=np.where(mag > 0.0, np.inf, 0.0), where=lim > 0.0)
    worst = int(np.argmax(ratio))
    return Gate(float(res[worst]), float(lim[worst]), float(times[worst]))


def _rate_roundoff(cols: dict, omega: float, floor: float = 0.0) -> np.ndarray:
    """The limit of an extracted rate per sample: the CCR's roundoff,
    256 eps (|f_R+|^2 + |f_R-|^2), in units of omega, above ``floor``."""
    return roundoff_limit(cols["_photon_sum"] * omega, floor)


def _gates(cols: dict, omega: float) -> dict:
    """Every invariant of a ``casimir`` run as a ``Gate``, by name; the only
    place where one is compared with its limit."""
    t = cols["T"]
    return {
        "ccr_invariant": _gate(
            t, cols["ccr_residual"], roundoff_limit(cols["_photon_sum"], SYMPLECTIC_TOL),
        ),
        "symplectic_residual": _gate(
            t, cols["_symplectic_residual"],
            roundoff_limit(cols["_map_scale"], SYMPLECTIC_TOL),
        ),
        "open_classicality": _gate(t, cols["_open_residual"], cols["_open_limit"]),
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
        "growth_law": _gate(t, cols["growth_residual"], cols["_growth_limit"]),
    }


def _solve(cfg: dict) -> ModeSolution:
    return solve_modes(cfg["scenario"], cfg["samples"], rtol=cfg["rel_tol"], atol=cfg["abs_tol"])


def _casimir_columns(sol: ModeSolution) -> dict:
    """Every per-sample quantity of one run, as arrays over the sample axis;
    ``casimir`` and ``extract`` both select their CSV columns from it, and
    the names starting with ``_`` feed only the gates and the summary."""
    x, symplectic = casimir_maps(sol)
    # max|X_ij|^2 scales the symplectic limit, as in ``symplectic.BogoliubovMap``;
    # |f_R+|^2 + |f_R-|^2 scales the CCR and extraction-rate limits
    f_lp, f_lm = sol.f_lp, sol.f_lm
    rp, rm = (f.real ** 2 + f.imag ** 2 for f in (sol.f_rp, sol.f_rm))
    closed_residual, closed_limit = classicality(x, 2)
    open_residual, open_limit = classicality(x, 1)
    h, gamma_up = closed_form_generators(sol)
    ext_h, ext_up, ext_down = extracted_generators(sol)
    _, growth_residual, growth_limit = growth_law_residual(sol, gamma_up=gamma_up)
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
        "growth_residual": growth_residual,
        "classical_closed": closed_residual <= closed_limit,
        "classical_open": open_residual <= open_limit,
        "_open_residual": open_residual,
        "_open_limit": open_limit,
        "_symplectic_residual": symplectic,
        "_map_scale": matrix_max(np.abs(x)) ** 2,
        "_photon_sum": rp + rm,
        "_growth_limit": growth_limit,
    }


def run_casimir(cfg: dict, out_dir: Path, csv_name: str = "casimir.csv") -> RunReport:
    sol = _solve(cfg)
    cols = _casimir_columns(sol)
    summary = {
        "final_photon_density": float(cols["n_density"][-1]),
        "classical_closed_final": bool(cols["classical_closed"][-1]),
        "classical_open_always": bool(np.all(cols["classical_open"])),
        "gamma_up_min": float(np.min(cols["gamma_up"])),
        "final_instantaneous_density": sol.final_instantaneous_density(),
        "floquet_exponent": floquet_exponent(sol),
        "route": sol.route,
        "steps": sol.steps,
    }
    _write_csv(out_dir / csv_name, {c: cols[c] for c in CSV_COLUMNS})
    return RunReport(cols, summary, _gates(cols, sol.scenario.omega))


def parse_sweep_config(cfg: dict) -> dict:
    """``parse_casimir_config``'s config of all keys but ``sweep``, plus its
    ``"grid"``: every point of the sweep, a dict of the ``SWEEP_AXES``, an
    axis the sweep leaves out held at the scenario's value.  The sweep may
    not vary ``drive_frequency`` where the profile's kind does not read it."""
    out = parse_casimir_config({key: v for key, v in cfg.items() if key != "sweep"})
    s = out["scenario"]
    kind = s.profile.kind
    # the axes of the scenario and those of the profile that its kind reads,
    # None where the sweep leaves one out
    reads = ("beta0", *kind_keys(kind))
    sweep = _require_keys({} if cfg.get("sweep") is None else cfg["sweep"], dict.fromkeys(
        axis for axis in SWEEP_AXES if axis not in PROFILE_KEYS or axis in reads
    ), f"config.sweep over a {kind} profile")
    axes = []
    for axis in SWEEP_AXES:
        values = sweep.get(axis)
        if values is None:
            values = [getattr(s.profile if axis in PROFILE_KEYS else s, axis)]
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"sweep.{axis} must be a nonempty list")
        axes.append([_number(v, f"config.sweep.{axis}") for v in values])
    out["grid"] = [dict(zip(SWEEP_AXES, point)) for point in product(*axes)]
    return out


def run_sweep(cfg: dict, out_dir: Path) -> RunReport:
    grid = cfg["grid"]
    s = cfg["scenario"]
    names, density, status, gates, errors = [], [], [], {}, []
    for index, point in enumerate(grid):
        name = f"casimir_{index:03d}.csv"
        try:
            # a point the scenario rejects (a superluminal beta0) is an error
            # row, and writes no CSV
            profile = {axis: v for axis, v in point.items() if axis in PROFILE_KEYS}
            scenario = replace(s, profile=replace(s.profile, **profile),
                               **{axis: v for axis, v in point.items() if axis not in profile})
            report = run_casimir({**cfg, "scenario": scenario}, out_dir, csv_name=name)
        except RsfieldError as exc:
            name = ""
            status.append("error")
            density.append(float("nan"))
            errors.append(f"point {index}: {type(exc).__name__}: {exc}")
        else:
            status.append("ok" if report.ok else "invariant_violation")
            density.append(report.summary["final_photon_density"])
            gates.update({f"point {index}: {key}": g for key, g in report.gates.items()})
        names.append(name)
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
        "failed_points": len(grid) - status.count("ok"),
        "best_index": best if best is not None else -1,
        "best_final_photon_density": density[best] if best is not None else float("nan"),
    }
    if best is not None:
        summary["best_point"] = dict(grid[best])
    return RunReport(columns, summary, gates, errors)


AMPLIFY_KEYS = {**_fields(AmplifierSpec), "t_end": 1.0, "samples": 11, "out_dir": None}


def parse_amplify_config(cfg: dict) -> dict:
    """The checked config of an ``amplify`` run: its keys, plus the
    ``AmplifierSpec`` that ``kappa`` and ``m`` make, under ``"spec"``, and the
    gate's limit, under ``"limit"``.  Each mode's rate 2 kappa (1 + m) must be
    finite, and so must its occupation at ``t_end``, (1 + m)(exp(2 kappa
    t_end) - 1), times the larger of 2 and the number of modes.  The kinetic
    route grows a mode at its rounded rate g = 2 kappa (1 + m) - 2 kappa m,
    which moves the occupation at t by between t |g - 2 kappa| / 2 and
    t |g - 2 kappa| relative: the limit is the larger of ``AMPLIFY_LIMIT`` and
    twice the largest t_end |g - 2 kappa|, and an ``m`` that makes that
    change pass ``AMPLIFY_RATE_TOL`` has cost g its leading digits."""
    out = _require_keys(cfg, AMPLIFY_KEYS, "config")
    rates = {}
    for key in _fields(AmplifierSpec):  # a number, or a list of them, one per mode
        values = out[key] if isinstance(out[key], list) else [out[key]]
        rates[key] = [_number(v, f"config.{key}") for v in values]
    try:
        spec = out["spec"] = AmplifierSpec(**rates)
    except RsfieldError as exc:
        raise ConfigError(f"config.kappa/m: {exc}") from exc
    # d = (modes + 1)^2 is the size of the kinetic state y
    out["samples"] = _samples(out["samples"], 8 * 16 * (spec.n_modes + 1) ** 4)
    t_end = out["t_end"] = _number(out["t_end"], "config.t_end")
    if t_end < 0:
        raise ConfigError(f"config.t_end must be nonnegative, got {t_end}")
    # In Python floats, so that an overflow raises nothing but this error.
    # The kinetic route grows a mode at g = 2 kappa (1 + m) - 2 kappa m, not
    # finite where the rate is not, and moved away from 2 kappa by rounding
    # as m nears 2^53.  The larger exponent bounds a mode's occupation on both
    # routes, and r + r^dag and the trace of r add up two or all modes'
    # occupations.
    modes = list(zip(spec.kappa.tolist(), spec.m.tolist()))
    drift = 0.0
    for k, mj in modes:
        g = 2.0 * k * (1.0 + mj) - 2.0 * k * mj
        exponent = max(2.0 * k * t_end, g * t_end)
        try:
            occupation = (1.0 + mj) * math.expm1(exponent)
        except OverflowError:
            occupation = math.inf
        if not (math.isfinite(g) and math.isfinite(occupation * max(2, len(modes)))):
            raise ConfigError(f"config.kappa/m/t_end: a mode's rate 2 kappa (1 + m) or occupation "
                              f"(1 + m)(exp(2 kappa t_end) - 1) leaves the float range")
        drift = max(drift, t_end * abs(g - 2.0 * k))
    if drift > AMPLIFY_RATE_TOL:
        raise ConfigError(f"config.m: the kinetic rate g = 2 kappa (1 + m) - 2 kappa m has lost "
                          f"its leading digits, t_end |g - 2 kappa| = {drift:.3g} is past "
                          f"{AMPLIFY_RATE_TOL:g}; lower m")
    out["limit"] = max(AMPLIFY_LIMIT, 2.0 * drift)
    return out


def run_amplify(cfg: dict, out_dir: Path) -> RunReport:
    spec, t_end = cfg["spec"], cfg["t_end"]
    times = np.linspace(0.0, t_end, cfg["samples"])
    rf0, _ = vacuum(spec.n_modes)
    r, alpha = integrate_kinetics(rf0, amplifier_generators(spec), 0.0, times)
    closed_r, closed_alpha = amplified_rsf(spec, rf0, times)
    deviation = np.maximum(
        matrix_max(np.abs(r - closed_r)), matrix_max(np.abs(alpha - closed_alpha)[:, None])
    ) / (1.0 + matrix_max(np.abs(closed_r)))
    columns = {
        "t": times,
        "relative_deviation": deviation,
        "closed_total_number": np.trace(closed_r, axis1=-2, axis2=-1).real,
        "kinetic_total_number": np.trace(r, axis1=-2, axis2=-1).real,
    }
    _write_csv(out_dir / "amplify.csv", columns)
    return RunReport(columns, {}, {"closed_form_mismatch": _gate(times, deviation, cfg["limit"])})


FOCK_THRESHOLDS = {
    "squeeze": 1e-6,
    "beam_splitter": 1e-8,
    "identity": 1e-10,
    "observables": 1e-6,
}

FOCK_KEYS = {
    "checks": list(FOCK_THRESHOLDS),
    "cutoff": DEFAULT_CUTOFF,
    "squeeze": 0.3,
    "angle": 0.7,
    "seed": 20240817,
    "out_dir": None,
}
# The share of a check's threshold that the tail of its moments beyond the
# cutoff may take (``parse_fock_config``).  For the squeeze check the
# deviation is 0.57-1.25 times the tail at cutoffs 2-40 and nears twice it at
# large cutoffs (1.74 at 200); at cutoff 2 the edge's squeezed vacuum keeps
# 6.0e-7 on the boundary shell, under the 1e-6 that ``fock.evolve`` allows.
# For the identity check the tail bounds the deviation, and the rest of the
# threshold is left to roundoff.
TAIL_SHARE = 0.05


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
    z = np.array([rng.gauss(0.0, 1.0) for _ in range(160)]).view(complex).reshape(20, 2, 2)
    o = 0.5 * (z + np.swapaxes(z, -1, -2).conj())
    brute = np.sum(o * moments, axis=(-2, -1)).real
    return float(np.max(np.abs(expect_additive(rf, o) - brute)))


def parse_fock_config(cfg: dict) -> dict:
    """The checked config of a ``fock-check`` run: its keys, the numbers read
    and held to the cutoff, plus the coherent states of the ``identity`` and
    ``observables`` checks it lists, under ``"states"``."""
    out = _require_keys(cfg, FOCK_KEYS, "config")
    checks = out["checks"]
    if not (isinstance(checks, list) and checks and all(isinstance(c, str) for c in checks)):
        raise ConfigError(f"config.checks must be a nonempty list of check names, got {checks!r}")
    unknown = set(checks) - set(FOCK_THRESHOLDS)
    if unknown:
        raise ConfigError(f"unknown fock checks: {', '.join(sorted(unknown))}")
    cutoff = out["cutoff"] = _number(out["cutoff"], "config.cutoff", integer=True,
                                     most=math.isqrt(ARRAY_BUDGET // (16 * 16)) - 1)
    if cutoff < 2:
        raise ConfigError(f"config.cutoff must be at least 2, got {cutoff}")
    out["seed"] = _number(out["seed"], "config.seed", integer=True)
    squeeze = out["squeeze"] = _number(out["squeeze"], "config.squeeze")
    angle = out["angle"] = _number(out["angle"], "config.angle")
    # one turn holds every beam-splitter map; the evolution's work grows with |angle|
    if not abs(angle) <= 2.0 * math.pi:
        raise ConfigError(f"config.angle must lie in [-2 pi, 2 pi], got {angle}")
    # The squeezed vacuum sum_n (-lam)^n / cosh(squeeze) |n, n>, lam = tanh
    # |squeeze|, holds lam^(2N + 1) (N + 1 + lam^2 / (1 - lam^2)) of its pair
    # moment <ab>, the largest moment the check compares, beyond the cutoff N.
    # Only the squeeze check reads the value.
    lam = math.tanh(abs(squeeze))
    tail = lam ** (2 * cutoff + 1) * (cutoff + 1 + lam * lam / (1.0 - lam * lam)) \
        if lam < 1.0 else math.inf
    limit = TAIL_SHARE * FOCK_THRESHOLDS["squeeze"]
    if "squeeze" in checks and not tail <= limit:
        raise ConfigError(
            f"config.squeeze {squeeze} leaves {tail:.3e} of the squeezed vacuum's pair moment "
            f"<ab> beyond cutoff {cutoff}, above {limit:g}; lower it or raise the cutoff"
        )
    # the coherent states (z1, z2) of identity and observables, each held to
    # the boundary gate it meets first: evolve's on entry, or the moments'
    states = out["states"] = {}
    for check, z, tol in (("identity", (0.3, -0.2), BOUNDARY_PRE_TOL),
                          ("observables", (0.3, 0.2j), BOUNDARY_POST_TOL)):
        if check in checks:
            states[check] = z, coherent_state(*z, cutoff)
            edge = states[check][1].boundary_population()
            if not edge <= tol:
                raise ConfigError(
                    f"config.cutoff {cutoff} leaves {edge:.3e} of the {check} check's "
                    f"coherent state on its boundary shell, above {tol:g}; raise the cutoff"
                )
    # The identity check compares the truncated coherent state's moments
    # with their closed forms (z_k, z_k conj(z_k'), z_k z_k').  Each measured
    # moment is its closed form times Poisson masses F1(a) F2(b), a, b >= N - 2
    # at cutoff N, so it misses at most max(|z|, |z|^2) (Q1 + Q2) of it, with
    # Q_k = P(n_k >= N - 1) <= p_k(N - 1) / (1 - lam_k / N) for the Poisson
    # law p_k of mean lam_k = |z_k|^2 < N.  This tail bounds the deviation;
    # cutoff 8 is the first admitted (2.6e-12 against 7.9e-13 measured).
    if "identity" in checks:
        z = np.abs(states["identity"][0])
        lam = z * z
        tail = max(z.max(), lam.max()) * sum(
            k ** (cutoff - 1) * math.exp(-k - math.lgamma(cutoff)) / (1.0 - k / cutoff)
            for k in lam
        )
        limit = TAIL_SHARE * FOCK_THRESHOLDS["identity"]
        if not tail <= limit:
            raise ConfigError(
                f"config.cutoff {cutoff} leaves {tail:.3e} of the identity check's coherent "
                f"moments beyond it, above {limit:g}; raise the cutoff"
            )
    return out


def run_fock_check(cfg: dict, out_dir: Path) -> RunReport:
    checks, cutoff, states = cfg["checks"], cfg["cutoff"], cfg["states"]
    deviation = {}
    if "identity" in checks:
        # the evolved moments against the coherent state's closed-form ones,
        # so the truncation and the evolution both show in the deviation
        z, state = states["identity"]
        deviation["identity"] = oracle_deviation(
            identity_map(1, 1), coherent_moments(*z), evolve(state, QuadraticHamiltonian(), 1.0),
        )
    if "beam_splitter" in checks:
        h, m = beam_splitter_pair(cfg["angle"])
        deviation["beam_splitter"] = oracle_check_transform(
            m, FockState.number_state(1, 0, cutoff), h, 1.0,
        )
    if "squeeze" in checks:
        h, m = squeeze_pair(cfg["squeeze"], 1.0)
        deviation["squeeze"] = oracle_check_transform(m, FockState.vacuum(cutoff), h, 1.0)
    if "observables" in checks:
        # z1 conj(z2) is not real, so r_01 = <a_1^dag a_0> is complex and a
        # transposed or conjugated r shows in the deviation
        _, state = states["observables"]
        deviation["observables"] = _observables_deviation(state, measure_rsf(state)[0], cfg["seed"])

    # each check at its evolution's time; the observables' state does not evolve
    gates = {c: Gate(d, FOCK_THRESHOLDS[c], 0.0 if c == "observables" else 1.0)
             for c, d in deviation.items()}
    columns = {
        "check": list(gates),
        "deviation": [g.value for g in gates.values()],
        "threshold": [g.limit for g in gates.values()],
        "passed": [g.ok for g in gates.values()],
    }
    _write_csv(out_dir / "fock_check.csv", columns)
    return RunReport(columns, {}, gates)


EXTRACT_COLUMNS = (
    "T", "h", "gamma_up", "h_extracted", "gamma_up_extracted",
    "gamma_down_extracted", "valid",
)


# the gates of extract; the growth law and open classicality are casimir's
EXTRACT_GATES = (
    "ccr_invariant", "symplectic_residual",
    "extraction_h_agreement", "extraction_gamma_agreement",
)


def run_extract(cfg: dict, out_dir: Path) -> RunReport:
    sol = _solve(cfg)
    cols = _casimir_columns(sol)
    # the rates are 1x1: their smallest eigenvalues repeat the rate columns, unwritten
    up, down, cols["valid"] = validity_report(
        cols["gamma_up_extracted"][:, None, None],
        cols["gamma_down_extracted"][:, None, None],
        floor=_rate_roundoff(cols, sol.scenario.omega),
    )
    witness = np.minimum(up, down)
    worst = int(np.argmin(witness))
    gates = _gates(cols, sol.scenario.omega)
    summary = {
        "all_valid": bool(np.all(cols["valid"])),
        "worst_time": float(cols["T"][worst]),
        "worst_witness": float(witness[worst]),
    }
    _write_csv(out_dir / "extract.csv", {c: cols[c] for c in EXTRACT_COLUMNS})
    return RunReport(cols, summary, {name: gates[name] for name in EXTRACT_GATES})


# Each command's flags, flag -> (type, required), its config parser and its
# runner: the one source of the argv grammar, the usage lines, the argv errors
# and main's dispatch.
_CASIMIR_FLAGS = {"--config": (str, True), "--out": (str, False),
                  "--rel-tol": (float, False), "--samples": (int, False)}
COMMANDS = {
    "casimir": (_CASIMIR_FLAGS, parse_casimir_config, run_casimir),
    "sweep": (_CASIMIR_FLAGS, parse_sweep_config, run_sweep),
    "amplify": ({"--config": (str, True), "--out": (str, False), "--samples": (int, False)},
                parse_amplify_config, run_amplify),
    "fock-check": ({"--config": (str, False), "--out": (str, False)},
                   parse_fock_config, run_fock_check),
    "extract": (_CASIMIR_FLAGS, parse_casimir_config, run_extract),
}
HELP_FLAGS = ("-h", "--help")


def _usage(command: str | None) -> str:
    """The usage line of ``command``, or of the program when it is None."""
    if command is None:
        return f"usage: rsfield [-h] {{{','.join(COMMANDS)}}} ..."
    parts = []
    for flag, (_, required) in COMMANDS[command][0].items():
        part = f"{flag} {flag[2:].replace('-', '_').upper()}"
        parts.append(part if required else f"[{part}]")
    return f"usage: rsfield {command} [-h] {' '.join(parts)}"


def _argv_error(command: str | None, reason: str) -> NoReturn:
    print(_usage(command), file=sys.stderr)
    print(f"rsfield: error: {reason}", file=sys.stderr)
    raise SystemExit(2)


def _parse_argv(argv) -> tuple[str, dict]:
    """The command of ``argv`` and its flags' values by field name
    (``--rel-tol`` -> ``rel_tol``), read against ``COMMANDS``.  A flag
    is ``--flag value`` or ``--flag=value``; the token after a flag is always
    its value, and a repeated flag keeps its last value.  ``-h`` prints the
    usage and exits 0; a malformed argv prints the usage and the reason to
    stderr and exits 2."""
    argv = list(argv)
    if argv and argv[0] in HELP_FLAGS:
        print("\n".join(_usage(command) for command in COMMANDS))
        raise SystemExit(0)
    if not argv:
        _argv_error(None, "a command is required")
    command, tokens = argv[0], iter(argv[1:])
    if command not in COMMANDS:
        _argv_error(None, f"unknown command {command!r} (choose from {', '.join(COMMANDS)})")
    flags = COMMANDS[command][0]
    values = {}
    for token in tokens:
        if token in HELP_FLAGS:
            print(_usage(command))
            raise SystemExit(0)
        flag, has_value, value = token.partition("=")
        if flag not in flags:
            if any(flag in other for other, _, _ in COMMANDS.values()):
                _argv_error(command, f"{command} does not take {flag}")
            _argv_error(command, f"unrecognized argument {token!r}")
        if not has_value:
            value = next(tokens, None)
            if value is None:
                _argv_error(command, f"{flag} expects a value")
        kind = flags[flag][0]
        try:
            values[flag] = kind(value)
        except ValueError:
            _argv_error(command, f"{flag} must be {'an integer' if kind is int else 'a number'}, "
                                 f"got {value!r}")
    for flag, (_, required) in flags.items():
        if required and flag not in values:
            _argv_error(command, f"{command} requires {flag}")
    return command, {flag[2:].replace("-", "_"): value for flag, value in values.items()}


def main(argv=None) -> int:
    command, flags = _parse_argv(sys.argv[1:] if argv is None else argv)
    _, parse, run = COMMANDS[command]
    try:
        cfg = load_config(flags["config"]) if flags.get("config") else {}
        # flags override config keys before validation, so one check covers both
        cfg = parse({**cfg, **{key: flags[key] for key in ("rel_tol", "samples") if key in flags}})
        out_dir = Path(flags.get("out") or cfg["out_dir"] or "out")
        try:  # the runners write into it and create nothing
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the output directory {out_dir}: "
                              f"{exc.strerror or exc}") from exc
        report = run(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RsfieldError, OSError) as exc:  # OSError: a CSV that cannot be written
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"[{command}] {'OK' if report.ok else 'FAILED'}")
    for key, value in report.summary.items():
        print(f"  {key}: {value}")
    for name, gate in report.gates.items():
        print(f"  {name}: {gate}")
    for failure in report.failures:
        print(f"  violated: {failure}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
