"""Workload definitions: seeded configs, op command lines, output checks.

Each workload turns ``--seed`` into one rsfield JSON config, jittered
inside a narrow band so the work per op stays nearly constant across
seeds.  The program sees only that config.  The checks below hold the
program's outputs against constants copied from the seed release and
against ``reference.final_densities``, never against rsfield itself.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from pathlib import Path

# Column lists and oracle thresholds of the seed release.  They are
# copied, not imported, so a change to the program cannot move them.
CASIMIR_COLUMNS = [
    "T", "re_fRp", "im_fRp", "re_fRm", "im_fRm", "re_fLp", "im_fLp",
    "re_fLm", "im_fLm", "phi", "n_density", "ccr_residual", "h", "gamma_up",
    "gamma_up_extracted", "gamma_down_extracted", "growth_residual",
    "classical_closed", "classical_open",
]
FOCK_COLUMNS = ["check", "deviation", "threshold", "passed"]
FOCK_THRESHOLDS = {
    "squeeze": 1e-6,
    "beam_splitter": 1e-8,
    "identity": 1e-10,
    "observables": 1e-6,
}

WORKLOADS = ("casimir_dense", "resonant_long", "fock_oracle")
# The calibration kernel (calibration.py) whose kind of work a workload's
# ops do most.
CALIBRATION_KERNEL = {"casimir_dense": "ode", "resonant_long": "ode", "fock_oracle": "blas"}

DENSITY_RTOL = 1e-6
DENSITY_ATOL = 1e-12


def _casimir_config(theta, beta0, drive, t_end, samples):
    return {
        "refractive_index": 1.5,
        "omega": 1.0,
        "theta": theta,
        "sigma": "auto",
        "profile": {"kind": "sinusoid", "beta0": beta0, "drive_frequency": drive},
        "t_end": t_end,
        "samples": samples,
        "rel_tol": 1e-11,
        "abs_tol": 1e-13,
    }


def make_config(workload, seed):
    """The rsfield config of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "casimir_dense":
        return _casimir_config(
            math.pi / 4, rng.uniform(0.195, 0.205), rng.uniform(1.98, 2.02), 40.0, 1201
        )
    if workload == "resonant_long":
        return _casimir_config(math.pi / 2, rng.uniform(0.398, 0.402), 0.98, 600.0, 201)
    if workload == "fock_oracle":
        return {
            "checks": ["squeeze", "beam_splitter", "identity", "observables"],
            "cutoff": 28,
            "squeeze": rng.uniform(0.297, 0.303),
            "angle": rng.uniform(0.69, 0.71),
            "seed": rng.randrange(2 ** 31),
        }
    raise KeyError(workload)


def op_argv(workload, config_path, out_dir):
    """Command line of one op, as given to ``rsfield.cli.main``."""
    command = "fock-check" if workload == "fock_oracle" else "casimir"
    return [command, "--config", str(config_path), "--out", str(out_dir)]


def reference_inputs(workload, cfg):
    """Arguments of ``reference.final_densities``; None for fock_oracle."""
    if workload == "fock_oracle":
        return None
    prof = cfg["profile"]
    return {
        "refractive_index": cfg["refractive_index"],
        "omega": cfg["omega"],
        "theta": cfg["theta"],
        "beta0": prof["beta0"],
        "drives": [prof["drive_frequency"]],
        "t_end": cfg["t_end"],
    }


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _check_density(value, ref, where):
    if not abs(value - ref) <= max(DENSITY_RTOL * abs(ref), DENSITY_ATOL):
        raise ValueError(f"{where}: n={value!r}, reference {ref!r}")


def _check_casimir_csv(path, ref, where):
    header, rows = _read_csv(path)
    if header != CASIMIR_COLUMNS:
        raise ValueError(f"{where}: CSV columns differ from the seed's")
    if not rows:
        raise ValueError(f"{where}: no rows")
    _check_density(float(rows[-1][header.index("n_density")]), ref, where)


def check_outputs(workload, out_dir, refs):
    """Raise ValueError if the op's outputs are wrong."""
    out_dir = Path(out_dir)
    if workload == "fock_oracle":
        header, rows = _read_csv(out_dir / "fock_check.csv")
        if header != FOCK_COLUMNS:
            raise ValueError("fock_check.csv columns differ from the seed's")
        seen = set()
        for check, deviation, _threshold, passed in rows:
            limit = FOCK_THRESHOLDS.get(check)
            if limit is None or not float(deviation) <= limit or passed != "true":
                raise ValueError(f"fock check {check}: deviation {deviation} > {limit}")
            seen.add(check)
        if seen != set(FOCK_THRESHOLDS):
            raise ValueError(f"fock checks run: {sorted(seen)}")
        return
    _check_casimir_csv(out_dir / "casimir.csv", refs[0], "casimir.csv")


def csv_digest(out_dir):
    """(total CSV bytes, digest of every CSV) of one op's output directory."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(Path(out_dir).glob("*.csv")):
        data = path.read_bytes()
        total += len(data)
        digest.update(path.name.encode() + b"\0" + data)
    return total, digest.hexdigest()
