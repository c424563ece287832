"""The comparison set: fixed configs run through ``cli.main`` in process, with
their exit code, stdout and the sha256 of each CSV held against the record
``comparison/recorded.json``.

Each config ``comparison/<command>/<stem>.json`` is one case, named
``<command>/<stem>`` and run as ``rsfield <command> --config <file>``.  A
change that moves a case's bytes on purpose records that case again,

    PYTHONPATH=src python tests/test_comparison.py <command>/<stem> ...

(every case where none is named), and says which entries it moved.  The
record holds the bytes of one build, named under ``recorded_with``: another
numpy, BLAS or CPU may move the last bit of a float, and with it a digest.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from rsfield.cli import main

HERE = Path(__file__).resolve().parent / "comparison"
RECORD = HERE / "recorded.json"
CASES = sorted(p.relative_to(HERE).with_suffix("").as_posix() for p in HERE.glob("*/*.json"))


def run_case(name: str, out_dir: Path) -> dict:
    """The exit code, stdout and CSV digests of case ``name``, run with
    warnings as errors and its output written to ``out_dir``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([name.split("/")[0], "--config", str(HERE / f"{name}.json"),
                     "--out", str(out_dir)])
    csvs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}
    return {"exit": code, "stdout": stdout.getvalue(), "csv": csvs}


def test_record_lists_every_case():
    assert sorted(json.loads(RECORD.read_text())["cases"]) == CASES


@pytest.mark.parametrize("name", CASES)
def test_case_keeps_its_bytes(name, tmp_path):
    record = json.loads(RECORD.read_text())
    want, got = record["cases"][name], run_case(name, tmp_path)
    build = ", ".join(f"{key} {value}" for key, value in record["recorded_with"].items())
    where = f"comparison case {name}, recorded on {build}"
    assert got["exit"] == want["exit"], f"{where}: exit code"
    assert got["stdout"] == want["stdout"], f"{where}: stdout"
    assert sorted(got["csv"]) == sorted(want["csv"]), f"{where}: CSV files"
    for file, digest in want["csv"].items():
        assert got["csv"][file] == digest, f"{where}: the bytes of {file}"


if __name__ == "__main__":
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {"cases": {}}
    for name in sys.argv[1:] or CASES:
        with tempfile.TemporaryDirectory() as out:
            record["cases"][name] = run_case(name, Path(out))
    record["cases"] = dict(sorted(record["cases"].items()))
    record["recorded_with"] = {
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
    }
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
