"""The demos and the README Quick tour run against the current API."""

import json
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from rsfield import cli
from rsfield.casimir import (
    PROFILE_KINDS, CasimirScenario, VelocityProfile, solve_modes, solve_modes_direct,
)

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_tour_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick tour\s+```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    # the closed/open classicality verdicts printed last, as the comments say
    assert capsys.readouterr().out.split()[-2:] == ["False", "True"]


def test_readme_gate_list_names_every_gate():
    # the bullets under "The invariants of a run" name exactly the gates of
    # cli._gates, in its order: the names before each bullet's colon
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"The invariants of a run .*?:\n\n(.*?)\n\n", readme, re.S).group(1)
    bullets = re.findall(r"^\* (.*?):", block, re.M)
    listed = [name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet)]
    run = CasimirScenario(1.5, 1.0, 0.7, VelocityProfile.constant(0.2), 1.0)
    cols = cli._casimir_columns(solve_modes(run, 5))
    assert listed == list(cli._gates(cols, 1.0))


def test_readme_config_keys_are_the_clis():
    # the keys of the JSON example are cli.CASIMIR_KEYS, in its order, and
    # those the amplify and fock-check sentences name are AMPLIFY_KEYS and
    # FOCK_KEYS, as the gate list above is cli._gates
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Command line.*?```json\n(.*?)```", readme, re.S).group(1)
    assert list(json.loads(example)) == list(cli.CASIMIR_KEYS)
    text = " ".join(readme.split())
    for command, keys in (("amplify", cli.AMPLIFY_KEYS), ("fock-check", cli.FOCK_KEYS)):
        sentence = re.search(rf"The `{command}` config takes (.*?)[:;]", text).group(1)
        assert re.findall(r"`(\w+)`", sentence) == list(keys)


def test_readme_sweep_axes_are_the_clis():
    # the axes the sweep sentence names are cli.SWEEP_AXES, in its order
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    sentence = re.search(r"lists values for any of the axes (.*?) of `sweep_summary.csv`", text)
    assert re.findall(r"`(\w+)`", sentence.group(1)) == list(cli.SWEEP_AXES)


def test_readme_profiles_table_is_profile_kinds():
    # each row of the Profiles table names a kind and the keys it reads
    # besides kind and beta0, as casimir.PROFILE_KINDS does, in its order
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    body = re.search(r"\n## Profiles\n.*?^\| -[- |]*\n(.*?)\n\n", readme, re.S | re.M).group(1)
    rows = re.findall(r"^\| `(\w+)` +\|([^|]*)\|$", body, re.M)
    assert [(kind, tuple(re.findall(r"`(\w+)`", keys))) for kind, keys in rows] \
        == list(PROFILE_KINDS.items())


def _quoted_resonant_grids(route: str) -> tuple:
    """The step counts the README quotes for W3 at T=600 on the named route."""
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    quoted = re.search(
        rf"resonant medium at T=600 the {route} route propagates ([\d, and]+?) steps", readme
    )
    return tuple(int(n) for n in re.findall(r"\d+", quoted.group(1)))


W3_T600 = CasimirScenario(1.5, 1.0, np.pi / 2, VelocityProfile.sinusoid(0.4, 0.98), 600.0)


def test_readme_resonant_grids_are_the_solvers():
    # the step counts the solver paragraph quotes for the direct route are
    # the grids solve_modes_direct propagates there, in order
    grids = solve_modes_direct(W3_T600, 201, rtol=1e-11, atol=1e-13).propagator.grids
    assert _quoted_resonant_grids("direct") == grids


def test_readme_floquet_grids_are_the_solvers():
    # and those it quotes for the Floquet route are solve_modes's period grids
    grids = solve_modes(W3_T600, 201, rtol=1e-11, atol=1e-13).propagator.grids
    assert _quoted_resonant_grids("Floquet") == grids
