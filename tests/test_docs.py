"""The demos and the README Quick tour run against the current API."""

import re
import runpy
from pathlib import Path

import pytest

from rsfield import cli
from rsfield.casimir import CasimirScenario, VelocityProfile, solve_modes

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
