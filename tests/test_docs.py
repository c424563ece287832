"""The demos and the README Quick tour run against the current API."""

import re
import runpy
from pathlib import Path

import pytest

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
