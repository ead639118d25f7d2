"""The README's Python API example runs as written, the package exports
what it lists, and the README states the declared Python floor."""

import re
import tomllib
from pathlib import Path

import fmfgc

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_python_api_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # the block ends with the particle/PDE gap of criterion 11
    assert namespace["sol"].converged
    assert namespace["gap"] <= 5e-2


def test_every_exported_name_resolves():
    missing = [name for name in fmfgc.__all__ if not hasattr(fmfgc, name)]
    assert missing == []


def test_readme_python_floor_is_the_declared_one():
    # numpy 2.4.6, the declared numpy floor, itself requires Python 3.11
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    floor = re.fullmatch(r">=(\d+\.\d+)", declared["project"]["requires-python"]).group(1)
    stated = re.findall(r"Requires Python (\d+\.\d+)\+", README.read_text(encoding="utf-8"))
    assert stated == [floor] == ["3.11"]
