"""The README's Python API example runs as written, and the package exports
what it lists."""

import re
from pathlib import Path

import fmfgc

README = Path(__file__).resolve().parents[1] / "README.md"


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
