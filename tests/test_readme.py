"""The README's quick start runs as written, and its config table states the CLI schema."""

import re
from pathlib import Path

import numpy as np

from levykle.cli import _FIELDS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs():
    text = README.read_text()
    section = text[text.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    scope = {}
    exec(compile(block, "README.md quick start", "exec"), scope)
    assert isinstance(scope["path"], np.ndarray) and scope["path"].shape == scope["grid"].shape
    assert scope["finer"].d == 100


def test_config_table_states_the_schema():
    text = README.read_text()
    for name, entry in _FIELDS.items():
        assert f"| `{name}` | `{entry.flag}` | {entry.requirement} |" in text, name
