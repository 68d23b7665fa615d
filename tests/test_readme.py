"""Every Python example of the README runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def python_blocks(text: str) -> list[str]:
    """The bodies of the ```python fenced blocks of a markdown text."""
    return re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_every_readme_python_block_runs():
    blocks = python_blocks((ROOT / "README.md").read_text(encoding="utf-8"))
    assert blocks
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for number, block in enumerate(blocks, start=1):
        proc = subprocess.run(
            [sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, f"README python block {number}:\n{proc.stderr}"
