"""README's quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block, "README has no python block"
    namespace: dict = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert isinstance(namespace["res"].ks, float)
