"""Every ```python block of README.md runs as it is written, so the
library section cannot drift away from the code."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_an_example():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_example_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
