"""Every Python source parses at the interpreter floor pyproject.toml declares.

`ast.parse(..., feature_version=...)` rejects grammar newer than the floor
(such as `except*`, new in 3.11) on whatever interpreter runs the tests. It
does not see standard-library names added after the floor (such as
`tomllib`); only a run on the floor interpreter shows those.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "scripts", "tests", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


def _floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def test_floor_check_rejects_newer_grammar():
    assert _floor() < (3, 11)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=_floor())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_at_the_python_floor(path):
    ast.parse(path.read_bytes(), filename=str(path), feature_version=_floor())
