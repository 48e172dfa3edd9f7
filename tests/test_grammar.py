"""Every source file parses under the Python 3.10 grammar, the floor in
pyproject.toml, so syntax new in 3.11 (``except*``, for one) fails here on
any newer interpreter too.  This checks grammar only: a call into a
library function that 3.10 lacks still parses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src/epitrace", "tests", "bench") for p in (ROOT / d).glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_the_3_10_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_every_tree_is_checked_and_newer_syntax_fails():
    assert {p.parent.name for p in SOURCES} == {"epitrace", "tests", "bench"}
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
