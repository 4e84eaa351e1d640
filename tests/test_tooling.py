"""The sources parse as the oldest Python that pyproject.toml allows."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_sources_parse_as_the_oldest_python_allowed():
    # CI runs 3.10 too; this catches newer syntax on any interpreter
    pyproject = (ROOT / "pyproject.toml").read_text()
    oldest = re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.M)
    assert oldest and oldest[1] == "10"
    sources = [*ROOT.glob("src/g2atomic/*.py"), *ROOT.glob("tests/*.py")]
    assert len(sources) > 20
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
