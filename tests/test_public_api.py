"""The names the package exports and the README's library example uses exist."""

import re
from pathlib import Path

import pytest

import hjminimax as hj
from hjminimax import selector

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_snippet():
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("name", hj.__all__)
def test_exported_name_resolves(name):
    assert getattr(hj, name) is not None


def test_readme_library_names_resolve():
    snippet = _library_snippet()
    used = {"hj": set(re.findall(r"\bhj\.(\w+)", snippet)),
            "selector": set(re.findall(r"\bselector\.(\w+)", snippet))}
    assert {"default_seeds", "slice_analysis", "eliminate",
            "minimax_grid"} <= used["selector"]
    for name in used["hj"]:
        assert hasattr(hj, name), f"hj.{name}"
    for name in used["selector"]:
        assert hasattr(selector, name), f"selector.{name}"
