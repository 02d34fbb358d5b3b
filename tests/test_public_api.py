"""The names the package exports exist, and the README's library example runs."""

import re
from pathlib import Path

import pytest

import hjminimax as hj

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_snippet():
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("name", hj.__all__)
def test_exported_name_resolves(name):
    assert getattr(hj, name) is not None


def test_readme_library_snippet_runs():
    snippet = _library_snippet()
    used = set(re.findall(r"\bselector\.(\w+)", snippet))
    assert {"default_seeds", "slice_analysis", "eliminate", "minimax_grid",
            "minimax_pieces"} <= used
    names = {}
    exec(compile(snippet, str(README), "exec"), names)
    assert names["g"].u.shape == (96, 192)
    assert len(names["surgeries"]) == 2
    assert [sec for sec, _, _ in names["pieces"]] == [0, 2, 4]
