"""The package API that the README documents."""

import inspect
import re
from pathlib import Path

import equiflow

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_entry_points():
    """The names of the `from equiflow import (...)` block under "Library entry points"."""
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = re.search(r"from equiflow import \((.*?)\)", section, re.DOTALL).group(1)
    code = re.sub(r"#.*", "", block)
    return [name.strip() for name in code.split(",") if name.strip()]


def test_readme_entry_points_are_exported():
    names = readme_entry_points()
    assert "solve_assignment" in names and "umt_minimize" in names
    assert [n for n in names if n not in equiflow.__all__] == []


def readme_keyword_mentions():
    """(name, keyword) per keyword of each `name(kw=...)` or `name(..., kw=...)` in README.md."""
    spans = re.findall(r"`(\w+)\(([^`]*=[^`]*)\)`", README.read_text(encoding="utf-8"))
    return [(name, kw) for name, args in spans for kw in re.findall(r"(\w+)=", args)]


def test_readme_keywords_are_accepted():
    mentions = readme_keyword_mentions()
    assert ("umt_minimize", "finish") in mentions
    stale = [(name, kw) for name, kw in mentions
             if name not in equiflow.__all__
             or kw not in inspect.signature(getattr(equiflow, name)).parameters]
    assert stale == []
