"""The package API that the README documents."""

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
