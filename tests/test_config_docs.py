"""Config-knob drift lint: ``TManConfig`` <-> the knob tables in ``docs/``.

Both directions are enforced: every ``TManConfig`` field must have a row
in a docs knob table (a markdown table whose header row starts with
``| knob |``), and every knob such a table documents must be a field.
Removing or renaming a field without touching the docs (or documenting a
knob that does not exist) fails here.

The same file lints ``.github/workflows/ci.yml``: every test or benchmark
file and every ``python -m repro...`` module a step names must exist, so
deleting one cannot leave a dangling step.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import re
from pathlib import Path

from repro import TManConfig

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"

_NAME_RE = re.compile(r"`([a-z][a-z0-9_]*)`")


def documented_knobs() -> set[str]:
    """Backticked names in the first cell of every knob-table row."""
    names: set[str] = set()
    for path in sorted(DOCS.glob("*.md")):
        in_table = False
        for line in path.read_text().splitlines():
            if not line.startswith("|"):
                in_table = False
                continue
            cells = [cell.strip() for cell in line.split("|")]
            if cells[1] == "knob":
                in_table = True
            elif in_table and not cells[1].startswith("---"):
                names.update(_NAME_RE.findall(cells[1]))
    return names


def test_every_config_field_is_documented():
    fields = {f.name for f in dataclasses.fields(TManConfig)}
    undocumented = fields - documented_knobs()
    assert not undocumented, (
        f"TManConfig fields missing from the docs knob tables: "
        f"{sorted(undocumented)}"
    )


def test_every_documented_knob_is_a_config_field():
    fields = {f.name for f in dataclasses.fields(TManConfig)}
    stale = documented_knobs() - fields
    assert not stale, (
        f"docs knob tables name knobs that are not TManConfig fields: "
        f"{sorted(stale)}"
    )


def test_ci_names_only_files_and_modules_that_exist():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    paths = set(re.findall(r"(?:tests|benchmarks)/[\w/]+\.py", text))
    modules = set(re.findall(r"python -m (repro(?:\.\w+)*)", text))
    assert paths and modules  # the patterns still see the workflow
    dangling = sorted(p for p in paths if not (ROOT / p).is_file())
    for name in sorted(modules):
        spec = importlib.util.find_spec(name)
        if spec is not None and spec.submodule_search_locations is not None:
            spec = importlib.util.find_spec(name + ".__main__")  # -m on a package
        if spec is None:
            dangling.append(name)
    assert not dangling, f"ci.yml names things that do not exist: {dangling}"
