"""Every KV-backed baseline answers and accounts for a fixed query set as the
parent commit did.

``tests/data/baselines_parent.json`` was written by
``tests/baselines_golden.py`` at the parent commit; see that module for the
data, the queries and the cell layout.  Result tids are compared as sorted
lists (result order is not part of a baseline's contract); every counter,
the modeled latency's bits and VRE's reassembly point-gets must be equal.
"""

from __future__ import annotations

import json

import pytest

from .baselines_golden import OUT, baselines_table


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(OUT.read_text())


@pytest.fixture(scope="module")
def table() -> dict:
    return baselines_table()


def test_same_systems_and_queries(golden, table):
    assert sorted(table) == sorted(golden)
    for name, cells in golden.items():
        assert len(table[name]) == len(cells), name


@pytest.mark.parametrize(
    "field",
    ["tids", "candidates", "transferred_rows", "windows", "simulated_ms", "reassembly_gets"],
)
def test_cells_equal_parent(golden, table, field):
    diffs = [
        (name, i, cell.get(field), table[name][i].get(field))
        for name, cells in golden.items()
        for i, cell in enumerate(cells)
        if cell.get(field) != table[name][i].get(field)
    ]
    assert diffs == []
