"""Every push-down filter and both ring refiners decide the golden rows as
the parent commit's ladders did, or earlier.

``tests/data/ladder_parent.json`` was written by ``tests/ladder_golden.py``
at the parent commit; see that module for the cell encoding.  A cell pins
both the verdict and the deepest section decoded.  Filters must keep every
verdict and may only decide a row on the same rung or a shallower one.
Refiners must emit every distance bit for bit; they may drop a row the
parent emitted only when its distance is past the fixed bound (such a row
never enters the top-k sink).
"""

from __future__ import annotations

import json
import struct

import pytest

from .ladder_golden import OUT, ladder_table

# Cell characters: 3 * verdict + rung (rung 0 header, 1 feature, 2 points).
DROP_HEADER, DROP_FEATURE, DROP_POINTS, KEEP_HEADER, KEEP_FEATURE, KEEP_POINTS = "012345"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(OUT.read_text())


@pytest.fixture(scope="module")
def table() -> dict:
    return ladder_table()


def _emitted(refiner: dict) -> dict[int, float]:
    """Row index -> emitted distance, from a refiner's cells and bits."""
    rows = [i for i, cell in enumerate(refiner["cells"]) if int(cell) >= 3]
    bits = refiner["distances"]
    assert len(bits) == 16 * len(rows)
    return {
        row: struct.unpack(">d", bytes.fromhex(bits[16 * k : 16 * k + 16]))[0]
        for k, row in enumerate(rows)
    }


def test_filters_match_the_parent(golden, table):
    assert table["filters"].keys() == golden["filters"].keys()
    for name, cells in golden["filters"].items():
        now = table["filters"][name]
        assert len(now) == len(cells), name
        for row, (was, got) in enumerate(zip(cells, now)):
            assert int(got) // 3 == int(was) // 3, (name, row, "verdict")
            assert int(got) % 3 <= int(was) % 3, (name, row, "rung")


def test_refiners_match_the_parent_bit_for_bit(golden, table):
    assert table["refiners"].keys() == golden["refiners"].keys()
    for name, refiner in golden["refiners"].items():
        bound = float(name.rsplit("/", 1)[1])
        was, now = _emitted(refiner), _emitted(table["refiners"][name])
        for row, distance in now.items():
            assert row in was, (name, row, "emitted a row the parent dropped")
            assert struct.pack(">d", distance) == struct.pack(">d", was[row]), (name, row)
        for row in was.keys() - now.keys():
            assert was[row] > bound, (name, row, "dropped a row within the bound")


def test_golden_covers_every_rung(golden, table):
    """The cells that stand in for the deleted per-filter counters: the
    parent's table and today's both exercise every rung."""
    for cells in (golden["filters"], table["filters"]):
        spatial = "".join(v for k, v in cells.items() if k.startswith("spatial/"))
        threshold = "".join(v for k, v in cells.items() if k.startswith("threshold/"))
        # A window far from every row: rejected on the header MBR alone.
        assert set(cells["spatial/far"]) == {DROP_HEADER}
        # Each spatial outcome occurs: header reject / containment accept, and
        # a rejection (the MBR overlaps, the polyline does not) that needed
        # the feature or the points.
        for cell in (DROP_HEADER, DROP_FEATURE, DROP_POINTS, KEEP_HEADER, KEEP_FEATURE,
                     KEEP_POINTS):
            assert cell in spatial, cell
        # Similarity: header-bound pruning before any feature decode, feature
        # pruning, and a DP upper bound accepting a row without its points.
        for cell in (DROP_HEADER, DROP_FEATURE, DROP_POINTS, KEEP_FEATURE, KEEP_POINTS):
            assert cell in threshold, cell
