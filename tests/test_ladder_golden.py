"""Every push-down filter and both ring refiners decide the golden rows
exactly as the parent commit's four separate ladders did.

``tests/data/ladder_parent.json`` was written by ``tests/ladder_golden.py``
at the parent commit; see that module for the cell encoding.  A cell pins
both the verdict and the deepest section decoded, so a change that keeps
verdicts but decodes more (or less) of a row fails here too.
"""

from __future__ import annotations

import json

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


def test_filters_match_the_parent(golden, table):
    assert table["filters"].keys() == golden["filters"].keys()
    for name, cells in golden["filters"].items():
        assert table["filters"][name] == cells, name


def test_refiners_match_the_parent_bit_for_bit(golden, table):
    assert table["refiners"].keys() == golden["refiners"].keys()
    for name, cells in golden["refiners"].items():
        assert table["refiners"][name] == cells, name


def test_golden_covers_every_rung(golden):
    """The cells that stand in for the deleted per-filter counters."""
    cells = golden["filters"]
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
    # Similarity: MBR-bound pruning before any feature decode, DP-bound
    # pruning, and a DP upper bound accepting a row without its points.
    for cell in (DROP_HEADER, DROP_FEATURE, DROP_POINTS, KEEP_FEATURE, KEEP_POINTS):
        assert cell in threshold, cell
