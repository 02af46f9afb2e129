"""The TShape index (§IV-A2 of the paper).

A trajectory's spatial footprint is represented by the subset of cells it
touches inside an *enlarged element* — an ``α × β`` block of same-resolution
quad-tree cells anchored at the cell containing the MBR's lower-left corner.
Resolution selection follows Lemmas 3-4; the anchor cell's quadrant sequence
becomes an integer via Eq. 2, the touched-cell bitmap is the *shape code*,
and the final 64-bit index value packs both (Eq. 3):

    TShape(code(E), s) = (code(E) << α*β) | s

Spatial range queries (Algorithm 2) walk the quad-tree breadth-first,
skipping subtrees no stored element lies in, and emit contiguous value ranges
for contained elements plus exact values for shapes that intersect the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.core.quadtree import Cell, QuadTreeGrid, cell_code, subtree_size
from repro.core.ranges import merge_ranges
from repro.geometry.relations import (
    SpatialRelation,
    rect_relation,
    segment_intersects_rect,
)
from repro.model.mbr import MBR
from repro.model.trajectory import Trajectory


@dataclass(frozen=True)
class TShapeKey:
    """The indexing outcome for one trajectory."""

    element_code: int  # Eq. 2 code of the enlarged element's anchor cell
    resolution: int
    raw_shape: int  # the touched-cell bitmap before optimization
    anchor: Cell


class TShapeIndex:
    """Encoder and query planner for the TShape index."""

    def __init__(self, grid: QuadTreeGrid, alpha: int = 3, beta: int = 3):
        if alpha < 2 or beta < 2:
            raise ValueError(f"alpha and beta must be >= 2, got {alpha}x{beta}")
        g = grid.max_resolution
        # Eq. 3's budget: quadrant code needs 2g+1 bits, shape needs α*β.
        if 2 * g + 1 + alpha * beta > 64:
            raise ValueError(
                f"index value overflows 64 bits: 2*{g}+1+{alpha}*{beta} > 64"
            )
        self.grid = grid
        self.alpha = alpha
        self.beta = beta
        self.shape_bits = alpha * beta

    # -- value packing (Eq. 3) ----------------------------------------------

    def pack(self, element_code: int, shape: int) -> int:
        """Eq. 3: combine element code and shape code into one integer."""
        if shape < 0 or shape >= (1 << self.shape_bits):
            raise ValueError(f"shape code out of {self.shape_bits}-bit range: {shape}")
        return (element_code << self.shape_bits) | shape

    def unpack(self, value: int) -> tuple[int, int]:
        """Inverse of :meth:`pack`: value -> (element code, shape code)."""
        return value >> self.shape_bits, value & ((1 << self.shape_bits) - 1)

    # -- resolution selection (Lemmas 3-4) -----------------------------------

    def resolution_for(self, nmbr: MBR) -> int:
        """Smallest-cell resolution whose enlarged element covers ``nmbr``."""
        g = self.grid.max_resolution
        extent = max(nmbr.width / self.alpha, nmbr.height / self.beta)
        if extent <= 0:
            level = g
        else:
            level = min(g, int(math.floor(math.log(extent, 0.5))))
        level = max(1, level)
        while level > 1 and not self._anchor_covers(nmbr, level):
            level -= 1
        return level

    def _anchor_covers(self, nmbr: MBR, resolution: int) -> bool:
        """Lemma 4's position check at a candidate resolution."""
        w = 0.5 ** resolution
        anchor = self.grid.cell_containing(nmbr.x1, nmbr.y1, resolution)
        return (
            anchor.ix * w + self.alpha * w >= nmbr.x2
            and anchor.iy * w + self.beta * w >= nmbr.y2
        )

    def anchor_cell(self, nmbr: MBR) -> Cell:
        """The enlarged element's anchor (lower-left) cell for an MBR."""
        r = self.resolution_for(nmbr)
        return self.grid.cell_containing(nmbr.x1, nmbr.y1, r)

    # -- element geometry ------------------------------------------------------

    def element_rect(self, anchor: Cell) -> MBR:
        """Normalized extent of the enlarged element anchored at ``anchor``."""
        w = anchor.size
        return MBR(
            anchor.ix * w,
            anchor.iy * w,
            (anchor.ix + self.alpha) * w,
            (anchor.iy + self.beta) * w,
        )

    def cell_rect(self, anchor: Cell, a: int, b: int) -> MBR:
        """Normalized extent of local cell ``(a, b)`` inside an element."""
        if not (0 <= a < self.alpha and 0 <= b < self.beta):
            raise ValueError(f"local cell ({a},{b}) outside {self.alpha}x{self.beta}")
        w = anchor.size
        return MBR(
            (anchor.ix + a) * w,
            (anchor.iy + b) * w,
            (anchor.ix + a + 1) * w,
            (anchor.iy + b + 1) * w,
        )

    # -- shape codes --------------------------------------------------------------

    def window_mask(self, ix: int, iy: int, w: float, query: MBR) -> int:
        """Bitmap of the local cells of the element anchored at grid cell
        ``(ix, iy)`` (cell width ``w``) that touch the normalized window, so
        ``shape & mask`` is non-zero exactly when the shape touches it."""
        cols = 0
        for a in range(self.alpha):
            if (ix + a) * w <= query.x2 and query.x1 <= (ix + a + 1) * w:
                cols |= 1 << a
        mask = 0
        for b in range(self.beta):
            if (iy + b) * w <= query.y2 and query.y1 <= (iy + b + 1) * w:
                mask |= cols << (b * self.alpha)
        return mask

    def shape_intersects(self, anchor: Cell, shape: int, query: MBR) -> bool:
        """True when any set-bit cell of a shape touches the query window."""
        return bool(shape & self.window_mask(anchor.ix, anchor.iy, anchor.size, query))

    # -- indexing a trajectory -----------------------------------------------------

    def index_trajectory(self, traj: Trajectory) -> TShapeKey:
        """Compute the element code and raw shape bitmap of a trajectory."""
        return self.index_trajectories([traj])[0]

    def index_trajectories(self, trajs: Sequence[Trajectory]) -> list[TShapeKey]:
        """Index a batch: every point is normalized and binned at once;
        resolution, anchor and element code stay scalar per trajectory
        (``math.log`` and int arithmetic)."""
        if not trajs:
            return []
        blocks = [traj.block for traj in trajs]
        offsets = np.cumsum([0] + [len(block) for block in blocks])
        b = self.grid.boundary
        nx = np.concatenate([block.xs for block in blocks]) - b.x1
        ny = np.concatenate([block.ys for block in blocks]) - b.y1
        nx, ny = (
            np.minimum(1.0, np.maximum(0.0, col / d)) for col, d in ((nx, b.width), (ny, b.height))
        )
        anchors = [
            self.anchor_cell(MBR(*box))
            for box in zip(*(f.reduceat(col, offsets[:-1]).tolist() for col, f in (
                (nx, np.minimum), (ny, np.minimum), (nx, np.maximum), (ny, np.maximum))))
        ]
        shapes = self._shape_bitmaps(nx, ny, offsets, anchors).tolist()
        g = self.grid.max_resolution
        return [
            TShapeKey(cell_code(anchor, g), anchor.resolution, shape, anchor)
            for anchor, shape in zip(anchors, shapes)
        ]

    def _shape_bitmaps(self, nx, ny, offsets, anchors: list[Cell]) -> np.ndarray:
        """Bitmap of element cells touched by each normalized polyline.

        Bit ``b*α + a`` is set when local cell ``(a, b)`` intersects any
        vertex or edge (closed-rectangle predicates, so the query side never
        misses a trajectory).  A segment (or lone point) within one local
        cell sets it; one across cells is tested against every cell of its
        local box with :func:`segment_intersects_rect` (whose endpoint-inside
        accept and box-miss reject run vectorized first).
        """
        lens = np.diff(offsets)
        owner = np.repeat(np.arange(len(anchors)), lens)
        ix, iy, w = (np.array(col) for col in zip(*((c.ix, c.iy, c.size) for c in anchors)))
        a = np.clip((nx - ix[owner] * w[owner]) / w[owner], 0, self.alpha - 1).astype(np.int64)
        b = np.clip((ny - iy[owner] * w[owner]) / w[owner], 0, self.beta - 1).astype(np.int64)
        # Segments i -> j: consecutive points, or a lone point to itself.
        i = np.flatnonzero(np.append(owner[1:] == owner[:-1], False) | (lens == 1)[owner])
        j = i + (lens[owner[i]] > 1)
        lo_a, lo_b = np.minimum(a[i], a[j]), np.minimum(b[i], b[j])
        cols = np.maximum(a[i], a[j]) - lo_a + 1
        size = cols * (np.maximum(b[i], b[j]) - lo_b + 1)
        # Every (segment, cell) pair of the segments' local boxes.
        cand = np.repeat(np.arange(len(i)), size)
        k = np.arange(len(cand)) - np.repeat(np.cumsum(size) - size, size)
        ca, cb = lo_a[cand] + k % cols[cand], lo_b[cand] + k // cols[cand]
        s, e, t = i[cand], j[cand], owner[i[cand]]
        x1, y1 = (ix[t] + ca) * w[t], (iy[t] + cb) * w[t]
        x2, y2 = (ix[t] + ca + 1) * w[t], (iy[t] + cb + 1) * w[t]
        ax, ay, bx, by = nx[s], ny[s], nx[e], ny[e]
        hit = (
            (size[cand] == 1)
            | (x1 <= ax) & (ax <= x2) & (y1 <= ay) & (ay <= y2)
            | (x1 <= bx) & (bx <= x2) & (y1 <= by) & (by <= y2)
        )
        missed = (
            (np.maximum(ax, bx) < x1) | (np.minimum(ax, bx) > x2)
            | (np.maximum(ay, by) < y1) | (np.minimum(ay, by) > y2)
        )
        for q in np.flatnonzero(~hit & ~missed).tolist():
            hit[q] = segment_intersects_rect(
                float(ax[q]), float(ay[q]), float(bx[q]), float(by[q]),
                MBR(float(x1[q]), float(y1[q]), float(x2[q]), float(y2[q])),
            )
        shapes = np.zeros(len(anchors), dtype=np.int64)
        np.bitwise_or.at(shapes, t[hit], np.left_shift(1, cb[hit] * self.alpha + ca[hit]))
        return shapes

    def index_value(self, key: TShapeKey, final_code: Optional[int] = None) -> int:
        """Pack a key into the stored 64-bit value (optionally optimized)."""
        shape = key.raw_shape if final_code is None else final_code
        return self.pack(key.element_code, shape)

    # -- spatial range query (Algorithm 2) ---------------------------------------------

    def query_ranges(
        self,
        spatial_range: MBR,
        shapes_of: Optional[Callable[[int], Optional[dict[int, int]]]] = None,
        use_cache: bool = True,
        occupied: Optional[np.ndarray] = None,
    ) -> list[tuple[int, int]]:
        """Candidate index-value ranges (half-open) for a spatial range query.

        ``shapes_of`` maps an element code to its ``{raw_shape: final_code}``
        mapping (normally the index cache).  With ``use_cache=False`` the
        planner enumerates all ``2^(α*β)`` possible shapes per intersecting
        element — the expensive ablation of Fig. 16(b).

        ``occupied`` is the sorted array of the element codes that have a
        mapping (the cache's directory): a subtree whose pre-order code
        interval holds none of them cannot hold a row and is dropped before
        its relation test, and ``shapes_of`` is asked only about listed
        elements.  ``None`` means every element may be occupied.
        """
        sr = self.grid.normalize_mbr(spatial_range)
        g = self.grid.max_resolution
        bits = self.shape_bits
        ranges: list[tuple[int, int]] = []
        # Cache off: every bitmap, stored raw.  Cache on: an unlisted element has none.
        every_shape = () if use_cache else [(s, s) for s in range(1, 1 << bits)]
        # A frontier entry is (pre-order code, ix, iy) of a cell whose
        # children are visited next; the root precedes code 0.
        frontier = [(-1, 0, 0)]
        for r in range(1, g + 1):
            w = 0.5 ** r
            size = subtree_size(g, r)
            cells = [
                (code + 1 + q * size, 2 * ix + (q & 1), 2 * iy + (q >> 1))
                for code, ix, iy in frontier
                for q in range(4)
            ]
            frontier = []
            for code, ix, iy in cells:
                if occupied is not None:
                    at = occupied.searchsorted(code)
                    if at == len(occupied) or occupied[at] >= code + size:
                        continue
                # Enlarged elements near the right/top edge extend beyond the
                # unit square; only the in-space part can hold data, so the
                # relation is evaluated on the clipped rectangle.
                x2, y2 = min(1.0, (ix + self.alpha) * w), min(1.0, (iy + self.beta) * w)
                relation = rect_relation(sr, MBR(ix * w, iy * w, x2, y2))
                if relation is SpatialRelation.DISJOINT:
                    continue
                base = code << bits
                if relation is SpatialRelation.CONTAINS:
                    ranges.append((base, (code + size) << bits))
                    continue
                # INTERSECTS: pick out shapes that touch the window.
                listed = occupied is None or occupied[at] == code
                if use_cache and shapes_of is not None and listed:
                    shapes: Iterable[tuple[int, int]] = (shapes_of(code) or {}).items()
                else:
                    shapes = every_shape
                if shapes:
                    mask = self.window_mask(ix, iy, w, sr)
                    ranges.extend((base | f, (base | f) + 1) for raw, f in shapes if raw & mask)
                frontier.append((code, ix, iy))
        return merge_ranges(ranges)
