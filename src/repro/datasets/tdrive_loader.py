"""Loader for the real T-Drive release format.

The public T-Drive sample (Yuan et al., KDD'11) ships one text file per
taxi, each line ``taxi_id,YYYY-MM-DD HH:MM:SS,longitude,latitude``.  This
loader parses that format into :class:`Trajectory` objects so the
reproduction can run over the genuine dataset when it is available, applying
the same preprocessing the paper assumes (gap splitting, duration capping,
outlier removal).

No network access is required or attempted: point the loader at a local
directory of ``<taxi_id>.txt`` files.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from repro.model.mbr import MBR
from repro.model.pointblock import PointBlock
from repro.model.trajectory import Trajectory
from repro.preprocess.cleaning import PreprocessPipeline

# The paper's TDrive spatial boundary (Fig. 14): trips outside are dropped.
TDRIVE_BOUNDARY = MBR(110.0, 35.0, 125.0, 45.0)


def _parse_time(text: str) -> float:
    dt = datetime.strptime(text, "%Y-%m-%d %H:%M:%S")
    return dt.replace(tzinfo=timezone.utc).timestamp()


def parse_tdrive_file(path: Union[str, Path], boundary: Optional[MBR] = None) -> Optional[Trajectory]:
    """Parse one taxi's file into a raw (un-split) trajectory.

    Malformed lines and fixes outside ``boundary`` are skipped; returns
    ``None`` when no valid fix remains.
    """
    bounds = boundary if boundary is not None else TDRIVE_BOUNDARY
    path = Path(path)
    ts: list[float] = []
    xs: list[float] = []
    ys: list[float] = []
    taxi_id = path.stem
    with open(path) as fh:
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != 4:
                continue
            try:
                t = _parse_time(parts[1])
                lng = float(parts[2])
                lat = float(parts[3])
            except (ValueError, OverflowError):
                continue
            if not bounds.contains_point(lng, lat):
                continue
            ts.append(t)
            xs.append(lng)
            ys.append(lat)
    if not ts:
        return None
    order = np.lexsort((ys, xs, ts))  # by (t, lng, lat): the last key sorts first
    block = PointBlock(np.asarray(ts)[order], np.asarray(xs)[order], np.asarray(ys)[order])
    return Trajectory(f"taxi-{taxi_id}", f"taxi-{taxi_id}-raw", block)


def load_tdrive_directory(
    directory: Union[str, Path],
    boundary: Optional[MBR] = None,
    pipeline: Optional[PreprocessPipeline] = None,
    limit_files: Optional[int] = None,
) -> Iterator[Trajectory]:
    """Yield preprocessed trajectories from a T-Drive directory.

    Each taxi's raw stream is split into trips by the preprocessing pipeline
    (defaults match the paper's assumptions: 200 km/h outlier cutoff,
    30-minute gap split, 48-hour duration cap).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"{directory} is not a directory")
    pipe = pipeline if pipeline is not None else PreprocessPipeline()
    files = sorted(directory.glob("*.txt"))
    if limit_files is not None:
        files = files[:limit_files]
    for path in files:
        raw = parse_tdrive_file(path, boundary)
        if raw is None:
            continue
        for i, trip in enumerate(pipe.run_one(raw)):
            yield Trajectory(raw.oid, f"{raw.oid}-trip-{i:04d}", trip.block)
