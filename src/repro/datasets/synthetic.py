"""Trajectory generators for TDrive-like and Lorry-like datasets.

Each generator draws trip durations from a lognormal mixture and trip
diameters from a lognormal, both fitted to the paper's Figure 14, then
simulates a noisy directed walk from an origin clustered around the city
center.  All randomness flows through one seeded ``numpy`` generator, so
datasets are exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.model.mbr import MBR
from repro.model.pointblock import PointBlock
from repro.model.trajectory import Trajectory

DAY = 24 * 3600.0


@dataclass(frozen=True)
class DatasetSpec:
    """Distributional knobs of a synthetic dataset.

    ``duration_*`` parameterize a lognormal for trip durations (seconds),
    with a second long-haul mode mixed in with probability
    ``long_haul_prob``.  ``diameter_log_mean/sigma`` parameterize a
    lognormal over trip diameters in degrees.  ``center_sigma`` controls how
    tightly origins cluster around ``center``.
    """

    name: str
    boundary: MBR
    center: tuple[float, float]
    center_sigma: float
    time_span: float  # dataset temporal extent, seconds
    duration_log_mean: float
    duration_log_sigma: float
    long_haul_prob: float
    long_haul_log_mean: float
    long_haul_log_sigma: float
    max_duration: float
    diameter_log_mean: float
    diameter_log_sigma: float
    sample_interval: float
    objects_per_100: int  # distinct moving objects per 100 trajectories


# TDrive: 66% of time ranges < 2 h, >99% < 18 h; trips 2.7-65 km in a
# (110, 35, 125, 45) boundary; one week of data.
TDRIVE_SPEC = DatasetSpec(
    name="tdrive",
    boundary=MBR(110.0, 35.0, 125.0, 45.0),
    center=(116.40, 39.90),
    center_sigma=0.12,
    time_span=7 * DAY,
    duration_log_mean=math.log(4200.0),
    duration_log_sigma=0.85,
    long_haul_prob=0.04,
    long_haul_log_mean=math.log(8 * 3600.0),
    long_haul_log_sigma=0.45,
    max_duration=18 * 3600.0,
    diameter_log_mean=math.log(0.12),
    diameter_log_sigma=0.75,
    sample_interval=120.0,
    objects_per_100=12,
)

# Lorry: 88% < 2 h, 99% < 14 h; mostly short hauls 2-76 km with rare
# cross-country trips in a (70, 0, 140, 55) boundary; one month of data.
LORRY_SPEC = DatasetSpec(
    name="lorry",
    boundary=MBR(70.0, 0.0, 140.0, 55.0),
    center=(113.25, 23.15),
    center_sigma=0.35,
    time_span=31 * DAY,
    duration_log_mean=math.log(2400.0),
    duration_log_sigma=0.95,
    long_haul_prob=0.02,
    long_haul_log_mean=math.log(9 * 3600.0),
    long_haul_log_sigma=0.4,
    max_duration=14 * 3600.0,
    diameter_log_mean=math.log(0.11),
    diameter_log_sigma=0.9,
    sample_interval=180.0,
    objects_per_100=8,
)


def _clamp(value: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, value))


def _generate_one(
    spec: DatasetSpec, rng: np.random.Generator, oid: str, tid: str, max_points: int
) -> Trajectory:
    # Duration: lognormal body with a rare long-haul mode.
    if rng.random() < spec.long_haul_prob:
        duration = rng.lognormal(spec.long_haul_log_mean, spec.long_haul_log_sigma)
    else:
        duration = rng.lognormal(spec.duration_log_mean, spec.duration_log_sigma)
    duration = _clamp(duration, 2 * spec.sample_interval, spec.max_duration)

    start_t = rng.uniform(0, spec.time_span - duration)
    diameter = rng.lognormal(spec.diameter_log_mean, spec.diameter_log_sigma)
    b = spec.boundary
    diameter = _clamp(diameter, 1e-4, min(b.width, b.height) * 0.8)

    # Origin clustered around the city center, kept inside the boundary.
    margin = diameter * 1.2
    ox = _clamp(
        rng.normal(spec.center[0], spec.center_sigma), b.x1 + margin, b.x2 - margin
    )
    oy = _clamp(
        rng.normal(spec.center[1], spec.center_sigma), b.y1 + margin, b.y2 - margin
    )
    heading = rng.uniform(0, 2 * math.pi)
    tx = ox + diameter * math.cos(heading)
    ty = oy + diameter * math.sin(heading)
    tx = _clamp(tx, b.x1 + 1e-6, b.x2 - 1e-6)
    ty = _clamp(ty, b.y1 + 1e-6, b.y2 - 1e-6)

    n_points = int(duration / spec.sample_interval) + 2
    n_points = min(max_points, max(2, n_points))
    ts = np.linspace(start_t, start_t + duration, n_points)
    frac = np.linspace(0.0, 1.0, n_points)
    noise_scale = diameter * 0.06
    nx = rng.normal(0.0, noise_scale, n_points).cumsum() / max(1, math.sqrt(n_points))
    ny = rng.normal(0.0, noise_scale, n_points).cumsum() / max(1, math.sqrt(n_points))
    xs = ox + (tx - ox) * frac + nx
    ys = oy + (ty - oy) * frac + ny
    xs = np.clip(xs, b.x1, b.x2)
    ys = np.clip(ys, b.y1, b.y2)

    return Trajectory(oid, tid, PointBlock(ts, xs, ys))


def generate_dataset(
    spec: DatasetSpec,
    n: int,
    seed: int = 42,
    max_points: int = 120,
) -> list[Trajectory]:
    """Generate ``n`` trajectories following ``spec`` deterministically."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    n_objects = max(1, n * spec.objects_per_100 // 100)
    trajs = []
    for i in range(n):
        oid = f"{spec.name}-obj-{rng.integers(0, n_objects):05d}"
        tid = f"{spec.name}-trip-{i:07d}"
        trajs.append(_generate_one(spec, rng, oid, tid, max_points))
    return trajs


def tdrive_like(n: int = 2000, seed: int = 42, max_points: int = 120) -> list[Trajectory]:
    """A TDrive-shaped dataset (Beijing taxis, one week)."""
    return generate_dataset(TDRIVE_SPEC, n, seed, max_points)


def lorry_like(n: int = 2000, seed: int = 43, max_points: int = 120) -> list[Trajectory]:
    """A Lorry-shaped dataset (Guangzhou lorries, one month)."""
    return generate_dataset(LORRY_SPEC, n, seed, max_points)


def replicate_dataset(
    trajs: Sequence[Trajectory],
    times: int,
    spec: Optional[DatasetSpec] = None,
    time_step: float = 3600.0,
    space_step: float = 0.02,
) -> Iterator[Trajectory]:
    """Yield the dataset replicated ``times`` times with offsets.

    Mirrors the paper's scalability setup (§VI-F): each copy is shifted in
    time and space so replicas do not collapse onto identical index values.
    The original is yielded as copy 0.
    """
    if times <= 0:
        raise ValueError(f"times must be positive, got {times}")
    boundary = spec.boundary if spec is not None else None
    for copy in range(times):
        dt = copy * time_step
        dx = copy * space_step
        for traj in trajs:
            if copy == 0:
                yield traj
                continue
            if boundary is not None and traj.mbr.x2 + dx >= boundary.x2:
                dx_eff = -dx
            else:
                dx_eff = dx
            yield traj.shifted(
                dt=dt,
                dlng=dx_eff,
                tid=f"{traj.tid}-r{copy}",
                oid=f"{traj.oid}-r{copy}",
            )
