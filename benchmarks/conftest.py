"""Shared benchmark fixtures: datasets and loaded systems.

All systems are session-scoped so the build cost is paid once; datasets are
scaled-down but distribution-matched versions of the paper's TDrive and
Lorry workloads (see DESIGN.md §2 for the substitution rationale).  Each
benchmark writes its paper-style result table to ``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import TMan, TManConfig
from benchmarks.comparators import STHadoop, TManXZ, TManXZT, TrajMesa
from repro.datasets import (
    LORRY_SPEC,
    TDRIVE_SPEC,
    QueryWorkload,
    lorry_like,
    tdrive_like,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

TDRIVE_N = 1200
LORRY_N = 1500
STH_N = 400  # point-exploded storage: keep the slice small
MAX_POINTS = 50


def save_table(name: str, table) -> None:
    """Persist a ResultTable under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = table.render()
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


@pytest.fixture(scope="session")
def tdrive_data():
    return tdrive_like(TDRIVE_N, seed=42, max_points=MAX_POINTS)


@pytest.fixture(scope="session")
def lorry_data():
    return lorry_like(LORRY_N, seed=43, max_points=MAX_POINTS)


# Function-scoped: every test draws the same deterministic window sequence
# regardless of which other benchmarks ran before it (a shared session-wide
# RNG would make results depend on execution order).
@pytest.fixture
def tdrive_workload(tdrive_data):
    return QueryWorkload(TDRIVE_SPEC, tdrive_data, seed=7)


@pytest.fixture
def lorry_workload(lorry_data):
    return QueryWorkload(LORRY_SPEC, lorry_data, seed=8)


def _tman(boundary, data, **overrides):
    defaults = dict(
        boundary=boundary,
        max_resolution=14,
        num_shards=2,
        kv_workers=2,
        split_rows=50_000,
    )
    defaults.update(overrides)
    tman = TMan(TManConfig(**defaults))
    tman.bulk_load(data)
    return tman


@pytest.fixture(scope="session")
def tman_tdrive(tdrive_data):
    tman = _tman(TDRIVE_SPEC.boundary, tdrive_data)
    yield tman
    tman.close()


@pytest.fixture(scope="session")
def tman_lorry(lorry_data):
    tman = _tman(LORRY_SPEC.boundary, lorry_data, max_resolution=16)
    yield tman
    tman.close()


@pytest.fixture(scope="session")
def tman_tdrive_tr_primary(tdrive_data):
    """TR as the primary index — the deployment for pure TRQ workloads."""
    tman = _tman(
        TDRIVE_SPEC.boundary, tdrive_data,
        primary_index="tr", secondary_indexes=("idt",),
    )
    yield tman
    tman.close()


@pytest.fixture(scope="session")
def tman_lorry_tr_primary(lorry_data):
    tman = _tman(
        LORRY_SPEC.boundary, lorry_data,
        primary_index="tr", secondary_indexes=("idt",), max_resolution=16,
    )
    yield tman
    tman.close()


@pytest.fixture(scope="session")
def trajmesa_tdrive(tdrive_data):
    system = TrajMesa(TDRIVE_SPEC.boundary, max_resolution=14, num_shards=2, kv_workers=2)
    system.bulk_load(tdrive_data)
    yield system
    system.close()


@pytest.fixture(scope="session")
def trajmesa_lorry(lorry_data):
    system = TrajMesa(LORRY_SPEC.boundary, max_resolution=16, num_shards=2, kv_workers=2)
    system.bulk_load(lorry_data)
    yield system
    system.close()


@pytest.fixture(scope="session")
def tman_xzt_tdrive(tdrive_data):
    system = TManXZT(num_shards=2, kv_workers=2)
    system.bulk_load(tdrive_data)
    yield system
    system.close()


@pytest.fixture(scope="session")
def tman_xz_tdrive(tdrive_data):
    system = TManXZ(TDRIVE_SPEC.boundary, max_resolution=14, num_shards=2, kv_workers=2)
    system.bulk_load(tdrive_data)
    yield system
    system.close()


@pytest.fixture(scope="session")
def sth_tdrive(tdrive_data):
    system = STHadoop(TDRIVE_SPEC.boundary, kv_workers=2)
    system.bulk_load(tdrive_data[:STH_N])
    yield system
    system.close()


@pytest.fixture(scope="session")
def sth_reference_data(tdrive_data):
    """The subset STHadoop actually holds (for like-for-like result checks)."""
    return tdrive_data[:STH_N]
