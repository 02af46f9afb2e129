"""The package surface: lazy re-exports and the worker's import closure.

``repro``, ``repro.kvstore``, ``repro.cluster``, ``repro.obs`` and
``repro.runtime`` resolve their re-exports on first access, so a
region-server worker — ``python -S``, importing only
``repro.cluster.worker`` — loads the RPC framing and the storage engine and
nothing else: no numpy, no query, storage or similarity stack, no
exporters, tracer or admission control, and from the standard library
neither OpenSSL's ``hashlib``, ``pickle`` nor ``multiprocessing``, nor
``dataclasses`` (with ``inspect``), runtime ``typing``, ``pathlib`` (with
``urllib``) or ``random``.  Start-up time and worker memory both depend on
that closure staying small.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = ["repro", "repro.kvstore", "repro.cluster", "repro.obs", "repro.runtime"]

# Never loaded by a worker.
EXCLUDED = [
    "numpy",
    "repro.model",
    "repro.query",
    "repro.storage",
    "repro.core",
    "repro.similarity",
    "repro.compression",
    "repro.cache",
    "repro.geometry",
    "repro.datasets",
]

# Standard-library modules a worker never loads.
EXCLUDED_STDLIB = [
    "hashlib",
    "_hashlib",
    "pickle",
    "multiprocessing",
    "dataclasses",
    "inspect",
    "typing",
    "pathlib",
    "urllib",
    "random",
]

# Everything a worker may load: the RPC layer, the durable engine and
# what it imports, the metric instruments and the deadline and backpressure
# the engine reads.
WORKER_CLOSURE = {
    "repro",
    "repro._lazy",
    "repro.cluster",
    "repro.cluster.metrics",
    "repro.cluster.rpc",
    "repro.cluster.worker",
    "repro.kvstore",
    *(
        f"repro.kvstore.{name}"
        for name in (
            "durable lsm memtable sstable disk_sstable wal bloom block_cache "
            "stats retry simfault errors"
        ).split()
    ),
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.profile",
    "repro.runtime",
    "repro.runtime.backpressure",
    "repro.runtime.deadline",
}


def _under(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


@pytest.fixture(scope="module")
def worker_modules() -> set[str]:
    """``sys.modules`` of a fresh ``python -S`` after ``import repro.cluster.worker``
    (``sys`` is built in, so the probe itself imports nothing)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys; import repro.cluster.worker; print(sorted(sys.modules))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(ast.literal_eval(out.stdout))


def test_worker_loads_no_numpy_and_no_excluded_layer(worker_modules):
    leaked = sorted(
        m for m in worker_modules if any(_under(m, ex) for ex in EXCLUDED)
    )
    assert leaked == []


def test_worker_loads_only_the_storage_engine(worker_modules):
    repro_modules = {m for m in worker_modules if _under(m, "repro")}
    assert sorted(repro_modules - WORKER_CLOSURE) == []
    assert {"repro.cluster.worker", "repro.kvstore.durable"} <= repro_modules


# The process cluster's own modules: a thread-mode deployment needs none.
PROCESS_CLUSTER = [
    f"repro.cluster.{name}"
    for name in ("worker", "process_cluster", "client", "rpc", "replication", "ring")
]

THREAD_MODE_PROBE = """
import sys
from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.query.types import SpatialRangeQuery, TemporalRangeQuery

data = tdrive_like(40, seed=3, max_points=30)
tman = TMan(TManConfig(boundary=TDRIVE_SPEC.boundary, num_shards=2, kv_workers=2))
tman.bulk_load(data)
assert tman.query(SpatialRangeQuery(data[0].mbr)).trajectories
assert tman.query(TemporalRangeQuery(data[0].time_range)).trajectories
tman.health()
tman.close()
print(sorted(sys.modules))
"""


def test_thread_mode_tman_loads_no_process_cluster_code():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", THREAD_MODE_PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = set(ast.literal_eval(out.stdout))
    assert "repro.storage.tman" in loaded
    assert sorted(loaded & set(PROCESS_CLUSTER)) == []


def test_worker_loads_no_excluded_stdlib_module(worker_modules):
    leaked = sorted(
        m for m in worker_modules if any(_under(m, ex) for ex in EXCLUDED_STDLIB)
    )
    assert leaked == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_exported_name(package):
    module = importlib.import_module(package)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), name


def test_reexports_are_the_defining_objects():
    import repro
    import repro.cluster
    import repro.kvstore
    from repro.cluster.process_cluster import ProcessCluster
    from repro.kvstore.cluster import Cluster
    from repro.storage.tman import TMan

    import repro.obs
    import repro.runtime
    from repro.obs.export import chrome_trace
    from repro.runtime.admission import AdmissionController

    assert repro.TMan is TMan
    assert repro.kvstore.Cluster is Cluster
    assert repro.cluster.ProcessCluster is ProcessCluster
    assert repro.obs.chrome_trace is chrome_trace
    assert repro.runtime.AdmissionController is AdmissionController


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    assert not hasattr(module, "no_such_name")


# The comparators and the extensions live under benchmarks/, which the
# installed package does not ship: no module of the system may import them.
REMOVED = ["benchmarks", "repro.baselines", "repro.core.baselines", "repro.analytics",
           "repro.similarity.join"]


def _imported_modules(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_no_module_of_the_system_imports_benchmarks_or_a_removed_path():
    found = sorted(
        f"{path.relative_to(SRC)}: {name}"
        for path in SRC.rglob("*.py")
        for name in _imported_modules(ast.parse(path.read_text(), str(path)))
        if any(_under(name, removed) for removed in REMOVED)
    )
    assert found == []
