"""Every callable the spine benchmark traces still exists under its name.

``benchmarks/spine/tracing.py`` wraps a fixed list of ``repro`` callables
by module, class and attribute name.  A target that a rename removed is
skipped and listed in ``Tracer.missing`` rather than failing the run, which
silently blinds the spine metrics built on it; this test catches that in
tier-1.
"""

from benchmarks.spine import tracing


def test_every_spine_trace_target_resolves():
    tracer = tracing.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
