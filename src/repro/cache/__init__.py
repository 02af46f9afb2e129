"""Index-cache subsystem: LFU cache, the shape index cache and the buffer shape cache.

The paper persists the mapping ``<enlarged element, shape, final code>`` in
Redis, pulls hot elements into a process-local LFU cache, and stages shapes
for not-yet-optimized trajectories in a *buffer shape cache* that triggers
re-encoding when full.  Here the mappings are rows of the deployment's
metadata table (``tman_meta``), so a deployment's directory holds them with
its data; the LFU cache and the buffer shape cache are as in the paper.
"""

from repro.cache.index_cache import BufferShapeCache, ShapeIndexCache
from repro.cache.lfu import LFUCache

__all__ = ["LFUCache", "ShapeIndexCache", "BufferShapeCache"]
