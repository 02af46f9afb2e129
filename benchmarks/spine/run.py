"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/spine/run.py``.

Puts the checkout's ``src/`` and root on ``sys.path`` (the driver sets no
``PYTHONPATH``) and hands over to :mod:`benchmarks.spine.cli`.  The import
sits under the ``__main__`` guard because process-mode workers are spawned:
each re-imports this file, and must not pay for — or re-run — the harness.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

if __name__ == "__main__":
    from benchmarks.spine.cli import main

    sys.exit(main())
