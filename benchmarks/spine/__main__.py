"""``PYTHONPATH=src python -m benchmarks.spine`` — same CLI as ``run.py``."""

import sys

if __name__ == "__main__":
    from benchmarks.spine.cli import main

    sys.exit(main())
