"""Put the repository root and ``src/`` on the path for the benchmark tests.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
