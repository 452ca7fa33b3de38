"""``import repro`` stays light: no sparse-matrix stack at import time.

Nothing in the simulator needs ``scipy.sparse``; loading it costs about
11 MB of baseline resident memory in every process, benchmarks included.
The check runs in a fresh interpreter so modules other tests imported do
not mask it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_repro_does_not_load_scipy_sparse():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    probe = (
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip() == "[]", result.stdout
