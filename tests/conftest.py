# qnd first: importing it sets one OpenBLAS thread, which holds only if
# numpy is not loaded yet.  Whichever test module pytest collects first,
# numpy then loads under the setting that the qnd command runs with.
import qnd

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def run_optimized():
    """Run a script under ``python -O``, which strips bare ``assert``
    statements, with this checkout's sources importable; returns stdout."""

    def run(script):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    return run
