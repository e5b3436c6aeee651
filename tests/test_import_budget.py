"""Guard for the package's import cost: ``import focusfdr`` and the CLI
module load no process-pool machinery.  Only ``run_simulation`` with more
than one worker uses a pool, and it imports one where it runs, so every
other import of the package and every CLI call skips ``multiprocessing``
and what it pulls in (``socket``, ``logging``)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
POOL_MODULES = ("multiprocessing", "concurrent.futures")


def test_import_loads_no_process_pool():
    # a fresh interpreter: this one has run pooled tests already
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, focusfdr, focusfdr.cli; "
            f"print([m for m in {POOL_MODULES!r} if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, timeout=120, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
