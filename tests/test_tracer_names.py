"""Every name the traced benchmark wraps must still exist in the package.

bench/tracer.py replaces functions and methods by name (for example
``wishartmin.exactlaw.logdet_lu``); a renamed or deleted name would only
show when the traced benchmark runs.  ``install`` monkeypatches the
package, so it runs in a separate interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_package():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "from tracer import Tracer, install; install(Tracer())"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT / "bench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
