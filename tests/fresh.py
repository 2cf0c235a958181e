"""Running exprec in a fresh interpreter, for tests."""

import os
import subprocess
import sys
from pathlib import Path

import exprec


def run_python(*args, **env) -> subprocess.CompletedProcess:
    """``python *args`` in a new process whose environment adds ``env`` and
    puts this exprec's ``src`` first on PYTHONPATH; output is captured as text."""
    env = dict(os.environ, **env)
    src = str(Path(exprec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=300)
