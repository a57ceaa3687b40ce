"""Every script under ``examples/`` runs to completion on the current API.

Each example runs in its own interpreter with deprecations promoted to
errors, so an example that still calls a removed or deprecated surface
fails here rather than in a user's terminal.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
_EXAMPLES = sorted((_REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", _EXAMPLES, ids=[p.name for p in _EXAMPLES])
def test_example_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
