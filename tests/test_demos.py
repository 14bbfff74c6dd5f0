"""Every script under demos/, and the README's library quickstart, runs
to completion against the source tree with SciPy unimportable, as the
runtime needs NumPy only.

Each runs in its own interpreter with ``src`` on the import path
and the temporary directory pointed at the test's own, so scratch
directories a demo creates are cleaned up with the test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICKSTART = (ROOT / "README.md").read_text(encoding="utf-8").split("```python\n")[1].split("```")[0]
NO_SCIPY = "import sys\nsys.modules['scipy'] = None  # any import of SciPy fails\n"
RUN_DEMO = "import runpy\nrunpy.run_path(%r, run_name='__main__')\n"


@pytest.mark.parametrize("script", [RUN_DEMO % str(d) for d in DEMOS] + [QUICKSTART],
                         ids=[d.stem for d in DEMOS] + ["readme_quickstart"])
def test_demo_exits_cleanly(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY + script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
