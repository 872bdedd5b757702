"""The benchmark tracer patches program functions by name.  This test fails
when a rename or removal would break ``lcbench/run.py --trace 1``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_program():
    code = (
        "import sys; sys.path[:0] = %r\n"
        "import tracer; tracer.install(tracer.Tracer())\n"
        % [str(ROOT / "lcbench"), str(ROOT / "src")]
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
