"""The installed program needs numpy alone; scipy is a test dependency."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_scipy_module_is_loaded_by_the_program():
    code = (
        "import sys\n"
        "import todalab.cli, todalab.scattering, todalab.laxboundary, todalab.simulate, todalab.algebra\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
