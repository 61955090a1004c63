"""The benchmark launcher's hooks still find every perfex name they wrap.

``perfbench/launcher.py`` wraps public names of perfex modules by attribute,
so a change that drops one of those names breaks the traced benchmark.  This
test installs the hooks in a child process; it only reads ``perfbench/``.
"""

import subprocess
import sys
from pathlib import Path

from tests._subprocess import child_env

LAUNCHER = Path(__file__).resolve().parents[1] / "perfbench" / "launcher.py"

# run_path executes the launcher without importing it as a module, so no
# bytecode is written next to it, and without running its main().
INSTALL = (
    "import runpy, sys\n"
    "launcher = runpy.run_path(sys.argv[1])\n"
    "launcher['install'](launcher['Recorder']())\n"
)


def test_launcher_installs_its_hooks():
    p = subprocess.run(
        [sys.executable, "-c", INSTALL, str(LAUNCHER)], env=child_env(), capture_output=True
    )
    assert p.returncode == 0, p.stderr.decode()
