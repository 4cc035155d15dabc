"""What importing the CLI loads: every CLI call is a fresh process, so each
module the import pulls in is paid on every call."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site, so no .pth file imports either module first and hides
    # one that the package imports; -E: no PYTHON* variable adds a path
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ahweyl.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n"
