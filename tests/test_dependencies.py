"""The package has no runtime dependencies beyond the standard library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"


@pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"), reason="needs Python 3.10+"
)
def test_entry_points_import_only_the_standard_library():
    # A fresh interpreter: the test session itself loads pytest and
    # hypothesis.  Modules the interpreter loaded at start-up are not
    # the package's doing, so only the ones its imports add count.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro, repro.cli, repro.serve, repro.optimal, "
        "repro.explore, repro.eval\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "third_party = added - set(sys.stdlib_module_names) - {'repro'}\n"
        "assert not third_party, sorted(third_party)\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def test_cli_import_leaves_the_fuzz_package_unloaded():
    # Only ``repro fuzz`` needs the fuzz package (and through it the
    # translation validator); every other launch must not load it.
    code = "import sys, repro.cli\nassert 'repro.fuzz' not in sys.modules\n"
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
