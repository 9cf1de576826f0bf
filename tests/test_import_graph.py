"""Guard what `import sweepcover.cli` loads, so start-up cost cannot creep back.

The check runs in a fresh `python -S` interpreter: without the `site` hook
nothing else has loaded these modules, so the list below is what the
package alone pulls in.  It counts modules, not milliseconds, and so gives
the same answer on any machine.
"""

import os
import subprocess
import sys

import sweepcover

# Each of these costs start-up time that no command needs: `dataclasses`
# brings `inspect`, `ast`, `dis` and `tokenize`; `typing` and `random` are
# used only in annotations or by `oracle-check`; `argparse` (with `gettext`)
# is built only for help, usage errors and command lines that are not plain;
# `fractions` (with `decimal` and `numbers`) serves `growth-report` alone.
UNNEEDED = (
    "dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "random", "argparse", "gettext",
    "fractions",
)

SNIPPET = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import sweepcover.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_unneeded_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sweepcover.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SNIPPET, src],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "sweepcover.cli" in loaded
    assert sorted(loaded.intersection(UNNEEDED)) == []
