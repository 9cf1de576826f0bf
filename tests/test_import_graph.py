"""Guard what `import sweepcover.cli` and the counting commands load, so
start-up and per-command import cost cannot creep back, and guard that the
package exports nothing only the tests use.

The check runs in a fresh `python -S` interpreter: without the `site` hook
nothing else has loaded these modules, so the list below is what the
package alone pulls in.  It counts modules, not milliseconds, and so gives
the same answer on any machine.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import sweepcover

# Each of these costs start-up time that no command needs: `dataclasses`
# brings `inspect`, `ast`, `dis` and `tokenize`; `typing` is used only in
# annotations, and `random` and `sweepcover.corpus` only by `oracle-check`;
# `argparse` (with `gettext`) is built only for help, usage errors and
# command lines that are not plain; `fractions` (with `decimal` and
# `numbers`) is needed by no command, since `growth-report` divides its
# exact counts as ints.
UNNEEDED = (
    "dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "random", "argparse", "gettext",
    "fractions", "decimal", "numbers", "sweepcover.corpus",
)

# Prints the modules `import sweepcover.cli` loads, then, for each counting
# command run through `main` with its output sent to a StringIO, its exit
# code and the modules it loaded beyond those already present.
SNIPPET = """\
import io, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from sweepcover.cli import main
print("import", 0, " ".join(sorted(set(sys.modules) - before)))
for argv in (
    ["count", "--delta", "3", "--gamma", "1", "--n", "20"],
    ["table", "--delta-range", "2..5", "--n-max", "8"],
    ["bound-report", "--delta", "3", "--n-max", "10"],
    ["growth-report", "--delta", "2", "--gamma", "1", "--n-max", "30"],
):
    before, stdout, sys.stdout = set(sys.modules), sys.stdout, io.StringIO()
    try:
        code = main(argv)
    finally:
        sys.stdout = stdout
    print(argv[0], code, " ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_unneeded_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sweepcover.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SNIPPET, src],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [line[:2] for line in lines] == [
        ["import", "0"], ["count", "0"], ["table", "0"], ["bound-report", "0"], ["growth-report", "0"],
    ]
    assert "sweepcover.cli" in lines[0]
    for step, _, *loaded in lines:
        assert sorted(set(loaded).intersection(UNNEEDED)) == [], step


def test_every_public_name_is_used_outside_the_tests():
    """Code outside the tests uses each exported name and public `Tree` attribute.

    The code that counts is the package's modules (not `__init__.py`, which
    only re-exports), the demos and the acceptance test.  A use is a name or
    an attribute read in the parsed code, so a definition, an import, a
    comment or a docstring is not one, and neither is a mention in README.
    """
    repo = Path(__file__).resolve().parents[1]
    package = repo / "src" / "sweepcover"
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((repo / "demos").glob("*.py"))
    paths += [repo / "tests" / "test_acceptance.py"]
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unused = set(sweepcover.__all__) - names - attributes
    unused |= {n for n in dir(sweepcover.Tree) if not n.startswith("_")} - attributes
    assert sorted(unused) == []
