"""The package's footprint: which commands load the AEAD library, and no
definition that nothing calls.

`gaskit.gas_core` imports `cryptography` (and its bundled OpenSSL, several
megabytes resident) at the first seal or open, not when gaskit is imported.
Each case runs one CLI command in a fresh interpreter and reports whether
the library ended up in `sys.modules`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaskit

SRC = Path(gaskit.__file__).resolve().parents[1]

PROBE = """
import contextlib, io, sys
from gaskit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "cryptography" in sys.modules)
"""


def _run(argv):
    """(exit code, whether `cryptography` was imported) of one CLI command."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                         text=True, env=env, check=True, timeout=120).stdout
    code, loaded = out.split()
    return int(code), loaded == "True"


@pytest.mark.parametrize("argv", [
    ["cost", "--m-range", "10:10:10"],
    ["simulate", "--scenario", "builtin:paper-fig3"],
    ["sweep", "--schemes", "harn,proposed-centralized", "--m-list", "10"],
    ["gen-params", "--kind", "curve"],
], ids=["cost", "simulate", "sweep", "gen-params"])
def test_commands_that_never_encrypt_never_load_the_aead_library(argv):
    assert _run(argv) == (0, False)


def test_demo_loads_the_aead_library():
    assert _run(["demo"]) == (0, True)


def test_gas_core_resolves_only_the_aead_names_lazily():
    from gaskit import gas_core

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        gas_core.nope
    assert gas_core.InvalidTag.__module__ == "cryptography.exceptions"
    assert "InvalidTag" in vars(gas_core)  # kept after the first access


def test_every_definition_has_a_use_in_the_package():
    # a function or class whose name the package reads nowhere, as a name,
    # an attribute or an import, has no caller but the tests: its own `def`
    # and its `__all__` string do not count.  Dunder methods are called by
    # the language, not by name.
    defined, used = [], set()
    for path in sorted((SRC / "gaskit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert [name for name in defined if name.split(".")[1] not in used] == []
