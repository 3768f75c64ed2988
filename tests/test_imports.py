"""Each module imports on its own, in a fresh interpreter, under an empty
package: its own imports decide the order, so an import cycle that the
order of ``latbel/__init__.py`` happens to hide still fails."""

import os
import pkgutil
import subprocess
import sys

import pytest

import latbel

PACKAGE_DIR = os.path.dirname(latbel.__file__)
MODULES = sorted(m.name for m in pkgutil.iter_modules([PACKAGE_DIR]))

IMPORT_ALONE = """
import importlib, sys, types
package = types.ModuleType("latbel")
package.__path__ = [{path!r}]
sys.modules["latbel"] = package
importlib.import_module("latbel.{module}")
"""


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    code = IMPORT_ALONE.format(path=PACKAGE_DIR, module=module)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
