"""Each module imports on its own, in a fresh interpreter, under an empty
package: its own imports decide the order, so an import cycle that the
order of ``latbel/__init__.py`` happens to hide still fails.

The package imports lazily: ``import latbel`` loads no module, every public
name still resolves from it, and a command line call loads only the modules
its command runs (each run in a fresh interpreter too)."""

import importlib
import json
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


SRC = os.path.dirname(PACKAGE_DIR)
# Every public name ``import latbel`` bound when it imported each module eagerly.
EXPORTED = """
CheckResult DownsetLattice FocalChain Lattice MassAllocation MobiusMatrix NecessityDistribution
Negation Poset PossibilityDistribution SetFunction StructureProfile SupportWeights
boolean_lattice build_poset check_belief check_capacity check_k_monotone check_k_valuation
check_necessity check_possibility check_total_monotone combine comobius_transform conjugate
decompose downset_lattice dual_lattice eta eta_star eval_necessity eval_possibility
find_negations invert is_involutive join lattice_from_poset mass_from_comobius maximal_chains
meet mobius_function mobius_transform mu_set mu_star necessity_distribution
negation_from_irreducible_map negation_from_map possibility_distribution profile recombine
reconstruct_chain simple_support verify_vee_negation zeta_transform
""".split()
PUBLIC = EXPORTED + [m for m in MODULES if not m.startswith("_")]


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter that imports latbel from this
    checkout; return the JSON document its last line of output prints."""
    path = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.startswith('latbel.'))"


def test_importing_the_package_loads_no_module_but_errors():
    loaded = run_fresh(f"import json, sys, latbel; print(json.dumps({LOADED}))")
    assert set(loaded) <= {"latbel.errors"}


def loaded_by(argv, code=0):
    """The latbel modules, and dataclasses or inspect, one CLI call loads."""
    code = f"""import json, sys
from latbel.cli import main
assert main({argv!r}) == {code}
print(json.dumps({{"latbel": {LOADED},
                  "stdlib": [m for m in ("dataclasses", "inspect") if m in sys.modules]}}))"""
    return run_fresh(code)


def b2_files(tmp_path):
    lattice = tmp_path / "b2.json"
    lattice.write_text(json.dumps({"v": 1, "elements": ["0", "a", "b", "1"],
                                   "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}))
    function = tmp_path / "f.json"
    function.write_text(json.dumps({"v": 1, "values": {"0": 0, "a": 0, "b": 0.5, "1": 1}}))
    return str(lattice), str(function)


def test_a_chains_call_loads_only_what_chains_runs(tmp_path):
    lattice, _ = b2_files(tmp_path)
    loaded = loaded_by(["chains", lattice])
    assert loaded["latbel"] == ["latbel.cli", "latbel.errors", "latbel.io", "latbel.lattice"]
    assert loaded["stdlib"] == []


@pytest.mark.parametrize("command", ["necessity", "possibility"])
def test_min_max_checks_load_no_negation_or_evidence_layer(tmp_path, command):
    lattice, function = b2_files(tmp_path)
    loaded = loaded_by(["bel", command, "--lattice", lattice, function],
                       0 if command == "necessity" else 1)
    assert loaded["latbel"] == ["latbel.capacity", "latbel.cli", "latbel.errors", "latbel.io",
                                "latbel.lattice", "latbel.possibilistic", "latbel.transforms"]
    assert loaded["stdlib"] == []


def test_every_public_name_resolves_from_a_fresh_import():
    code = f"""import json, latbel
names = {PUBLIC!r}
print(json.dumps([n for n in names if getattr(latbel, n, None) is None]))"""
    assert run_fresh(code) == []


def test_dir_and_star_import_list_every_public_name():
    code = """import json, latbel
star = {}
exec("from latbel import *", star)
print(json.dumps({"dir": dir(latbel), "star": sorted(star)}))"""
    names = run_fresh(code)
    assert set(PUBLIC) <= set(names["dir"])
    assert set(PUBLIC) <= set(names["star"])


def test_each_public_name_is_its_module_attribute():
    for name in EXPORTED:
        home = latbel._HOME[name]
        assert getattr(latbel, name) is getattr(importlib.import_module(f"latbel.{home}"), name)
