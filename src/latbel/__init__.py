"""Belief-function calculus on arbitrary finite lattices.

Lattices are declared by cover relations; on top of them the package
provides Moebius/zeta/commonality transforms, capacity and belief-function
recognizers, k-monotonicity checks, negation search, Dempster combination,
simple-support decomposition, and possibility/necessity analysis with focal
chain reconstruction.

Importing the package loads none of its modules: each public name, and each
submodule, is imported on first access (PEP 562).
"""

import sys

__version__ = "0.1.0"

# Each module with the public names it defines; a module's own name is the module.
_EXPORTS = {
    "capacity": "CheckResult check_belief check_capacity check_k_monotone check_k_valuation "
                "check_total_monotone conjugate",
    "cli": "",
    "duality": "Negation find_negations invert is_involutive negation_from_irreducible_map "
               "negation_from_map verify_vee_negation",
    "errors": "",
    "evidence": "MassAllocation SupportWeights combine decompose recombine simple_support",
    "io": "",
    "lattice": "DownsetLattice Lattice Poset StructureProfile boolean_lattice build_poset "
               "downset_lattice dual_lattice eta eta_star join lattice_from_poset "
               "maximal_chains meet mu_set mu_star profile",
    "possibilistic": "FocalChain NecessityDistribution PossibilityDistribution check_necessity "
                     "check_possibility eval_necessity eval_possibility necessity_distribution "
                     "possibility_distribution reconstruct_chain",
    "transforms": "MobiusMatrix SetFunction comobius_transform mass_from_comobius "
                  "mobius_function mobius_transform zeta_transform",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in [module, *names.split()]}
__all__ = list(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")  # as an import statement does, so -X importtime lists it
    module = sys.modules[f"{__name__}.{home}"]
    globals()[name] = value = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
