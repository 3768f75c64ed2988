"""Belief-function calculus on arbitrary finite lattices.

Lattices are declared by cover relations; on top of them the package
provides Moebius/zeta/commonality transforms, capacity and belief-function
recognizers, k-monotonicity checks, negation search, Dempster combination,
simple-support decomposition, and possibility/necessity analysis with focal
chain reconstruction.
"""

from . import errors
from .capacity import (
    CheckResult,
    check_belief,
    check_capacity,
    check_k_monotone,
    check_k_valuation,
    check_total_monotone,
    conjugate,
)
from .duality import (
    Negation,
    find_negations,
    invert,
    is_involutive,
    negation_from_irreducible_map,
    negation_from_map,
    verify_vee_negation,
)
from .evidence import (
    MassAllocation,
    SupportWeights,
    combine,
    decompose,
    recombine,
    simple_support,
)
from .lattice import (
    DownsetLattice,
    Lattice,
    Poset,
    StructureProfile,
    boolean_lattice,
    build_poset,
    downset_lattice,
    dual_lattice,
    eta,
    eta_star,
    join,
    lattice_from_poset,
    maximal_chains,
    meet,
    mu_set,
    mu_star,
    profile,
)
from .possibilistic import (
    FocalChain,
    NecessityDistribution,
    PossibilityDistribution,
    check_necessity,
    check_possibility,
    eval_necessity,
    eval_possibility,
    necessity_distribution,
    possibility_distribution,
    reconstruct_chain,
)
from .transforms import (
    MobiusMatrix,
    SetFunction,
    comobius_transform,
    mass_from_comobius,
    mobius_function,
    mobius_transform,
    zeta_transform,
)

__version__ = "0.1.0"
