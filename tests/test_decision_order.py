"""The order in which the structural flags are decided.

Distributivity is decided from the two locally distributive flags, and
complementedness from the distributive and atomistic ones, so the single
property entry points must agree with the oracles however they are first
reached: before any profile is computed, on a lattice with nothing cached.
The downset lattices of random posets are all distributive and mostly not
Boolean, so they take the complemented-via-atomistic path both ways.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latbel as lb
from latbel.errors import DecompositionNotUnique

from conftest import moore_lattice
from test_oracles import (
    LATTICES,
    downset_lattices,
    greedy_decomposition,
    oracle_of,
    oracle_profile,
)


def fresh(l):
    """The same lattice rebuilt, with nothing cached on it."""
    return lb.lattice_from_poset(lb.build_poset(l.elements, l.covers))


def assert_cold_entry_points_match_the_oracle(l):
    o = oracle_of(l)
    flags, _ = oracle_profile(o)
    for name in ("is_distributive", "is_lower_locally_distributive",
                 "is_upper_locally_distributive"):
        cold = fresh(l)
        assert getattr(lb.lattice, name)(cold) == flags[name], name
        assert "profile" not in cold._cache
    for side, star, view in (("lower", lb.eta_star, o), ("upper", lb.mu_star, o.dual())):
        cold = fresh(l)
        if flags[f"is_{side}_locally_distributive"]:
            assert {x: star(cold, x) for x in cold.elements} == {
                x: greedy_decomposition(view, x) for x in cold.elements}
        else:
            with pytest.raises(DecompositionNotUnique):
                star(cold, cold.top)
        assert "profile" not in cold._cache
    return flags


def test_cold_entry_points_match_the_oracle():
    rng = random.Random(13)
    bases = [l for _, l in LATTICES] + [moore_lattice(rng) for _ in range(120)]
    distributive = 0
    for l in bases + [lb.dual_lattice(b) for b in bases]:
        distributive += assert_cold_entry_points_match_the_oracle(l)["is_distributive"]
    assert 10 <= distributive <= len(bases) * 2 - 10, distributive


@settings(max_examples=80, deadline=None)
@given(l=downset_lattices(), dual=st.booleans())
def test_profile_matches_the_oracle_on_random_downset_lattices(l, dual):
    if dual:
        l = lb.dual_lattice(l)
    flags, witnesses = oracle_profile(oracle_of(l))
    prof = lb.profile(l)
    assert prof.is_distributive
    assert prof.flags() == flags
    assert prof.witnesses == witnesses
