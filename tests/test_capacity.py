"""Capacity/belief recognition, k-monotonicity, valuations, conjugates."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latbel as lb
from latbel.errors import SizeLimitExceeded

from conftest import (
    bool_lattice,
    chain_lattice,
    corpus,
    m3,
    moore_lattice,
    n5,
    random_capacity_on_chain,
    random_mass,
    small_corpus,
)

TOL = 1e-9


def members(name):
    inner = name[1:-1]
    return frozenset(inner.split(",")) if inner else frozenset()


def normalized_height(l):
    top = l.heights[l.top]
    return lb.SetFunction(l, {x: l.heights[x] / top for x in l.elements})


def non_belief_capacity_b2():
    """On the four subsets of {1, 2}: both singletons already at 1."""
    l = bool_lattice(2)
    return l, lb.SetFunction(l, {"{}": 0.0, "{1}": 1.0, "{2}": 1.0, "{1,2}": 1.0})


# -- check_capacity ---------------------------------------------------------------

def test_normalized_height_is_a_capacity():
    for l in (bool_lattice(3), m3(), chain_lattice(4)):
        assert lb.check_capacity(normalized_height(l))


def test_capacity_boundary_witness():
    l = chain_lattice(2)
    f = lb.SetFunction(l, {"c0": 0.1, "c1": 0.5, "c2": 1.0})
    res = lb.check_capacity(f)
    assert not res
    assert res.witness == ("c0",)


def test_capacity_isotonicity_witness():
    l = chain_lattice(2)
    f = lb.SetFunction(l, {"c0": 0.0, "c1": 0.9, "c2": 1.0})
    assert lb.check_capacity(f)
    g = lb.SetFunction(l, {"c0": 0.0, "c1": 1.2, "c2": 1.0})
    res = lb.check_capacity(g)
    assert not res and res.witness == ("c1", "c2")


def test_beliefs_are_capacities():
    rng = random.Random(3)
    for _, l in corpus():
        bel = lb.zeta_transform(random_mass(l, rng))
        assert lb.check_capacity(bel)
        assert lb.check_belief(bel)


# -- check_belief ------------------------------------------------------------------

def test_chain_capacities_are_beliefs():
    rng = random.Random(17)
    for k in range(2, 9):
        l = chain_lattice(k)
        for _ in range(20):
            assert lb.check_belief(random_capacity_on_chain(l, rng))


def test_non_belief_on_b2_with_mass_minus_one():
    l, f = non_belief_capacity_b2()
    res = lb.check_belief(f)
    assert not res
    assert res.witness == ("{1,2}",)
    m = lb.mobius_transform(f)
    assert m["{1,2}"] == pytest.approx(-1.0, abs=TOL)


# -- k-monotonicity ----------------------------------------------------------------

def test_beliefs_are_k_monotone():
    rng = random.Random(23)
    for _, l in small_corpus():
        bel = lb.zeta_transform(random_mass(l, rng))
        for k in (2, 3, 4):
            assert lb.check_k_monotone(bel, k)


def test_m3_height_is_a_2_valuation_but_not_3_monotone():
    f = normalized_height(m3())
    assert lb.check_k_monotone(f, 2)
    assert lb.check_k_valuation(f, 2)
    res = lb.check_k_monotone(f, 3)
    # the three atoms give f(top) = 1 against an alternating sum of 1.5
    assert not res
    assert set(res.witness) == {"a", "b", "c"}


def test_n5_height_is_not_a_2_valuation():
    f = normalized_height(n5())
    res = lb.check_k_valuation(f, 2)
    assert not res
    assert set(res.witness) == {"x", "z"}


def test_boolean_probability_is_a_valuation_at_every_k():
    l = bool_lattice(3)
    rng = random.Random(29)
    weights = {a: rng.uniform(0.1, 1.0) for a in ("1", "2", "3")}
    total = sum(weights.values())
    prob = lb.SetFunction(
        l, {x: sum(weights[a] for a in members(x)) / total for x in l.elements}
    )
    for k in (2, 3, 4):
        assert lb.check_k_valuation(prob, k)
        assert lb.check_k_monotone(prob, k)


def test_non_belief_fails_2_monotonicity_on_singleton_pair():
    l, f = non_belief_capacity_b2()
    res = lb.check_k_monotone(f, 2)
    assert not res
    assert res.witness == ("{1}", "{2}")


def test_repeated_families_reduce_to_smaller_distinct_ones():
    # brute-force oracle: enumerating multisets gives the same verdict as
    # requiring every distinct family of size <= k
    rng = random.Random(31)

    def with_repetitions(f, k):
        l = f.lattice
        for fam in itertools.combinations_with_replacement(l.elements, k):
            lhs = f[lb.join(l, fam)]
            rhs = 0.0
            for r in range(1, k + 1):
                for sub in itertools.combinations(fam, r):
                    rhs += (1 if r % 2 else -1) * f[lb.meet(l, sub)]
            if lhs < rhs - TOL:
                return False
        return True

    for _, l in small_corpus(max_size=6):
        for _ in range(6):
            f = lb.SetFunction(l, {x: rng.uniform(0, 1) for x in l.elements})
            for k in (2, 3):
                expected = all(lb.check_k_monotone(f, j) for j in range(2, k + 1))
                assert with_repetitions(f, k) == expected
                assert bool(lb.check_k_monotone(f, k)) == with_repetitions(f, k)


def vacuous_plausibility_b3():
    """0 at bottom, 1 elsewhere: a capacity that is not 2-monotone ({1}, {2}
    fail), although every family of exactly 6 distinct members passes."""
    l = bool_lattice(3)
    return lb.SetFunction(l, {x: 0.0 if x == l.bottom else 1.0 for x in l.elements})


def test_k_monotone_fails_at_the_smallest_failing_size():
    f = vacuous_plausibility_b3()
    assert lb.check_capacity(f)
    assert lb.capacity.max_k_monotone(f) == 1
    for k in range(2, 7):
        res = lb.check_k_monotone(f, k)
        assert not res and res.witness == ("{1}", "{2}"), k
        assert res.detail == "f(join) = 1.0 < 2.0"
    res = lb.check_total_monotone(f)
    assert not res and res.detail == "fails at k=2: f(join) = 1.0 < 2.0"
    assert not lb.check_k_valuation(f, 4)


def signed_additive_b4():
    """The additive function of B4 with mass -0.5 on {1} and 0.5 on {2}, {3}
    and {4}.  Its negative mass sits on a join-irreducible, which lies under
    a member of every family whose join is above it, so every family passes
    but only after the sweep has built every antichain."""
    l = bool_lattice(4)
    return lb.SetFunction(l, {x: sum(-0.5 if a == "1" else 0.5 for a in x[1:-1].split(",") if a)
                              for x in l.elements})


def test_k_family_checks_refuse_work_over_the_meet_cap():
    # a size-k sweep builds the 16 singletons and the antichains of 2 to k
    # members (55 pairs, 64 triples) anew: 71 families for k = 2, 71 + 135
    # for k = 3
    f = signed_additive_b4()
    assert lb.check_k_monotone(f, 2, max_families=71)
    for check in (lb.check_k_monotone, lb.check_k_valuation):
        with pytest.raises(SizeLimitExceeded,
                           match="206 families exceed the cap of 205; raise it with --limit"):
            check(f, 3, TOL, 205)
        assert check(f, 3, TOL, 206)
    with pytest.raises(SizeLimitExceeded, match="866 families"):
        lb.check_total_monotone(f, max_families=865)
    assert lb.capacity.max_k_monotone(f, TOL, 865) is None
    assert lb.capacity.max_k_monotone(f, TOL, 866) == "total"
    # without negative mass nothing is built
    assert lb.capacity.max_k_monotone(normalized_height(bool_lattice(3)), TOL, 0) == "total"


def test_total_monotone_for_zeta_of_masses():
    rng = random.Random(37)
    for _, l in small_corpus():
        for _ in range(5):
            bel = lb.zeta_transform(random_mass(l, rng))
            assert lb.check_total_monotone(bel)


def test_total_monotone_family_cap():
    with pytest.raises(SizeLimitExceeded):
        lb.check_total_monotone(signed_additive_b4(), max_families=10)


# -- conjugation -------------------------------------------------------------------

def complement_negation(l):
    atoms = set(l.atoms)
    mapping = {
        x: "{" + ",".join(sorted(a[1:-1] for a in atoms - set(lb.eta(l, x)))) + "}"
        for x in l.elements
    }
    return lb.negation_from_map(l, mapping)


def test_conjugate_round_trip_and_capacity():
    rng = random.Random(41)
    l = bool_lattice(3)
    n = complement_negation(l)
    bel = lb.zeta_transform(random_mass(l, rng))
    pl = lb.conjugate(bel, n, "vee")
    assert lb.check_capacity(pl)
    back = lb.conjugate(lb.conjugate(bel, n, "wedge"), n, "vee")
    for x in l.elements:
        assert back[x] == pytest.approx(bel[x], abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(l=st.randoms().map(moore_lattice), dual=st.booleans(), rng=st.randoms())
def test_conjugations_undo_each_other_on_random_moore_families(l, dual, rng):
    if dual:
        l = lb.dual_lattice(l)
    found = lb.find_negations(l, limit=1)
    if not found:
        return
    n = found[0]
    f = lb.SetFunction(l, {x: rng.randint(-64, 64) / 64 for x in l.elements})
    # 1 - (1 - v) is v exactly on these values
    assert lb.conjugate(lb.conjugate(f, n, "vee"), n, "wedge").vector == f.vector
    assert lb.conjugate(lb.conjugate(f, n, "wedge"), n, "vee").vector == f.vector


def test_conjugate_is_plausibility_on_booleans():
    rng = random.Random(43)
    l = bool_lattice(3)
    n = complement_negation(l)
    m = random_mass(l, rng)
    pl = lb.conjugate(lb.zeta_transform(m), n, "vee")
    for a in l.elements:
        hitting = sum(m[b] for b in l.elements if members(b) & members(a))
        assert pl[a] == pytest.approx(hitting, abs=TOL)


def test_conjugate_rejects_foreign_negation():
    rng = random.Random(47)
    l = bool_lattice(2)
    other = bool_lattice(3)
    bel = lb.zeta_transform(random_mass(l, rng))
    with pytest.raises(lb.errors.InvalidNegation):
        lb.conjugate(bel, complement_negation(other), "vee")


# -- the report --------------------------------------------------------------------
#
# What ``latbel bel check --max-k`` reports, one library call per line.

def test_capacity_report_consistency():
    rng = random.Random(53)
    l = bool_lattice(2)
    bel = lb.zeta_transform(random_mass(l, rng))
    assert lb.check_belief(bel) and lb.check_capacity(bel)
    assert lb.capacity.max_k_monotone(bel) == "total"

    _, f = non_belief_capacity_b2()
    assert lb.check_capacity(f)
    res = lb.check_belief(f)
    assert not res and res.witness is not None
    assert lb.capacity.max_k_monotone(f) == 1


def test_report_belief_implies_capacity_on_random_inputs():
    rng = random.Random(59)
    for _, l in small_corpus(max_size=6):
        for _ in range(10):
            f = lb.SetFunction(l, {x: rng.uniform(0, 1) for x in l.elements})
            if lb.check_belief(f):
                assert lb.check_capacity(f)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9],
                         ids=["nan", "inf", "-inf", "negative"])
def test_checks_refuse_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    # against tol = nan every comparison passes, so f({1}) = 1.5 > f(top)
    # would count as a capacity, belief, necessity and totally monotone
    l = bool_lattice(2)
    f = lb.SetFunction(l, {"{}": 0.0, "{1}": 1.5, "{2}": 0.0, "{1,2}": 1.0})
    for check in (lb.check_capacity, lb.check_belief, lb.check_necessity,
                  lb.check_possibility, lb.check_total_monotone, lb.capacity.max_k_monotone,
                  lambda f, tol: lb.check_k_monotone(f, 2, tol),
                  lambda f, tol: lb.check_k_valuation(f, 2, tol)):
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            check(f, tol)
    assert not lb.check_capacity(f, 0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9],
                         ids=["nan", "inf", "-inf", "negative"])
def test_constructors_refuse_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    # against tol = nan a mass totalling 2.3 passes, and pi values inside
    # [0, 1] fail "outside [0, 1]"
    l = bool_lattice(2)
    mass = {"{}": 0.0, "{1}": 1.0, "{2}": 1.0, "{1,2}": 0.3}
    m = lb.MassAllocation(l, {"{}": 0.0, "{1}": 0.5, "{2}": 0.0, "{1,2}": 0.5})
    pi = {"{1}": 0.5, "{2}": 1.0}
    neg = lb.find_negations(l)[0]
    for call in (lambda: lb.MassAllocation(l, mass, tol=tol),
                 lambda: lb.combine(m, m, "normalize", tol=tol),
                 lambda: m.focal_elements(tol),
                 lambda: m.is_nonnegative(tol),
                 lambda: lb.PossibilityDistribution(l, pi, tol=tol),
                 lambda: lb.NecessityDistribution(l, {"{1}": 0.0, "{2}": 0.5}, tol=tol),
                 lambda: lb.reconstruct_chain(l, neg, pi, tol=tol)):
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            call()
    assert lb.reconstruct_chain(l, neg, pi).chain == ("{1}", "{1,2}")
