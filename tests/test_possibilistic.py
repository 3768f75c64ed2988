"""Necessity/possibility recognition, distributions, and focal chain
reconstruction with an exhaustive uniqueness oracle."""

import itertools
import random

import pytest

import latbel as lb
from latbel.errors import (
    InvalidDistribution,
    NotDistributive,
    TiesInDistribution,
    TopValueNotOne,
)

from conftest import (
    bool_lattice,
    chain_diamond,
    chain_diamond_negation,
    chain_lattice,
    corpus,
    m3,
    random_chain_mass,
    random_mass,
)

TOL = 1e-9


def members(name):
    inner = name[1:-1]
    return frozenset(inner.split(",")) if inner else frozenset()


def complement_negation(l):
    atoms = set(l.atoms)
    mapping = {
        x: "{" + ",".join(sorted(a[1:-1] for a in atoms - set(lb.eta(l, x)))) + "}"
        for x in l.elements
    }
    return lb.negation_from_map(l, mapping)


def is_chain(l, elements):
    return all(l.leq(x, y) or l.leq(y, x) for x, y in itertools.combinations(elements, 2))


# -- necessity / possibility checks ----------------------------------------------------

def test_chain_supported_masses_give_necessities():
    rng = random.Random(83)
    for _, l in corpus():
        for _ in range(5):
            m = random_chain_mass(l, rng)
            assert lb.check_necessity(lb.zeta_transform(m))


def test_incomparable_foci_break_the_min_identity():
    l = bool_lattice(2)
    m = lb.MassAllocation(l, {"{}": 0.0, "{1}": 0.5, "{2}": 0.5, "{1,2}": 0.0})
    res = lb.check_necessity(lb.zeta_transform(m))
    assert not res
    assert set(res.witness) == {"{1}", "{2}"}


def test_top_indicator_is_a_necessity():
    l = bool_lattice(3)
    f = lb.SetFunction(l, {x: (1.0 if x == l.top else 0.0) for x in l.elements})
    assert lb.check_necessity(f)


def test_necessity_iff_chain_support():
    rng = random.Random(89)
    for name, l in corpus():
        for _ in range(8):
            m = random_chain_mass(l, rng) if rng.random() < 0.5 else random_mass(l, rng)
            verdict = bool(lb.check_necessity(lb.zeta_transform(m)))
            assert verdict == is_chain(l, m.focal_elements()), name


def test_possibility_is_the_conjugate_of_necessity():
    rng = random.Random(97)
    dl = chain_diamond()
    n = chain_diamond_negation()
    for _ in range(5):
        nec = lb.zeta_transform(random_chain_mass(dl.lattice, rng))
        poss = lb.conjugate(nec, n, "vee")
        assert lb.check_possibility(poss)
        back = lb.conjugate(poss, n, "wedge")
        for x in dl.lattice.elements:
            assert back[x] == pytest.approx(nec[x], abs=1e-12)


def test_boolean_possibility_is_max_over_singletons():
    rng = random.Random(101)
    l = bool_lattice(3)
    nec = lb.zeta_transform(random_chain_mass(l, rng))
    poss = lb.conjugate(nec, complement_negation(l), "vee")
    for a in l.elements:
        if a == l.bottom:
            continue
        assert poss[a] == pytest.approx(
            max(poss["{" + w + "}"] for w in members(a)), abs=TOL
        )


def test_strict_probability_is_not_a_possibility():
    l = bool_lattice(2)
    prob = lb.SetFunction(l, {"{}": 0.0, "{1}": 0.4, "{2}": 0.6, "{1,2}": 1.0})
    assert not lb.check_possibility(prob)


# -- distributions -----------------------------------------------------------------------

def test_distribution_round_trip():
    rng = random.Random(103)
    dl = chain_diamond()
    n = chain_diamond_negation()
    for _ in range(5):
        nec = lb.zeta_transform(random_chain_mass(dl.lattice, rng))
        poss = lb.conjugate(nec, n, "vee")
        pi = lb.possibility_distribution(poss)
        nu = lb.necessity_distribution(nec)
        for x in dl.lattice.elements:
            assert lb.eval_possibility(pi, x) == pytest.approx(poss[x], abs=TOL)
            assert lb.eval_necessity(nu, x) == pytest.approx(nec[x], abs=TOL)
        # duality on the irreducibles
        for j in dl.lattice.joinirr:
            assert pi[j] == pytest.approx(1.0 - nu[n.map[j]], abs=TOL)


def test_distribution_boundary_conventions():
    rng = random.Random(107)
    l = bool_lattice(3)
    nec = lb.zeta_transform(random_chain_mass(l, rng))
    poss = lb.conjugate(nec, complement_negation(l), "vee")
    pi = lb.possibility_distribution(poss)
    nu = lb.necessity_distribution(nec)
    assert lb.eval_possibility(pi, l.bottom) == 0.0
    assert lb.eval_necessity(nu, l.top) == 1.0


def test_boolean_necessity_distribution_sits_on_coatoms():
    l = bool_lattice(3)
    assert set(l.meetirr) == {"{1,2}", "{1,3}", "{2,3}"}
    rng = random.Random(109)
    nec = lb.zeta_transform(random_chain_mass(l, rng))
    nu = lb.necessity_distribution(nec)
    for m in l.meetirr:
        assert nu[m] == pytest.approx(nec[m], abs=TOL)


def test_distributions_require_distributivity():
    f = lb.SetFunction(m3(), {x: 0.0 for x in m3().elements})
    with pytest.raises(NotDistributive):
        lb.possibility_distribution(f)


def test_distribution_validation():
    l = bool_lattice(2)
    with pytest.raises(InvalidDistribution):
        lb.PossibilityDistribution(l, {"{1}": 0.5, "{2}": 0.5})  # never reaches 1
    with pytest.raises(InvalidDistribution):
        lb.PossibilityDistribution(l, {"{1}": 1.0})  # missing an irreducible
    with pytest.raises(InvalidDistribution):
        lb.NecessityDistribution(l, {"{1,2}": 0.2})  # wrong domain and no zero


# -- chain reconstruction ------------------------------------------------------------------

def reference_pi():
    pr = chain_diamond().principal
    return {pr["c"]: 0.1, pr["d"]: 0.2, pr["e"]: 0.4,
            pr["a"]: 0.6, pr["f"]: 0.9, pr["b"]: 1.0}


def test_reconstruct_reference_instance():
    dl = chain_diamond()
    pr = dl.principal
    fc = lb.reconstruct_chain(dl.lattice, chain_diamond_negation(), reference_pi())
    assert fc.iota == (pr["a"], pr["c"], pr["b"], pr["e"], pr["d"], pr["f"])
    assert fc.chain == ("{a}", "{a,c}", "{a,b,c}", "{a,b,c,e}", "{a,b,c,d,e}",
                        "{a,b,c,d,e,f}")
    expected = [0.1, 0.3, 0.2, 0.2, 0.1, 0.1]
    for x, v in zip(fc.chain, expected):
        assert fc.mass[x] == pytest.approx(v, abs=1e-12)
    # step table mirrors the selection procedure
    assert [s.k for s in fc.steps] == [6, 5, 4, 3, 2, 1]
    assert fc.steps[0].x == pr["b"] and fc.steps[0].nx == pr["f"]


def test_reconstruct_round_trip_recovers_pi():
    rng = random.Random(113)
    dl = chain_diamond()
    n = chain_diamond_negation()
    for _ in range(10):
        values = sorted(rng.uniform(0.01, 0.99) for _ in range(5))
        pi = dict(zip([dl.principal[j] for j in "cdeafb"[:-1]], values))
        pi[dl.principal["b"]] = 1.0
        # distribution must be isotone on the irreducibles to be a restriction
        # of a possibility function; the fixed assignment above is
        fc = lb.reconstruct_chain(dl.lattice, n, pi)
        nec = lb.zeta_transform(fc.mass)
        for j in dl.lattice.joinirr:
            assert 1.0 - nec[n.map[j]] == pytest.approx(pi[j], abs=TOL)
        assert lb.check_necessity(nec)


def test_reconstruct_boolean_nested_sets():
    rng = random.Random(127)
    l = bool_lattice(3)
    n = complement_negation(l)
    values = sorted(rng.uniform(0.05, 0.95) for _ in range(2)) + [1.0]
    order = ["2", "3", "1"]  # ascending possibility
    pi = {"{" + w + "}": v for w, v in zip(order, values)}
    fc = lb.reconstruct_chain(l, n, pi)
    # focal sets are the suffixes of the ascending order
    suffixes = ["{" + ",".join(sorted(order[i:])) + "}" for i in range(len(order))]
    assert set(fc.chain) == set(suffixes)
    prev = 0.0
    for i, w in enumerate(order):
        focal = "{" + ",".join(sorted(order[i:])) + "}"
        assert fc.mass[focal] == pytest.approx(pi["{" + w + "}"] - prev, abs=1e-12)
        prev = pi["{" + w + "}"]


def exhaustive_chain_solutions(l, n, pi, tol=1e-9):
    """Oracle: every maximal chain whose prefix-sum system admits a
    nonnegative mass solution reproducing pi."""
    solutions = []
    ji = list(l.joinirr)
    for chain in lb.maximal_chains(l):
        support = [x for x in chain if x != l.bottom]
        anchors = {0: 0.0, len(support): 1.0}
        ok = True
        for j in ji:
            k = sum(1 for x in support if l.leq(x, n.map[j]))
            value = 1.0 - pi[j]
            if abs(anchors.get(k, value) - value) > tol:
                ok = False
                break
            anchors[k] = value
        if not ok or set(anchors) != set(range(len(support) + 1)):
            continue
        sums = [anchors[k] for k in range(len(support) + 1)]
        masses = [b - a for a, b in zip(sums, sums[1:])]
        if all(v >= -tol for v in masses):
            solutions.append((chain, dict(zip(support, masses))))
    return solutions


def test_reconstruction_is_the_unique_chain_solution():
    dl = chain_diamond()
    n = chain_diamond_negation()
    pi = reference_pi()
    fc = lb.reconstruct_chain(dl.lattice, n, pi)
    solutions = exhaustive_chain_solutions(dl.lattice, n, pi)
    assert len(solutions) == 1
    chain, masses = solutions[0]
    assert tuple(x for x in chain if x != dl.lattice.bottom) == fc.chain
    for x, v in masses.items():
        assert fc.mass[x] == pytest.approx(v, abs=TOL)

    l3 = bool_lattice(3)
    n3 = complement_negation(l3)
    pi3 = {"{1}": 0.3, "{2}": 0.7, "{3}": 1.0}
    fc3 = lb.reconstruct_chain(l3, n3, pi3)
    solutions3 = exhaustive_chain_solutions(l3, n3, pi3)
    assert len(solutions3) == 1
    assert tuple(x for x in solutions3[0][0] if x != l3.bottom) == fc3.chain


def test_reconstruct_input_validation():
    dl = chain_diamond()
    n = chain_diamond_negation()
    pi = reference_pi()
    tied = dict(pi)
    tied[dl.principal["d"]] = 0.1
    with pytest.raises(TiesInDistribution):
        lb.reconstruct_chain(dl.lattice, n, tied)
    capped = {k: v * 0.5 for k, v in pi.items()}
    with pytest.raises((TopValueNotOne, InvalidDistribution)):
        lb.reconstruct_chain(dl.lattice, n, capped)
    # the diamond is autodual but not distributive
    cycle = lb.negation_from_map(
        m3(), {"⊥": "⊤", "⊤": "⊥", "a": "b", "b": "c", "c": "a"})
    with pytest.raises(NotDistributive):
        lb.reconstruct_chain(m3(), cycle, {"a": 0.2, "b": 0.6, "c": 1.0})


def test_reconstruct_chain_is_maximal():
    dl = chain_diamond()
    fc = lb.reconstruct_chain(dl.lattice, chain_diamond_negation(), reference_pi())
    full = (dl.lattice.bottom,) + fc.chain
    assert full in lb.maximal_chains(dl.lattice)
    assert sum(fc.mass[x] for x in fc.chain) == pytest.approx(1.0, abs=TOL)
    assert fc.mass.is_nonnegative()


def test_reconstruct_rejects_non_isotone_pi():
    """Strictly increasing, but pi(a) > pi(b) although a < b: refused as an
    invalid distribution instead of failing inside the selection."""
    dl = chain_diamond()
    pr = dl.principal
    pi = {pr["c"]: 0.1, pr["d"]: 0.2, pr["e"]: 0.4, pr["b"]: 0.6, pr["f"]: 0.9, pr["a"]: 1.0}
    (n,) = lb.find_negations(dl.lattice, limit=1)
    with pytest.raises(InvalidDistribution, match="not isotone"):
        lb.reconstruct_chain(dl.lattice, n, pi)


def random_isotone_pi(l, rng):
    """Strictly increasing pi along a random linear extension of the
    join-irreducibles, so isotone, with 1 at the last."""
    rest, order = set(l.joinirr), []
    while rest:
        low = sorted(j for j in rest if not any(l.poset.lt(o, j) for o in rest))
        pick = rng.choice(low)
        order.append(pick)
        rest.remove(pick)
    values = sorted(rng.uniform(0.01, 0.99) for _ in order[1:]) + [1.0]
    return dict(zip(order, values))


@pytest.mark.parametrize("name", ["ref18", "bool3", "bool4"])
def test_greedy_and_intersection_rules_agree(name):
    """At step k the selection is also the least element of
    eta(n(j_(k-1))) minus eta(n(j_k)) (all join-irreducibles when k = 1)."""
    l = chain_diamond().lattice if name == "ref18" else bool_lattice(int(name[-1]))
    rng = random.Random(131)
    for n in lb.find_negations(l, limit=6):
        for _ in range(30):
            fc = lb.reconstruct_chain(l, n, random_isotone_pi(l, rng))
            etas = {step.k: set(step.eta_nx) for step in fc.steps}
            for step in fc.steps:
                pool = etas.get(step.k - 1, set(l.joinirr)) - etas[step.k]
                least = [g for g in pool if all(l.leq(g, o) for o in pool)]
                assert least == [step.iota]
