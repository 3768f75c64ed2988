"""Negation verification, enumeration against a brute-force oracle, and
extension from irreducible correspondences."""

import itertools

import pytest

import latbel as lb
from latbel.errors import NoConsistentExtension, NotABijection, NotDistributive

from conftest import (
    autodual8,
    bool_lattice,
    chain_diamond,
    chain_diamond_negation,
    chain_lattice,
    m3,
    n5,
    nonautodual5,
    small_corpus,
)


def brute_force_anti_isomorphisms(l):
    """Oracle: try every bijection of the element set."""
    found = []
    for perm in itertools.permutations(l.elements):
        image = dict(zip(l.elements, perm))
        if all(
            l.leq(x, y) == l.leq(image[y], image[x])
            for x, y in itertools.product(l.elements, repeat=2)
        ):
            found.append(image)
    return found


def test_chain_reversal_is_the_negation():
    l = chain_lattice(2)
    reversal = dict(zip(l.elements, reversed(l.elements)))
    assert lb.verify_vee_negation(l, reversal)
    found = lb.find_negations(l, limit=None)
    assert [n.map for n in found] == [reversal]


def test_boolean_complement_verifies():
    l = bool_lattice(3)
    atoms = set(l.atoms)
    complement = {
        x: "{" + ",".join(sorted(a[1:-1] for a in atoms - set(lb.eta(l, x)))) + "}"
        for x in l.elements
    }
    assert lb.verify_vee_negation(l, complement)


def test_m3_atom_cycle_is_a_noninvolutive_negation():
    l = m3()
    cycle = {"⊥": "⊤", "⊤": "⊥", "a": "b", "b": "c", "c": "a"}
    assert lb.verify_vee_negation(l, cycle)
    n = lb.negation_from_map(l, cycle)
    assert not lb.is_involutive(n)
    assert n.map[n.map["a"]] == "c"


def test_verify_rejects_broken_maps():
    l = chain_lattice(2)
    with pytest.raises(NotABijection):
        lb.verify_vee_negation(l, {"c0": "c2"})
    squash = {"c0": "c2", "c1": "c2", "c2": "c0"}
    res = lb.verify_vee_negation(l, squash)
    assert not res and res.witness == ("c0", "c1")
    identity = {x: x for x in l.elements}
    res = lb.verify_vee_negation(l, identity)
    assert not res and res.witness == ("c2",)


def test_autodual8_has_exactly_one_negation():
    l = autodual8()
    found = lb.find_negations(l, limit=None)
    assert len(found) == 1
    n = found[0]
    assert n.map["a"] == "e"
    assert n.map["b"] == "f"
    assert n.map["c"] == "c" and n.map["d"] == "d"
    assert lb.is_involutive(n)


def test_boolean3_negations_include_complement_and_twists():
    l = bool_lattice(3)
    found = lb.find_negations(l, limit=None)
    images_of_12 = {n.map["{1,2}"] for n in found}
    assert "{3}" in images_of_12       # the set complement
    assert "{1}" in images_of_12       # a non-complement symmetry
    assert len(found) == 6             # one per permutation of the atoms


def test_nonautodual_lattice_has_no_negation():
    assert lb.find_negations(nonautodual5(), limit=None) == []


def test_find_negations_agrees_with_brute_force():
    for name, l in small_corpus(max_size=8) + [("nonautodual5", nonautodual5())]:
        oracle = brute_force_anti_isomorphisms(l)
        found = lb.find_negations(l, limit=None)
        assert bool(found) == bool(oracle), name
        assert sorted(tuple(sorted(n.map.items())) for n in found) == sorted(
            tuple(sorted(im.items())) for im in oracle
        ), name


def test_every_found_negation_is_consistent():
    for name, l in small_corpus(max_size=8) + [("chain_diamond", chain_diamond().lattice)]:
        for n in lb.find_negations(l, limit=4):
            assert lb.verify_vee_negation(l, n.map), name
            for x in l.elements:
                assert n.map[n.inverse_map[x]] == x
            # join-irreducibles land exactly on the meet-irreducibles
            assert {n.map[j] for j in l.joinirr} == set(l.meetirr), name
            # the inverse reverses meets into joins
            for x, y in itertools.combinations(l.elements, 2):
                assert n.inverse_map[l.meet(x, y)] == l.join(n.inverse_map[x], n.inverse_map[y])


def test_invert_flips_kind_and_round_trips():
    n = chain_diamond_negation()
    w = lb.invert(n)
    assert w.kind == "wedge"
    assert w.map == n.inverse_map
    assert lb.invert(w) == n


def test_wedge_negation_is_verified_through_its_inverse():
    n = chain_diamond_negation()
    l = n.lattice
    assert lb.Negation(l, n.inverse_map, "wedge") == lb.invert(n)
    identity = {x: x for x in l.elements}
    with pytest.raises(lb.errors.InvalidNegation):
        lb.Negation(l, identity, "wedge")
    b2 = bool_lattice(2)
    with pytest.raises(lb.errors.InvalidNegation):
        lb.Negation(b2, {x: x for x in b2.elements}, "wedge")
    with pytest.raises(NotABijection):
        lb.Negation(b2, {x: b2.bottom for x in b2.elements}, "wedge")


@pytest.mark.parametrize("image", ["{1}", ["{2}"]])
def test_both_kinds_report_a_bad_map_itself(image):
    b2 = bool_lattice(2)
    bad = {"{}": "{1,2}", "{1}": image, "{2}": "{1}", "{1,2}": "{}"}
    raised = []
    for kind in ("vee", "wedge"):
        with pytest.raises(NotABijection) as exc:
            lb.Negation(b2, bad, kind)
        raised.append(str(exc.value))
    assert raised[0] == raised[1]
    assert raised[0] == ("both map to '{1}'" if image == "{1}"
                         else "image ['{2}'] of '{1}' is not a lattice element")


def test_negation_from_irreducible_map_on_chain_diamond():
    n = chain_diamond_negation()
    l = chain_diamond().lattice
    assert lb.verify_vee_negation(l, n.map)
    assert lb.is_involutive(n)
    pr = chain_diamond().principal
    assert n.map[pr["b"]] == "{c,d,e,f}"
    assert n.map[pr["f"]] == "{a,b}"


def test_negation_from_irreducible_map_boolean_complement():
    l = bool_lattice(3)
    jmap = {"{1}": "{2,3}", "{2}": "{1,3}", "{3}": "{1,2}"}
    n = lb.negation_from_irreducible_map(l, jmap)
    assert n.map["{1,2}"] == "{3}"
    assert n.map["{}"] == "{1,2,3}"


def test_irreducible_map_must_be_injective():
    l = bool_lattice(3)
    with pytest.raises(NotABijection):
        lb.negation_from_irreducible_map(
            l, {"{1}": "{2,3}", "{2}": "{2,3}", "{3}": "{1,2}"}
        )


def test_irreducible_map_with_no_consistent_extension():
    l = chain_lattice(2)
    # joinirr are c1 and c2, meetirr are c0 and c1; the flipped assignment
    # collapses two elements when extended by meets
    with pytest.raises(NoConsistentExtension):
        lb.negation_from_irreducible_map(l, {"c1": "c0", "c2": "c1"})


def test_irreducible_map_requires_distributivity():
    with pytest.raises(NotDistributive):
        lb.negation_from_irreducible_map(m3(), {"a": "a", "b": "b", "c": "c"})


def test_profile_autoduality_matches_negation_search():
    for name, l in small_corpus(max_size=8) + [("nonautodual5", nonautodual5()),
                                               ("n5", n5())]:
        prof = lb.profile(l)
        assert prof.is_autodual == bool(lb.find_negations(l, limit=1)), name
