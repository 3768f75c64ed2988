"""Negation verification, enumeration against a brute-force oracle, and
extension from irreducible correspondences."""

import collections
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latbel as lb
from latbel.lattice import _indices
from latbel.errors import NoConsistentExtension, NotABijection, NotDistributive

from conftest import (
    autodual8,
    bool_lattice,
    chain_diamond,
    chain_diamond_negation,
    chain_lattice,
    corpus,
    declared,
    m3,
    moore_lattice,
    n5,
    nonautodual5,
    random_poset,
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


def negations_by_sums(l, limit=None):
    """The images of the negations, found by the search as it read before
    it kept the images below each element: the images of the assigned
    elements below (above) element i summed bit by bit for every i."""
    n, down, up = len(l), l._down, l._up
    candidates = {}
    for c in range(n):
        key = (l._h[c], l._coh[c], len(l._cov_up[c]), len(l._cov_down[c]))
        candidates.setdefault(key, []).append(c)
    image_bit, found = [0] * n, []

    def extend(i, images):
        if i == n:
            found.append(tuple(b.bit_length() - 1 for b in image_bit))
            return limit is not None and len(found) >= limit
        key = (l._coh[i], l._h[i], len(l._cov_down[i]), len(l._cov_up[i]))
        assigned = (1 << i) - 1
        above = sum(image_bit[j] for j in _indices(down[i] & assigned))
        below = sum(image_bit[j] for j in _indices(up[i] & assigned))
        for c in candidates.get(key, ()):
            if up[c] & images == above and down[c] & images == below:
                image_bit[i] = 1 << c
                if extend(i + 1, images | 1 << c):
                    return True
        image_bit[i] = 0
        return False

    extend(0, 0)
    return found


def shuffled_names(l, rng):
    names = list(l.elements)
    rng.shuffle(names)
    return names


def shuffled(l, rng):
    """The lattice with its elements declared in a random order."""
    return lb.lattice_from_poset(lb.build_poset(shuffled_names(l, rng), l.covers))


def runs_up(names, covers):
    """Whether a declaration lists each element after its lower covers."""
    at = {x: p for p, x in enumerate(names)}
    return all(at[a] < at[b] for a, b in covers)


def test_negation_search_matches_the_sums_on_the_corpus():
    rng, orders = random.Random(19), set()
    for name, l in corpus():
        for names in (list(l.elements), shuffled_names(l, rng), shuffled_names(l, rng)):
            k = lb.lattice_from_poset(lb.build_poset(names, l.covers))
            want = negations_by_sums(k)
            assert [n.image for n in lb.find_negations(k, limit=None)] == want, name
            assert want and runs_up(k.elements, k.covers), name
            orders.add(runs_up(names, l.covers))
    assert orders == {True, False}  # declared along an extension, and not


@settings(max_examples=100, deadline=None)
@given(l=st.randoms().map(moore_lattice), dual=st.booleans(), rng=st.randoms())
def test_negation_search_matches_the_sums_on_random_moore_families(l, dual, rng):
    if dual:
        l = lb.dual_lattice(l)
    for k in (l, shuffled(l, rng)):
        assert [n.image for n in lb.find_negations(k, limit=None)] == negations_by_sums(k)


def reversed_declaration(l):
    """The lattice with its elements declared in reversed element order."""
    return lb.lattice_from_poset(lb.build_poset(l.elements[::-1], l.covers))


def test_negation_search_matches_the_sums_declared_top_first():
    for name, l in corpus():  # each declared from the bottom up, so reversed from the top down
        k = reversed_declaration(l)
        want = negations_by_sums(k)
        assert [n.image for n in lb.find_negations(k, limit=None)] == want, name
        assert want and runs_up(l.elements[::-1], [c[::-1] for c in l.covers]), name
        assert runs_up(k.elements, k.covers), name


@settings(max_examples=100, deadline=None)
@given(l=st.randoms().map(moore_lattice), dual=st.booleans(), rng=st.randoms())
def test_negation_search_matches_the_sums_on_reversed_moore_families(l, dual, rng):
    if dual:
        l = lb.dual_lattice(l)
    k = reversed_declaration(l)  # l's elements run up, so these run from the top down
    assert runs_up(k.elements, k.covers)
    assert [n.image for n in lb.find_negations(k, limit=None)] == negations_by_sums(k)
    k = shuffled(l, rng)
    assert [n.image for n in lb.find_negations(k, limit=None)] == negations_by_sums(k)


@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(), size=st.integers(2, 6), density=st.sampled_from([0.2, 0.35, 0.5]),
       dual=st.booleans())
def test_negation_search_matches_the_sums_on_random_downset_lattices(rng, size, density, dual):
    """Downset lattices of random posets, their duals and shuffled
    declarations: all but a few elements are join-reducible, so nearly
    every image the search takes is forced."""
    l = lb.downset_lattice(random_poset(rng, size, density)).lattice
    if dual:
        l = lb.dual_lattice(l)
    for k in (l, shuffled(l, rng)):
        assert [n.image for n in lb.find_negations(k, limit=None)] == negations_by_sums(k)


def forced_after_a_choice():
    """Three atoms a, b, c; ab = a v b and bc = b v c; d covers c alone and
    ad = a v d.  Autodual, with one negation."""
    covers = [("⊥", "a"), ("⊥", "b"), ("⊥", "c"), ("a", "ab"), ("b", "ab"), ("b", "bc"),
              ("c", "bc"), ("c", "d"), ("a", "ad"), ("d", "ad"), ("ab", "⊤"), ("bc", "⊤"),
              ("ad", "⊤")]
    return lb.lattice_from_poset(lb.build_poset("⊥ a b ab c bc d ad ⊤".split(), covers))


def test_a_dead_end_backs_up_past_the_forced_images():
    """The search first sends a to ab and b to bc.  Then ab = a v b is forced
    to ab ^ bc = b, and c takes ad, its one candidate left.  bc = b v c is
    forced to bc ^ ad = c, which is outside bc's class (c has coheight 3,
    bc height 2).  Backing up to b must release b and ad, the images taken
    since b's choice; if it kept them, no image would fit b once a has
    moved on to bc, and the one negation would be lost."""
    l = forced_after_a_choice()
    found = lb.find_negations(l, limit=None)
    assert [n.map for n in found] == [{"⊥": "⊤", "a": "bc", "b": "ab", "ab": "b", "c": "ad",
                                       "bc": "a", "d": "d", "ad": "c", "⊤": "⊥"}]
    assert [n.image for n in found] == negations_by_sums(l)


class CountedUpSets(list):
    """A lattice's ``_up`` that counts its reads, in all and per element, and
    fails past a budget: the search reads one up-set per candidate image it
    tests."""

    def __init__(self, up, budget=math.inf):
        super().__init__(up)
        self.reads, self.budget, self.each = 0, budget, collections.Counter()

    def __getitem__(self, i):
        self.reads += 1
        self.each[i] += 1
        assert self.reads <= self.budget, "over budget"
        return super().__getitem__(i)


def forced_out_of_class():
    """Three atoms p, q, r; x = p v q and y = p v r; s covers r alone.
    Autodual, with one negation."""
    covers = [("⊥", "p"), ("⊥", "q"), ("⊥", "r"), ("p", "x"), ("q", "x"), ("p", "y"),
              ("r", "y"), ("r", "s"), ("x", "⊤"), ("s", "⊤"), ("y", "⊤")]
    return lb.lattice_from_poset(lb.build_poset("⊥ p q x r s y ⊤".split(), covers))


def test_an_image_outside_its_class_is_never_tested():
    """Only the top has coheight 0, so the bottom is in the top's class
    alone: the search tests the bottom as an image at the top only, where
    it always fits, once per negation.  In ``forced_out_of_class`` the first
    choices send p to x and q to s, and x = p v q is then forced to
    x ^ s, the bottom, which fits the images taken so far.  And the top of
    nonautodual5 is not in the bottom's class (two atoms, one coatom), so
    the search settles it without testing any image."""
    for name, l in [*corpus(), ("forced_out_of_class", forced_out_of_class()),
                    ("nonautodual5", nonautodual5())]:
        counted = CountedUpSets(l._up)
        with mock.patch.object(l, "_up", counted):
            found = lb.find_negations(l, limit=None)
        assert counted.each[0] == len(found), name
        assert counted.reads > 0 or name == "nonautodual5", name
    (n,) = lb.find_negations(forced_out_of_class(), limit=None)
    assert n.map == {"⊥": "⊤", "p": "y", "q": "s", "x": "r", "r": "x", "s": "q", "y": "p",
                     "⊤": "⊥"}


def one_test_per_candidate(l):
    """The candidate tests of a search that never backtracks: one test per
    element plus the rejects within its class, at most its class's size."""
    size = collections.Counter(
        (l._h[c], l._coh[c], len(l._cov_up[c]), len(l._cov_down[c])) for c in range(len(l)))
    return sum(size[l._coh[i], l._h[i], len(l._cov_down[i]), len(l._cov_up[i])]
               for i in range(len(l)))


def test_the_first_negation_takes_one_test_per_element_and_the_rejects():
    """Extended along a linear extension, the search does not backtrack to
    its first negation on a chain declared from either end or on B7
    declared in a shuffled order; extended in input order, it made over
    200 times this budget's tests on that B7.  Each image, forced or
    chosen, is tested before it is taken: at least one test per element."""
    names = [f"c{i}" for i in range(300)]
    bottom_first = lb.lattice_from_poset(lb.build_poset(names, list(zip(names, names[1:]))))
    b7 = shuffled(bool_lattice(7), random.Random(7))
    assert one_test_per_candidate(b7) == sum(math.comb(7, k) ** 2 for k in range(8))  # by rank
    for l in (bottom_first, reversed_declaration(bottom_first), b7):
        budget = one_test_per_candidate(l)
        counted = CountedUpSets(l._up, budget)
        with mock.patch.object(l, "_up", counted):
            (n,) = lb.find_negations(l, limit=1)
        assert len(l) <= counted.reads <= budget
        assert lb.verify_vee_negation(l, n.map)


def is_linear_extension(l, order):
    position = {x: p for p, x in enumerate(order)}
    return sorted(order) == list(range(len(l))) and all(
        position[l._index[a]] < position[l._index[b]] for a, b in l.covers)


def random_linear_extension(l, rng):
    """The element names in a random linear extension: each step takes a
    random element whose lower covers are all taken."""
    order, taken = [], set()
    free = [i for i in range(len(l)) if not l._cov_down[i]]
    while free:
        i = free.pop(rng.randrange(len(free)))
        order.append(l.elements[i])
        taken.add(i)
        free += [j for j in l._cov_up[i] if taken.issuperset(l._cov_down[j])]
    return order


@settings(max_examples=100, deadline=None)
@given(l=st.randoms().map(moore_lattice), dual=st.booleans(),
       declared=st.sampled_from(["as drawn", "running up", "shuffled"]), rng=st.randoms())
def test_the_search_follows_the_sums_in_any_declaration_order(l, dual, declared, rng):
    """Elements are numbered along a linear extension, the declared order
    exactly when that is one, and the search visits them in that order, so
    its first negations are the sums' in any declaration order."""
    if dual:
        l = lb.dual_lattice(l)
    names = list(l.elements)
    if declared == "running up":
        names = random_linear_extension(l, rng)
    elif declared == "shuffled":
        rng.shuffle(names)
    l = lb.lattice_from_poset(lb.build_poset(names, l.covers))
    assert is_linear_extension(l, range(len(l)))
    assert (list(l.elements) == names) == runs_up(names, l.covers)
    want = negations_by_sums(l, limit=3)
    for limit in (1, 2, 3):
        assert [n.image for n in lb.find_negations(l, limit=limit)] == want[:limit]


def assert_ascending_by_image_with_prefixes(l):
    """Nothing sorts the negations: the search yields them ascending by image,
    and a limit of k keeps the first k."""
    images = [n.image for n in lb.find_negations(l, limit=None)]
    assert all(a < b for a, b in zip(images, images[1:]))
    for k in (1, 2, 3):
        assert [n.image for n in lb.find_negations(l, limit=k)] == images[:k]


@pytest.mark.parametrize("how", ["as given", "reversed", "shuffled"])
def test_negations_come_ascending_by_image_on_the_corpus(how):
    rng = random.Random(23)
    for name, l in corpus() + [("nonautodual5", nonautodual5())]:
        assert_ascending_by_image_with_prefixes(declared(l, how, rng))


@settings(max_examples=100, deadline=None)
@given(l=st.randoms().map(moore_lattice), dual=st.booleans(),
       how=st.sampled_from(["as given", "reversed", "shuffled"]), rng=st.randoms())
def test_negations_come_ascending_by_image_on_random_moore_families(l, dual, how, rng):
    assert_ascending_by_image_with_prefixes(declared(lb.dual_lattice(l) if dual else l, how, rng))


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


def test_a_negation_cannot_be_changed_through_its_maps():
    l = bool_lattice(2)
    n = lb.find_negations(l, limit=1)[0]  # fixes both atoms
    f = lb.SetFunction(l, {"{}": 0.0, "{1}": 0.25, "{2}": 0.5, "{1,2}": 1.0})
    vee, wedge, image = lb.conjugate(f, n, "vee"), lb.conjugate(f, n, "wedge"), n.image
    n.map["{1}"] = "{2}"  # no longer a bijection, were it stored
    n.inverse_map["{1}"] = "{2}"
    assert n.image == image and n("{1}") == n.map["{1}"] == n.inverse("{1}") == "{1}"
    assert lb.conjugate(f, n, "vee").vector == vee.vector == (0.0, 0.75, 0.5, 1.0)
    assert lb.conjugate(f, n, "wedge").vector == wedge.vector
    assert lb.is_involutive(n) and lb.verify_vee_negation(l, n.map)
    with pytest.raises(TypeError):
        n.image[0] = 1
    for name in ("nope", ["x"], None):
        with pytest.raises(lb.errors.UnknownElement):
            n.inverse(name)
        with pytest.raises(lb.errors.UnknownElement):
            n(name)


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


@pytest.mark.parametrize("image", [["x"], {"x": 1}, None, 3, "nope", "{}"])
def test_irreducible_map_refuses_images_that_are_not_meet_irreducible(image):
    with pytest.raises(NotABijection, match="is not meet-irreducible"):
        lb.negation_from_irreducible_map(bool_lattice(2), {"{1}": image, "{2}": "{1}"})


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
