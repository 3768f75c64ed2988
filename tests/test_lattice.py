"""Poset/lattice construction, irreducibles, profiles, downsets and chains."""

import collections
import copy
import gc
import itertools
import random
import weakref

import pytest

import latbel as lb
from latbel.errors import (
    CycleDetected,
    DecompositionNotUnique,
    DuplicateElement,
    InvalidElementName,
    NotALattice,
    RedundantCovers,
    SizeLimitExceeded,
    UnknownElement,
)
from latbel.io import dot_export

from conftest import (
    autodual8,
    bool_lattice,
    chain_diamond,
    chain_lattice,
    convex_geometry,
    corpus,
    distributive_corpus,
    m3,
    moore_lattice,
    n5,
)


def members(name):
    """Parse a subset-style element name like '{a,b}' back to a frozenset."""
    inner = name[1:-1]
    return frozenset(inner.split(",")) if inner else frozenset()


# -- construction -------------------------------------------------------------

def test_singleton_poset():
    p = lb.build_poset(["x"], [])
    assert p.leq("x", "x")
    assert p.covers == ()


def test_three_chain_closure():
    p = lb.build_poset(["⊥", "a", "⊤"], [("⊥", "a"), ("a", "⊤")])
    assert p.leq("⊥", "⊤")
    assert not p.leq("⊤", "⊥")


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        lb.build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_self_loop_is_a_cycle():
    with pytest.raises(CycleDetected):
        lb.build_poset(["a"], [("a", "a")])


def test_duplicate_and_unknown_elements():
    with pytest.raises(DuplicateElement):
        lb.build_poset(["a", "a"], [])
    with pytest.raises(UnknownElement):
        lb.build_poset(["a"], [("a", "zzz")])


def test_redundant_covers_reduced_with_warning():
    with pytest.warns(RedundantCovers):
        p = lb.build_poset(["⊥", "a", "⊤"], [("⊥", "a"), ("a", "⊤"), ("⊥", "⊤")])
    assert p.covers == (("⊥", "a"), ("a", "⊤"))


def test_element_cap():
    with pytest.raises(SizeLimitExceeded):
        lb.build_poset([f"x{i}" for i in range(10)], [], max_elements=5)


def test_antichain_is_not_a_lattice():
    p = lb.build_poset(["a", "b"], [])
    with pytest.raises(NotALattice) as err:
        lb.lattice_from_poset(p)
    assert err.value.reason == "no-upper-bound"
    assert err.value.pair == ("a", "b")


def test_not_a_lattice_remaining_reasons():
    # two common upper bounds, neither least
    p = lb.build_poset(["x", "y", "u", "v"],
                       [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")])
    with pytest.raises(NotALattice) as err:
        lb.lattice_from_poset(p)
    assert err.value.reason == "no-least-upper-bound"
    assert err.value.pair == ("x", "y")
    # u, v share two maximal lower bounds under a top; declared first, they
    # are still numbered after x and y, whose join is missing
    d = lb.build_poset(["u", "v", "x", "y", "t"],
                       [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v"),
                        ("u", "t"), ("v", "t")])
    assert d.elements == ("x", "y", "u", "v", "t")
    with pytest.raises(NotALattice) as err:
        lb.lattice_from_poset(d)
    assert err.value.reason == "no-least-upper-bound"
    assert err.value.pair == ("x", "y")
    # no lower bound at all: two minimal elements under one top
    q = lb.build_poset(["a", "b", "t"], [("a", "t"), ("b", "t")])
    with pytest.raises(NotALattice) as err:
        lb.lattice_from_poset(q)
    assert err.value.reason == "no-lower-bound"


def test_closure_soundness_against_path_search():
    # leq must be exactly "reachable through input edges", on random DAGs.
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(1, 6)
        names = [f"v{i}" for i in range(n)]
        edges = [(names[i], names[j])
                 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RedundantCovers)
            p = lb.build_poset(names, edges)
        succ = {x: {b for a, b in edges if a == x} for x in names}

        def reachable(x, y):
            todo, seen = [x], set()
            while todo:
                v = todo.pop()
                if v == y:
                    return True
                if v not in seen:
                    seen.add(v)
                    todo.extend(succ[v])
            return False

        for x in names:
            for y in names:
                assert p.leq(x, y) == (x == y or reachable(x, y))


# -- joins, meets, irreducibles -------------------------------------------------

def test_join_singleton_idempotent():
    l = bool_lattice(3)
    for x in l.elements:
        assert lb.join(l, [x]) == x
        assert lb.meet(l, [x, x]) == x


def test_boolean_join_is_union():
    l = bool_lattice(3)
    assert l.join("{1}", "{2}") == "{1,2}"
    assert lb.join(l, ["{1}", "{2}", "{3}"]) == "{1,2,3}"
    assert l.meet("{1,2}", "{2,3}") == "{2}"


def test_m3_atom_joins_hit_top():
    l = m3()
    for x, y in itertools.combinations(["a", "b", "c"], 2):
        assert l.join(x, y) == "⊤"
        assert l.meet(x, y) == "⊥"


def test_boolean_irreducibles_from_explicit_covers():
    names = ["∅", "1", "2", "3", "12", "13", "23", "123"]
    covers = [("∅", "1"), ("∅", "2"), ("∅", "3"),
              ("1", "12"), ("1", "13"), ("2", "12"), ("2", "23"),
              ("3", "13"), ("3", "23"), ("12", "123"), ("13", "123"), ("23", "123")]
    l = lb.lattice_from_poset(lb.build_poset(names, covers))
    assert set(l.joinirr) == {"1", "2", "3"}
    assert set(l.meetirr) == {"12", "13", "23"}


def test_autodual8_joinirr():
    assert set(autodual8().joinirr) == {"a", "b", "d", "e"}


def test_heights_boolean():
    l = bool_lattice(3)
    for x in l.elements:
        assert l.heights[x] == len(members(x))


def test_absorption_on_corpus():
    for _, l in corpus():
        for x, y in itertools.product(l.elements, repeat=2):
            assert l.join(x, l.meet(x, y)) == x
            assert l.meet(x, l.join(x, y)) == x


def test_join_meet_duality():
    for _, l in corpus():
        d = lb.dual_lattice(l)
        for x, y in itertools.combinations(l.elements, 2):
            assert l.join(x, y) == d.meet(x, y)
            assert l.meet(x, y) == d.join(x, y)


# -- decompositions -------------------------------------------------------------

def test_eta_of_bottom_empty():
    for _, l in corpus():
        assert lb.eta(l, l.bottom) == frozenset()


def test_eta_boolean_pair():
    l = bool_lattice(3)
    assert lb.eta(l, "{1,2}") == frozenset({"{1}", "{2}"})
    assert lb.eta_star(l, "{1,2}") == frozenset({"{1}", "{2}"})


def test_eta_chain_diamond_wide_irreducible():
    l = chain_diamond().lattice
    pr = chain_diamond().principal
    assert lb.eta(l, pr["f"]) == frozenset({pr["c"], pr["d"], pr["e"], pr["f"]})


def test_eta_join_recovers_element():
    for _, l in corpus():
        for x in l.elements:
            parts = lb.eta(l, x)
            joined = lb.join(l, parts) if parts else l.bottom
            assert joined == x


def test_eta_monotone():
    for _, l in corpus():
        distributive = lb.profile(l).is_distributive
        for x, y in itertools.product(l.elements, repeat=2):
            if l.leq(x, y):
                assert lb.eta(l, x) <= lb.eta(l, y)
            if distributive and lb.eta(l, x) <= lb.eta(l, y):
                assert l.leq(x, y)


def test_eta_star_refuses_diamond():
    with pytest.raises(DecompositionNotUnique):
        lb.eta_star(m3(), "⊤")
    with pytest.raises(DecompositionNotUnique):
        lb.mu_star(m3(), "⊥")


def test_eta_star_is_irredundant():
    for _, l in distributive_corpus():
        for x in l.elements:
            star = lb.eta_star(l, x)
            assert star <= lb.eta(l, x)
            joined = lb.join(l, star) if star else l.bottom
            assert joined == x
            for j in star:
                rest = star - {j}
                reduced = lb.join(l, rest) if rest else l.bottom
                assert reduced != x


def test_mu_star_dual_of_eta_star():
    for _, l in distributive_corpus():
        d = lb.dual_lattice(l)
        for x in l.elements:
            assert lb.mu_star(l, x) == lb.eta_star(d, x)


def test_mu_set_is_eta_of_the_dual():
    """mu_set(x) is eta(x) in the dual lattice, and is every meet-irreducible
    (an element with exactly one upper cover) above x."""
    rng = random.Random(15)
    for l in [l for _, l in corpus()] + [moore_lattice(rng) for _ in range(40)]:
        d = lb.dual_lattice(l)
        upper_covers = collections.Counter(a for a, _ in l.covers)
        meetirr = {m for m, count in upper_covers.items() if count == 1}
        for x in l.elements:
            assert lb.mu_set(l, x) == lb.eta(d, x)
            assert lb.mu_set(l, x) == {m for m in meetirr if l.leq(x, m)}


@pytest.mark.parametrize("m", [3, 6, 12])
def test_eta_star_of_a_line_interval_is_its_two_endpoints(m):
    l = convex_geometry(m)
    prof = lb.profile(l)
    assert prof.is_lower_locally_distributive and not prof.is_distributive
    assert not prof.is_upper_locally_distributive
    assert len(l) == m * (m + 1) // 2 + 1
    assert lb.eta_star(l, "{}") == frozenset()
    for i, j in itertools.combinations_with_replacement(range(m), 2):
        assert lb.eta_star(l, f"[{i},{j}]") == {f"[{i},{i}]", f"[{j},{j}]"}
    with pytest.raises(DecompositionNotUnique):
        lb.mu_star(l, "{}")


# -- structural profiles ---------------------------------------------------------

def test_profile_m3():
    prof = lb.profile(m3())
    assert prof.is_modular
    assert not prof.is_distributive
    assert set(prof.witnesses["is_distributive"]) == {"a", "b", "c"}


def test_profile_n5_not_modular():
    l = n5()
    prof = lb.profile(l)
    assert not prof.is_modular

    # independent cover-based oracle over all pairs
    cover = set(l.covers)

    def covers(a, b):
        return (a, b) in cover

    lower_ok = all(
        not (covers(x, l.join(x, y)) and covers(y, l.join(x, y)))
        or (covers(l.meet(x, y), x) and covers(l.meet(x, y), y))
        for x, y in itertools.combinations(l.elements, 2)
    )
    upper_ok = all(
        not (covers(l.meet(x, y), x) and covers(l.meet(x, y), y))
        or (covers(x, l.join(x, y)) and covers(y, l.join(x, y)))
        for x, y in itertools.combinations(l.elements, 2)
    )
    assert prof.is_lower_semimodular == lower_ok
    assert prof.is_upper_semimodular == upper_ok
    assert not (lower_ok and upper_ok)


def test_profile_boolean():
    prof = lb.profile(bool_lattice(3))
    assert prof.is_distributive
    assert prof.is_complemented
    assert prof.is_atomistic
    assert prof.is_autodual


def test_profile_chain_is_everything():
    prof = lb.profile(chain_lattice(3))
    assert prof.is_linear and prof.is_distributive and prof.is_autodual


def test_profile_autodual8():
    prof = lb.profile(autodual8())
    assert prof.is_autodual
    assert not prof.is_complemented
    # only bottom and top have complements
    l = autodual8()
    for x in l.elements:
        has = any(l.meet(x, c) == "⊥" and l.join(x, c) == "⊤" for c in l.elements)
        assert has == (x in ("⊥", "⊤"))


def test_profile_implications_hold_on_corpus():
    for name, l in corpus():
        prof = lb.profile(l)
        if prof.is_distributive:
            assert prof.is_modular, name
        if prof.is_modular:
            assert prof.is_lower_semimodular and prof.is_upper_semimodular, name
        if prof.is_lower_locally_distributive and prof.is_upper_locally_distributive:
            assert prof.is_distributive, name
        if prof.is_lower_locally_distributive:
            assert prof.is_ranked, name
        for flag, value in prof.flags().items():
            if not value and flag != "is_autodual":
                assert flag in prof.witnesses, (name, flag)


def test_lattice_is_its_poset():
    """A lattice shares its poset's arrays, not copies of them; the inherited
    leq agrees with the join table, and the inherited queries with the poset's."""
    rng = random.Random(14)
    bases = [l for _, l in corpus()] + [moore_lattice(rng) for _ in range(40)]
    for l in bases + [lb.dual_lattice(l) for l in bases]:
        p = l.poset
        assert isinstance(l, lb.Poset) and type(p) is lb.Poset
        for slot in lb.Poset.__slots__:
            assert getattr(l, slot) is getattr(p, slot)
        assert l._down is p._down and len(l) == len(p)
        for x, y in itertools.product(l.elements, repeat=2):
            assert l.leq(x, y) == (l.join(x, y) == y) == p.leq(x, y)
        for x in l.elements:
            assert l.below(x) == p.below(x) and l.above(x) == p.above(x)
            assert l.covered_by(x) == p.covered_by(x)
        dual = l.dual()
        assert type(dual) is lb.Poset and dual.covers == p.dual().covers
        assert l.restrict(l.joinirr).covers == p.restrict(l.joinirr).covers


def test_profiles_and_downset_lattices_can_be_copied():
    """Read-only views still deep-copy, and the copies compare equal."""
    prof = lb.profile(m3())
    assert copy.deepcopy(prof) == prof and prof.witnesses
    assert prof._asdict() == {**prof.flags(), "witnesses": dict(prof.witnesses)}
    dl = chain_diamond()
    dup = copy.deepcopy(dl)
    assert dup.downset == dl.downset and dup.principal == dl.principal
    assert dup.lattice.elements == dl.lattice.elements
    assert dup.lattice.covers == dl.lattice.covers
    pairs = list(itertools.product(dl.lattice.elements, repeat=2))
    assert [(dup.lattice.join(x, y), dup.lattice.meet(x, y)) for x, y in pairs] == [
        (dl.lattice.join(x, y), dl.lattice.meet(x, y)) for x, y in pairs]
    assert dup.lattice.poset is not dl.lattice.poset


def test_heights_witnesses_and_downset_maps_cannot_be_changed():
    """Name-keyed views are fresh copies or read-only: a write into one
    changes nothing or is refused."""
    dl = lb.downset_lattice(lb.build_poset(["1", "2"], []))
    l = dl.lattice
    l.heights["{1}"] = 2
    assert l.heights["{1}"] == 1
    assert l.atoms == ("{1}", "{2}") and lb.profile(l).is_atomistic
    assert '{ rank=same; "{1}"; "{2}"; }' in dot_export(l)

    prof = lb.profile(m3())
    want = dict(prof.witnesses)
    with pytest.raises(AttributeError):
        prof.witnesses.clear()
    with pytest.raises(TypeError):
        prof.witnesses["is_distributive"] = None
    with pytest.raises(TypeError):
        del prof.witnesses["is_distributive"]
    assert lb.profile(m3()).witnesses == want != {}

    for view, key in ((dl.downset, "{1}"), (dl.principal, "1")):
        with pytest.raises(TypeError):
            view[key] = "{2}"
        with pytest.raises(AttributeError):
            view.clear()
    assert dl.downset["{1}"] == {"1"} and dl.principal["1"] == "{1}"


# -- downsets, Birkhoff, chains ---------------------------------------------------

def test_downsets_of_antichain_form_boolean_lattice():
    p = lb.build_poset(["a", "b"], [])
    result = lb.downset_lattice(p)
    assert len(result.lattice) == 4
    assert lb.profile(result.lattice).is_complemented


def test_chain_diamond_has_18_downsets():
    dl = chain_diamond()
    assert len(dl.lattice) == 18
    assert set(dl.lattice.joinirr) == set(dl.principal.values())
    for j, name in dl.principal.items():
        # the principal downset is the least downset containing j
        assert j in dl.downset[name]
        for other, dset in dl.downset.items():
            if j in dset:
                assert dl.downset[name] <= dset


def test_downset_back_mapping_matches_names():
    dl = chain_diamond()
    for name, dset in dl.downset.items():
        assert members(name) == dset


def test_downset_covers_are_single_insertions():
    dl = chain_diamond()
    for a, b in dl.lattice.covers:
        assert len(dl.downset[b] - dl.downset[a]) == 1


def test_downset_names_that_collide_are_refused():
    # {a,b} names both the downset of the element "a,b" and the one of a and b
    p = lb.build_poset(["a,b", "a", "b"], [])
    with pytest.raises(DuplicateElement) as exc:
        lb.downset_lattice(p)
    assert str(exc.value) == "duplicate element name: '{a,b}'"


def test_downset_cap():
    p = lb.build_poset([f"x{i}" for i in range(6)], [])
    with pytest.raises(SizeLimitExceeded):
        lb.downset_lattice(p, max_elements=10)


def test_a_cap_above_the_default_holds_through_every_constructor():
    atoms = lb.build_poset([f"a{i}" for i in range(13)], [])
    assert len(lb.downset_lattice(atoms, max_elements=8192).lattice) == 8192
    names = [f"c{i}" for i in range(5000)]
    chain = lb.build_poset(names, list(zip(names, names[1:])), max_elements=5000)
    assert chain.dual().elements == chain.elements[::-1] and chain.dual().leq("c1", "c0")
    assert len(chain.restrict(names[::2])) == 2500
    assert lb.dual_lattice(lb.Lattice(chain)).top == "c0"


def test_birkhoff_round_trip():
    # every distributive lattice is the downset lattice of its join-irreducibles
    for name, l in distributive_corpus():
        sub = l.poset.restrict(l.joinirr)
        rebuilt = lb.downset_lattice(sub)
        image = {x: rebuilt.lattice.poset.index_of(
            "{" + ",".join(j for j in sub.elements if j in lb.eta(l, x)) + "}")
            for x in l.elements}
        assert len(set(image.values())) == len(l)
        for x, y in itertools.product(l.elements, repeat=2):
            back_x = rebuilt.lattice.elements[image[x]]
            back_y = rebuilt.lattice.elements[image[y]]
            assert l.leq(x, y) == rebuilt.lattice.leq(back_x, back_y)


def test_maximal_chains_counts():
    assert len(lb.maximal_chains(chain_lattice(2))) == 1
    assert len(lb.maximal_chains(bool_lattice(2))) == 2
    chains = lb.maximal_chains(bool_lattice(3))
    assert len(chains) == 6
    for c in chains:
        assert len(c) - 1 == len(bool_lattice(3).joinirr)


def test_maximal_chain_length_in_locally_distributive_lattices():
    for name, l in corpus():
        if lb.profile(l).is_lower_locally_distributive:
            for c in lb.maximal_chains(l):
                assert len(c) - 1 == len(l.joinirr), name


def test_maximal_chains_cap():
    with pytest.raises(SizeLimitExceeded):
        lb.maximal_chains(bool_lattice(3), max_chains=3)


def test_chain_count_is_the_number_of_maximal_chains():
    for name, l in corpus() + [("bool6", bool_lattice(6)), ("convex6", convex_geometry(6))]:
        assert lb.lattice._count_chains(l) == len(lb.maximal_chains(l)), name


def test_maximal_chains_refuse_before_building_any(monkeypatch):
    l = bool_lattice(4)  # 4! = 24 maximal chains

    def build(*_):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(lb.lattice, "_names", build)
    with pytest.raises(SizeLimitExceeded) as exc:
        lb.maximal_chains(l, max_chains=23)
    assert str(exc.value) == "24 maximal chains exceed the cap of 23; raise it with --limit"
    monkeypatch.undo()
    assert len(lb.maximal_chains(l, max_chains=24)) == 24


def test_cover_endpoint_must_be_a_name():
    with pytest.raises(InvalidElementName):
        lb.build_poset(["a", "b"], [("a", {"b": 1})])
    with pytest.raises(InvalidElementName):
        lb.build_poset(["a", "b"], [(0, "b")])


@pytest.mark.parametrize("space", [" ", "\t", "\x1c", "\x85", "\u2003", "\u3000"])
def test_element_names_with_whitespace_are_refused(space):
    for name in (space + "a", "a" + space + "b", "a" + space, space):
        with pytest.raises(InvalidElementName) as exc:
            lb.build_poset([name], [])
        assert str(exc.value) == f"bad element name: {name!r}"


def test_empty_element_name_is_refused():
    with pytest.raises(InvalidElementName) as exc:
        lb.build_poset(["a", ""], [])
    assert str(exc.value) == "bad element name: ''"


def test_lattice_is_freed_by_reference_counting():
    """No reference cycle keeps a lattice alive once its caches are filled."""
    class Probe:
        pass

    gc.collect()
    gc.disable()
    try:
        l = lb.downset_lattice(lb.build_poset(list("abcd"), [("a", "b"), ("c", "d")])).lattice
        lb.mobius_function(l)
        assert len(lb.find_negations(l, limit=None)) == 2
        lb.profile(l)
        probe = Probe()
        l._cache["probe"] = probe
        alive = weakref.ref(probe)
        del probe, l
        assert alive() is None
    finally:
        gc.enable()
