"""Dempster combination, simple supports, decomposition and recombination."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latbel as lb
from latbel import io
from latbel.errors import (
    FocusIsBottom,
    InvalidFunction,
    NonPositiveWeight,
    NotABelief,
    TopMassZero,
    TotalConflict,
)
from latbel.evidence import COMBINE_POLICIES

from conftest import (
    bool_lattice,
    chain_diamond,
    chain_lattice,
    corpus,
    diamond_belief_with_a_tiny_top_mass,
    moore_lattice,
    random_mass,
)

TOL = 1e-9


def members(name):
    inner = name[1:-1]
    return frozenset(inner.split(",")) if inner else frozenset()


def vacuous(l):
    return lb.simple_support(l, l.top, 0.0)


def point_mass(l, y):
    return lb.MassAllocation(l, {x: (1.0 if x == y else 0.0) for x in l.elements},
                             check=False)


# -- combine -----------------------------------------------------------------------

def test_vacuous_mass_is_the_identity():
    rng = random.Random(61)
    for _, l in corpus():
        m = random_mass(l, rng)
        combined = lb.combine(m, vacuous(l), "raw")
        for x in l.elements:
            assert combined[x] == pytest.approx(m[x], abs=TOL)


def test_disjoint_foci_conflict_lands_at_bottom():
    l = bool_lattice(2)
    m1, m2 = point_mass(l, "{1}"), point_mass(l, "{2}")
    raw = lb.combine(m1, m2, "raw")
    assert raw[l.bottom] == pytest.approx(1.0, abs=TOL)
    zeroed = lb.combine(m1, m2, "zero-bottom")
    assert zeroed[l.bottom] == 0.0
    assert sum(v for _, v in zeroed.items()) == pytest.approx(0.0, abs=TOL)
    with pytest.raises(TotalConflict):
        lb.combine(m1, m2, "normalize")


def test_normalize_policy_rescales():
    l = bool_lattice(2)
    m1 = lb.MassAllocation(l, {"{}": 0.0, "{1}": 0.5, "{2}": 0.0, "{1,2}": 0.5})
    m2 = lb.MassAllocation(l, {"{}": 0.0, "{1}": 0.0, "{2}": 0.5, "{1,2}": 0.5})
    out = lb.combine(m1, m2, "normalize")
    assert out[l.bottom] == 0.0
    assert sum(v for _, v in out.items()) == pytest.approx(1.0, abs=TOL)
    # conflict 0.25 spread over {1}: .25, {2}: .25, {1,2}: .25
    for x in ("{1}", "{2}", "{1,2}"):
        assert out[x] == pytest.approx(0.25 / 0.75, abs=TOL)


def test_commonality_homomorphism():
    rng = random.Random(67)
    for _, l in corpus():
        for _ in range(3):
            m1, m2 = random_mass(l, rng), random_mass(l, rng)
            q1, q2 = lb.comobius_transform(m1), lb.comobius_transform(m2)
            raw = lb.comobius_transform(lb.combine(m1, m2, "raw"))
            for x in l.elements:
                assert raw[x] == pytest.approx(q1[x] * q2[x], abs=TOL)
            zeroed = lb.comobius_transform(lb.combine(m1, m2, "zero-bottom"))
            for x in l.elements:
                if x != l.bottom:
                    assert zeroed[x] == pytest.approx(q1[x] * q2[x], abs=TOL)


def test_combine_commutative_associative_and_total_preserving():
    rng = random.Random(71)
    l = chain_diamond().lattice
    for _ in range(3):
        m1, m2, m3_ = (random_mass(l, rng) for _ in range(3))
        ab = lb.combine(m1, m2, "raw")
        ba = lb.combine(m2, m1, "raw")
        abc = lb.combine(ab, m3_, "raw")
        bca = lb.combine(m1, lb.combine(m2, m3_, "raw"), "raw")
        for x in l.elements:
            assert ab[x] == pytest.approx(ba[x], abs=TOL)
            assert abc[x] == pytest.approx(bca[x], abs=TOL)
        assert sum(v for _, v in abc.items()) == pytest.approx(1.0, abs=TOL)


def test_combine_caches_nothing_that_grows_with_its_inputs():
    """The pair sum reads each meet from the position down-sets: combining
    sparse masses in either order leaves only the total up-set size, which
    the route rule reads, in the lattice's cache."""
    l = lb.boolean_lattice(list("abcdefgh"))  # not the shared corpus copy: a fresh cache
    rng = random.Random(83)
    m1, m2, m3 = (random_mass(l, rng) for _ in range(3))
    combined = lb.combine(m1, m2)
    want = dict.fromkeys(l.elements, 0.0)
    for y1, y2 in itertools.product(m1.focal_elements(), m2.focal_elements()):
        want[l.meet(y1, y2)] += m1[y1] * m2[y2]
    assert combined.values == pytest.approx(want, abs=TOL)
    assert set(l._cache) == {"up_total"}
    lb.combine(m1, m3)
    lb.combine(m3, m1)
    assert set(l._cache) == {"up_total"}


def pair_sum(m1, m2, policy):
    """Dempster's rule as it reads: m1(y1) m2(y2) summed into y1 ^ y2 over
    the focal pairs in input order, then the policy applied."""
    l = m1.lattice
    out = dict.fromkeys(l.elements, 0.0)
    for y1, y2 in itertools.product(m1.focal_elements(0.0), m2.focal_elements(0.0)):
        out[l.meet(y1, y2)] += m1[y1] * m2[y2]
    conflict = out[l.bottom]
    if policy != "raw":
        out[l.bottom] = 0.0
    if policy == "normalize":
        out = {x: v / (1.0 - conflict) for x, v in out.items()}
    return [out[x] for x in l.elements]


def by_commonality(l, m1, m2):
    """Whether combine takes the commonality product for these masses: the
    focal pairs outnumber 30 per element plus half the total up-set size."""
    pairs = len(m1.focal_elements(0.0)) * len(m2.focal_elements(0.0))
    return pairs > 30 * len(l) + sum(len(l.above(x)) for x in l.elements) / 2


def focal_sets(l, rng, dense):
    """The focal elements of two masses: for each, every element above
    bottom where ``dense`` says so, else a random number of them."""
    rest = [x for x in l.elements if x != l.bottom]
    return [rest if d else rng.sample(rest, rng.randint(1, len(rest))) for d in dense]


def assert_route(l, dense):
    """A fresh lattice's cache shows the route combine took: only the
    product builds the up-set steps."""
    assert ("up" in l._cache) == dense


def big_moore_lattice(rng):
    """A Moore lattice on 7 or 8 points, large enough that about one in six
    of the draws below take the commonality product."""
    return moore_lattice(rng, points=(7, 8), generators=(8, 16))


@settings(max_examples=60, deadline=None)
@given(l=st.randoms().map(big_moore_lattice), dual=st.booleans(),
       dense=st.tuples(st.booleans(), st.booleans()), rng=st.randoms())
def test_both_routes_match_the_pair_sum_on_random_moore_families(l, dual, dense, rng):
    if dual:
        l = lb.dual_lattice(l)
    if len(l) < 2:
        return
    m1, m2 = (random_mass(l, rng, top_min=0.2, focal=f) for f in focal_sets(l, rng, dense))
    route = by_commonality(l, m1, m2)
    for policy in COMBINE_POLICIES:
        got, want = lb.combine(m1, m2, policy).vector, pair_sum(m1, m2, policy)
        if route:
            assert got == pytest.approx(want, rel=0, abs=1e-12)
        else:
            assert list(got) == want
    assert_route(l, route)


def full_dyadic_mass(l, rng):
    """A mass of 1024 units of 1/1024, at least one on every element above
    bottom: its pair products and every sum of them are exact floats."""
    units, spare = [0] * len(l), 1024 - (len(l) - 1)
    for x in l._order[1:]:
        units[x] = 1
    for k in range(8):  # the spare units in eight lots
        units[rng.choice(l._order[1:])] += spare // 8 + (k < spare % 8)
    return lb.MassAllocation(l, dict(zip(l.elements, (u / 1024 for u in units))))


@settings(max_examples=60, deadline=None)
@given(l=st.randoms().map(big_moore_lattice), dual=st.booleans(),
       dense=st.tuples(st.booleans(), st.booleans()), rng=st.randoms())
def test_both_routes_are_exact_on_dyadic_masses(l, dual, dense, rng):
    if dual:
        l = lb.dual_lattice(l)
    if len(l) < 2:
        return
    m1, m2 = (full_dyadic_mass(l, rng) if d else dyadic_mass(l, rng) for d in dense)
    for policy in COMBINE_POLICIES:
        if policy == "normalize" and lb.combine(m1, m2)[l.bottom] == 1.0:
            continue
        assert list(lb.combine(m1, m2, policy).vector) == pair_sum(m1, m2, policy)
    assert_route(l, by_commonality(l, m1, m2))


def test_a_dense_boolean_combination_takes_the_product():
    rng = random.Random(89)
    l = lb.boolean_lattice(list("abcdefgh"))  # fresh caches
    m1, m2 = (random_mass(l, rng, focal=f) for f in focal_sets(l, rng, (True, True)))
    assert by_commonality(l, m1, m2)
    for policy in COMBINE_POLICIES:
        assert lb.combine(m1, m2, policy).vector == pytest.approx(
            pair_sum(m1, m2, policy), rel=0, abs=1e-12)
    assert_route(l, True)

    l = lb.boolean_lattice(list("abcdefgh"))  # masses of at most 6 focal elements sum pairs
    m1, m2 = random_mass(l, rng), random_mass(l, rng)
    assert not by_commonality(l, m1, m2)
    lb.combine(m1, m2)
    assert_route(l, False)


def test_a_dense_chain_combination_takes_the_product():
    """On a 300-element chain the 299 x 299 focal pairs outnumber 30 per
    element plus half its 45,150 up-set members."""
    rng = random.Random(97)
    names = [f"c{i}" for i in range(300)]
    l = lb.lattice_from_poset(lb.build_poset(names, list(zip(names, names[1:]))))
    m1, m2 = (random_mass(l, rng, focal=f) for f in focal_sets(l, rng, (True, True)))
    assert by_commonality(l, m1, m2)
    for policy in COMBINE_POLICIES:
        assert lb.combine(m1, m2, policy).vector == pytest.approx(
            pair_sum(m1, m2, policy), rel=0, abs=1e-12)
    assert_route(l, True)


def partitions(k):
    """The partition lattice of k points: set partitions, named by their
    blocks, each covered by merging two of its blocks."""
    def refine(n):
        if n == 0:
            yield ()
            return
        for p in refine(n - 1):
            yield (*p, (n,))
            for b in range(len(p)):
                yield (*p[:b], (*p[b], n), *p[b + 1:])

    def name(blocks):
        return "|".join(sorted("".join(map(str, sorted(b))) for b in blocks))

    parts = sorted(refine(k), key=len, reverse=True)
    covers = [(name(p), name([*p[:a], *p[a + 1:b], *p[b + 1:], p[a] + p[b]]))
              for p in parts for a, b in itertools.combinations(range(len(p)), 2)]
    return lb.lattice_from_poset(lb.build_poset(list(map(name, parts)), covers))


def test_the_route_table():
    """Dense masses take the product on chain128 and Pi5 and the pairs on
    the small lattices of the CLI's inputs; masses of 3 focal elements take
    the pairs everywhere.  Each combine runs on a fresh lattice, whose cache
    shows the route."""
    pi5 = partitions(5)
    assert len(pi5) == 52 and len(pi5.atoms) == 10
    table = [(chain_diamond().lattice, False), (bool_lattice(3), False), (bool_lattice(4), False),
             (chain_lattice(127), True), (pi5, True)]
    rng = random.Random(103)
    for given, dense_route in table:
        for dense, route in ((True, dense_route), (False, False)):
            l = lb.lattice_from_poset(lb.build_poset(list(given.elements), given.covers))
            rest = [x for x in l.elements if x != l.bottom]
            m1, m2 = (random_mass(l, rng, focal=rest if dense else rng.sample(rest, 3))
                      for _ in range(2))
            assert by_commonality(l, m1, m2) == route
            lb.combine(m1, m2)
            assert_route(l, route)


def test_a_dense_mass_and_a_simple_support_sum_their_pairs_in_order():
    """Dempster's rule with one simple support, the step of the decomposition
    theorem: the focal pairs of a dense mass and a simple support take the
    pair route, and their sum is the oracle's, float for float, when the
    oracle visits the pairs in the same order with meets from l.meet."""
    rng = random.Random(107)
    for given in (lb.boolean_lattice(list("abcdefgh")), chain_lattice(127), partitions(5)):
        l = lb.lattice_from_poset(lb.build_poset(list(given.elements), given.covers))
        rest = [x for x in l.elements if x != l.bottom]
        dense = random_mass(l, rng, focal=rest)
        simple = lb.simple_support(l, rng.choice(rest), rng.random())
        for m1, m2 in ((dense, simple), (simple, dense)):
            assert not by_commonality(l, m1, m2)
            for policy in COMBINE_POLICIES:
                assert list(lb.combine(m1, m2, policy).vector) == pair_sum(m1, m2, policy)
        assert_route(l, False)


# -- simple supports ----------------------------------------------------------------

def test_simple_support_shapes():
    l = bool_lattice(2)
    s = lb.simple_support(l, "{1}", 0.3)
    assert s["{1}"] == pytest.approx(0.7)
    assert s[l.top] == pytest.approx(0.3)
    assert s.focal_elements() == ("{1}", "{1,2}")

    assert vacuous(l)[l.top] == pytest.approx(1.0)
    degenerate = lb.simple_support(l, l.top, 0.4)
    assert degenerate[l.top] == pytest.approx(1.0)
    with pytest.raises(FocusIsBottom):
        lb.simple_support(l, l.bottom, 0.5)


def test_simple_support_commonality_profile():
    l = chain_diamond().lattice
    y, w = "{a,b,c}", 0.4
    q = lb.comobius_transform(lb.simple_support(l, y, w))
    for x in l.elements:
        assert q[x] == pytest.approx(1.0 if l.leq(x, y) else w, abs=TOL)


def test_boolean_simple_support_masses():
    l = bool_lattice(3)
    s = lb.simple_support(l, "{1,2}", 0.25)
    expected = {x: 0.0 for x in l.elements}
    expected["{1,2}"] = 0.75
    expected["{1,2,3}"] = 0.25
    for x in l.elements:
        assert s[x] == pytest.approx(expected[x], abs=TOL)


def test_same_focus_supports_multiply():
    l = bool_lattice(3)
    w1, w2 = 0.6, 0.7
    combined = lb.combine(lb.simple_support(l, "{2}", w1),
                          lb.simple_support(l, "{2}", w2), "raw")
    product = lb.simple_support(l, "{2}", w1 * w2)
    for x in l.elements:
        assert combined[x] == pytest.approx(product[x], abs=TOL)


def dyadic_mass(l, rng, *, top=0):
    """A mass of 64 units of 1/64 over the elements above bottom, top/64 of
    them on top: sums and products of these are exact floats."""
    units = [0] * len(l)
    units[l._order[-1]] = top
    for _ in range(64 - top):
        units[rng.choice(l._order[1:])] += 1
    return lb.MassAllocation(l, dict(zip(l.elements, (u / 64 for u in units))))


@settings(max_examples=100, deadline=None)
@given(l=st.randoms().map(moore_lattice), dual=st.booleans(), rng=st.randoms())
def test_combination_multiplies_commonalities_on_random_moore_families(l, dual, rng):
    if dual:
        l = lb.dual_lattice(l)
    if len(l) < 2:
        return
    m1, m2 = dyadic_mass(l, rng), dyadic_mass(l, rng)
    q1, q2 = lb.comobius_transform(m1), lb.comobius_transform(m2)
    product = [a * b for a, b in zip(q1.vector, q2.vector)]
    assert list(lb.comobius_transform(lb.combine(m1, m2, "raw")).vector) == product
    bottom, conflict = l._order[0], lb.combine(m1, m2, "raw")[l.bottom]
    off_bottom = [i for i in range(len(l)) if i != bottom]
    q = lb.comobius_transform(lb.combine(m1, m2, "zero-bottom")).vector
    assert [q[i] for i in off_bottom] == [product[i] for i in off_bottom]
    if conflict == 1.0:
        with pytest.raises(TotalConflict):
            lb.combine(m1, m2, "normalize")
        return
    q = lb.comobius_transform(lb.combine(m1, m2, "normalize")).vector
    assert [q[i] for i in off_bottom] == pytest.approx(
        [product[i] / (1.0 - conflict) for i in off_bottom], rel=1e-12, abs=1e-15)


# -- decompose / recombine -------------------------------------------------------------

def test_decompose_of_a_simple_support():
    l = chain_diamond().lattice
    y, w = "{a,c}", 0.35
    bel = lb.zeta_transform(lb.simple_support(l, y, w))
    weights = lb.decompose(bel)
    assert set(weights.weights) == {y}
    assert weights[y] == pytest.approx(w, abs=1e-12)
    assert weights["{a}"] == 1.0


def test_decompose_vacuous_belief_has_no_components():
    l = bool_lattice(3)
    bel = lb.zeta_transform(vacuous(l))
    assert lb.decompose(bel).weights == {}


def test_decompose_preconditions():
    l = bool_lattice(2)
    not_belief = lb.SetFunction(l, {"{}": 0.0, "{1}": 1.0, "{2}": 1.0, "{1,2}": 1.0})
    with pytest.raises(NotABelief):
        lb.decompose(not_belief)
    no_top_mass = lb.zeta_transform(point_mass(l, "{1}"))
    with pytest.raises(TopMassZero):
        lb.decompose(no_top_mass)


def test_decompose_reports_the_check_belief_witness():
    rng = random.Random(73)
    for name, l in corpus():
        for _ in range(3):
            f = lb.SetFunction(l, {x: rng.uniform(0, 1) for x in l.elements})
            f = lb.SetFunction(l, {**f.values, l.bottom: 0.0, l.top: 1.0})
            res = lb.check_belief(f)
            if res:
                continue
            with pytest.raises(NotABelief) as exc:
                lb.decompose(f)
            assert (exc.value.witness, str(exc.value)) == (res.witness, res.detail), name
    l = bool_lattice(2)
    off = lb.SetFunction(l, {"{}": 0.1, "{1}": 0.5, "{2}": 0.5, "{1,2}": 1.0})
    res = lb.check_belief(off)
    with pytest.raises(NotABelief) as exc:
        lb.decompose(off)
    assert (exc.value.witness, str(exc.value)) == (res.witness, res.detail) == (
        ("{}",), "f(bottom) = 0.1, expected 0")


def test_decompose_refuses_a_non_positive_commonality():
    """Masses negative within the tolerance pass as a belief, but can leave a
    commonality at or below 0, whose logarithm the decomposition needs."""
    l = bool_lattice(3)
    m = {x: 0.0 for x in l.elements}
    for x in ("{1}", "{1,2}", "{1,3}"):
        m[x] = -0.9e-9
    m["{1,2,3}"] = 1.5e-9
    m["{2}"] = 1.0 - sum(m.values())
    bel = lb.zeta_transform(lb.MassAllocation(l, m))
    assert lb.check_belief(bel)
    with pytest.raises(TopMassZero, match="commonality"):
        lb.decompose(bel)


def test_decompose_refuses_weights_beyond_the_float_range():
    for n in (48, 60):
        bel = diamond_belief_with_a_tiny_top_mass(n)
        assert lb.check_belief(bel)
        with pytest.raises(InvalidFunction, match="^the weights of this decomposition exceed "
                                                  "the float range$"):
            lb.decompose(bel)


def test_decompose_matches_boolean_closed_form():
    # independent oracle: w(A) = prod over B >= A of q(B)^((-1)^(|B - A| + 1))
    rng = random.Random(73)
    l = bool_lattice(3)
    for _ in range(10):
        m = random_mass(l, rng, top_min=0.1)
        bel = lb.zeta_transform(m)
        q = lb.comobius_transform(m)
        weights = lb.decompose(bel)
        for a in l.elements:
            if a == l.top:
                continue
            expected = 1.0
            for b in l.elements:
                if members(a) <= members(b):
                    expected *= q[b] ** ((-1) ** (len(members(b) - members(a)) + 1))
            assert weights[a] == pytest.approx(expected, abs=1e-10)


def test_decompose_weights_can_exceed_one():
    # two disjoint foci force a signed component at bottom
    l = bool_lattice(2)
    m = lb.MassAllocation(l, {"{}": 0.0, "{1}": 0.3, "{2}": 0.3, "{1,2}": 0.4})
    weights = lb.decompose(lb.zeta_transform(m))
    assert weights["{}"] == pytest.approx(0.49 / 0.4, abs=1e-12)
    assert weights["{1}"] == pytest.approx(0.4 / 0.7, abs=1e-12)


def test_recombine_round_trip():
    rng = random.Random(79)
    for name, l in corpus():
        if len(l) > 12:
            continue
        for _ in range(4):
            m = random_mass(l, rng, top_min=0.05)
            bel = lb.zeta_transform(m)
            rebuilt = lb.recombine(lb.decompose(bel))
            for x in l.elements:
                assert rebuilt[x] == pytest.approx(m[x], abs=1e-8), name


@settings(max_examples=100, deadline=None)
@given(l=st.randoms().map(moore_lattice), dual=st.booleans(), rng=st.randoms())
def test_recombine_inverts_decompose_on_random_moore_families(l, dual, rng):
    if dual:
        l = lb.dual_lattice(l)
    if len(l) < 2:
        return
    m = dyadic_mass(l, rng, top=8)
    again = lb.recombine(lb.decompose(lb.zeta_transform(m)))
    assert again.vector == pytest.approx(m.vector, abs=1e-9)


def test_recombine_single_weight_is_a_simple_support():
    l = bool_lattice(3)
    y, w = "{1,3}", 0.45
    rebuilt = lb.recombine(lb.SupportWeights(l, {y: w}))
    reference = lb.simple_support(l, y, w)
    for x in l.elements:
        assert rebuilt[x] == pytest.approx(reference[x], abs=TOL)


def test_recombine_rejects_nonpositive_weights():
    l = bool_lattice(2)
    with pytest.raises(NonPositiveWeight):
        lb.recombine(lb.SupportWeights(l, {"{1}": 0.0}))


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
def test_support_weights_refuse_non_finite_weights(w):
    l = bool_lattice(2)
    with pytest.raises(lb.errors.InvalidFunction, match="not finite"):
        lb.SupportWeights(l, {"{1}": 0.5, "{2}": w})
    with pytest.raises(lb.errors.UnknownElement):
        lb.SupportWeights(l, {"{3}": w})
    assert lb.SupportWeights(l, {"{2}": 0.5, "{1}": 2}).weights == {"{1}": 2.0, "{2}": 0.5}


def test_support_weights_refuse_unknown_names():
    w = lb.SupportWeights(bool_lattice(2), {"{1}": 0.5})
    assert (w["{1}"], w["{2}"]) == (0.5, 1.0)
    for name in ("nope", ["{1}"], None):
        with pytest.raises(lb.errors.UnknownElement):
            w[name]


def test_support_weights_cannot_be_changed_through_their_dict():
    l = bool_lattice(2)
    w = lb.SupportWeights(l, {"{1}": 0.5, "{2}": 0.25})
    m = lb.recombine(w)
    w.weights["{1}"] = -1.0  # a nonpositive weight, were it stored
    dict(w.items())["{2}"] = 2.0
    assert w.weights == {"{1}": 0.5, "{2}": 0.25} and w.vector == (1.0, 0.5, 0.25, 1.0)
    assert lb.recombine(w).vector == m.vector
    with pytest.raises(TypeError):
        w.vector[1] = 1.0


def test_combine_requires_one_lattice():
    rng = random.Random(81)
    with pytest.raises(lb.errors.LatticeMismatch):
        lb.combine(random_mass(bool_lattice(2), rng),
                   random_mass(bool_lattice(3), rng))


def test_mass_allocation_validation():
    l = bool_lattice(2)
    with pytest.raises(lb.errors.InvalidFunction, match="mass total is 1.2, expected 1"):
        lb.MassAllocation(l, {"{}": 0.0, "{1}": 0.6, "{2}": 0.6, "{1,2}": 0.0})
    with pytest.raises(lb.errors.InvalidFunction, match="mass at bottom is 0.5, expected 0"):
        lb.MassAllocation(l, {"{}": 0.5, "{1}": 0.5, "{2}": 0.0, "{1,2}": 0.0})
    signed = lb.MassAllocation(l, {"{}": 0.0, "{1}": -0.5, "{2}": 0.5, "{1,2}": 1.0})
    assert not signed.is_nonnegative()
    assert signed.focal_elements() == ("{1}", "{2}", "{1,2}")


def test_a_bad_mass_file_raises_a_latbel_error(tmp_path):
    """Refused data is an InvalidFunction, caught with every other LatBelError;
    misuse of the API, such as an unknown policy, stays a ValueError."""
    l = bool_lattice(2)
    path = tmp_path / "mass.json"
    path.write_text('{"v": 1, "values": {"{}": 0, "{1}": 0.5, "{2}": 0.25, "{1,2}": 0.125}}',
                    "utf-8")
    with pytest.raises(lb.errors.LatBelError, match="mass total is 0.875, expected 1") as exc:
        io.load_mass(path, l)
    assert type(exc.value) is lb.errors.InvalidFunction
    m = lb.simple_support(l, "{1}", 0.5)
    with pytest.raises(ValueError, match="unknown policy"):
        lb.combine(m, m, "bogus")
