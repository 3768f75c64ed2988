"""Moebius coefficients and the four transforms, anchored to brute-force
subset sums and hand-solved small systems."""

import contextlib
import itertools
import math
import operator
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latbel as lb
from latbel.lattice import _indices, is_distributive
from latbel.transforms import _Vector

from conftest import (bool_lattice, chain_lattice, convex_geometry, corpus, declared, moore_lattice,
                      random_function, random_poset)

TOL = 1e-9


def members(name):
    inner = name[1:-1]
    return frozenset(inner.split(",")) if inner else frozenset()


def test_mu_diagonal_is_one():
    for _, l in corpus():
        mat = lb.mobius_function(l)
        for x in l.elements:
            assert mat.mu(x, x) == 1


def test_mu_three_chain_by_hand():
    l = chain_lattice(2)
    mat = lb.mobius_function(l)
    bottom, a, top = l.elements
    assert mat.mu(bottom, a) == -1
    assert mat.mu(bottom, top) == 0
    assert mat.mu(a, top) == -1
    assert mat.mu(top, bottom) == 0


def test_mu_boolean_sign_formula():
    l = bool_lattice(3)
    mat = lb.mobius_function(l)
    for b in l.elements:
        for a in l.elements:
            if members(b) <= members(a):
                assert mat.mu(b, a) == (-1) ** len(members(a) - members(b))
            else:
                assert mat.mu(b, a) == 0


def test_mu_where_the_covers_of_x_collide():
    """[x, t] has 2^3 elements, but a lies below b v c = t: the covers of x
    are dependent, so row x is the crosscut's and not a Boolean row."""
    covers = [("x", a) for a in "abc"] + [("a", "d"), ("b", "e"), ("c", "f")]
    covers += [(y, "t") for y in "def"]
    l = lb.lattice_from_poset(lb.build_poset(["x", *"abcdef", "t"], covers))
    mat = lb.mobius_function(l)
    assert mat.mu("x", "t") == 2 and mat.mu("x", "d") == 0
    assert [mat.mu("x", y) for y in "abcef"] == [-1, -1, -1, 0, 0]


def test_mu_where_the_covers_of_x_span_more_than_a_boolean_interval():
    """B3 with p inserted between a and a v b: the covers a, b, c of x are
    independent, but [x, t] has 9 elements, so mu(x, p) = 0 as in the pentagon."""
    covers = [("x", a) for a in "abc"] + [("a", "p"), ("p", "ab"), ("b", "ab")]
    covers += [("a", "ac"), ("c", "ac"), ("b", "bc"), ("c", "bc")]
    covers += [(y, "t") for y in ("ab", "ac", "bc")]
    l = lb.lattice_from_poset(lb.build_poset(["x", *"abcp", "ab", "ac", "bc", "t"], covers))
    mat = lb.mobius_function(l)
    assert [mat.mu("x", y) for y in ("p", "ab", "ac", "t")] == [0, 1, 1, -1]


def test_mu_interval_recursion_and_integrality():
    for _, l in corpus():
        mat = lb.mobius_function(l)
        for x, y in itertools.product(l.elements, repeat=2):
            assert isinstance(mat.mu(x, y), int)
            if l.leq(x, y) and x != y:
                partial = sum(mat.mu(x, t) for t in l.elements
                              if l.leq(x, t) and l.leq(t, y) and t != y)
                assert partial == -mat.mu(x, y)


def test_mu_row_sum_zero_above_bottom():
    for _, l in corpus():
        mat = lb.mobius_function(l)
        for x in l.elements:
            if x != l.bottom:
                assert sum(mat.mu(y, x) for y in l.elements if l.leq(y, x)) == 0


def test_mobius_of_zero_is_zero():
    l = bool_lattice(2)
    z = lb.SetFunction(l, {x: 0.0 for x in l.elements})
    assert all(v == 0.0 for _, v in lb.mobius_transform(z).items())


def test_mobius_of_upset_indicator_on_chain():
    # f(x) = 1 iff x >= a solves to a single unit of mass at a
    l = chain_lattice(2)
    bottom, a, top = l.elements
    f = lb.SetFunction(l, {bottom: 0.0, a: 1.0, top: 1.0})
    m = lb.mobius_transform(f)
    assert m[a] == pytest.approx(1.0, abs=TOL)
    assert m[bottom] == pytest.approx(0.0, abs=TOL)
    assert m[top] == pytest.approx(0.0, abs=TOL)


def test_zeta_of_bottom_mass_is_constant():
    l = bool_lattice(2)
    m = lb.SetFunction(l, {x: (1.0 if x == l.bottom else 0.0) for x in l.elements})
    f = lb.zeta_transform(m)
    assert all(v == pytest.approx(1.0, abs=TOL) for _, v in f.items())


def test_boolean_zeta_and_comobius_match_subset_sums():
    l = bool_lattice(3)
    rng = random.Random(5)
    m = lb.SetFunction(l, {x: rng.uniform(-1, 1) for x in l.elements})
    f = lb.zeta_transform(m)
    q = lb.comobius_transform(m)
    for a in l.elements:
        below = sum(m[b] for b in l.elements if members(b) <= members(a))
        above = sum(m[b] for b in l.elements if members(b) >= members(a))
        assert f[a] == pytest.approx(below, abs=TOL)
        assert q[a] == pytest.approx(above, abs=TOL)


def test_comobius_boundaries():
    from conftest import random_mass

    rng = random.Random(11)
    for _, l in corpus():
        m = random_mass(l, rng)
        q = lb.comobius_transform(m)
        assert q[l.bottom] == pytest.approx(1.0, abs=TOL)
        assert q[l.top] == pytest.approx(m[l.top], abs=TOL)


def test_mass_from_comobius_three_chain_by_hand():
    # q = (1, 0, 0) inverts to m = (1, 0, 0): solve the triangular system
    # q(x) = sum m(y) over y >= x directly.
    l = chain_lattice(2)
    bottom, a, top = l.elements
    q = lb.SetFunction(l, {bottom: 1.0, a: 0.0, top: 0.0})
    m = lb.mass_from_comobius(q)
    assert m[top] == pytest.approx(0.0, abs=TOL)
    assert m[a] == pytest.approx(0.0, abs=TOL)
    assert m[bottom] == pytest.approx(1.0, abs=TOL)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inversion_round_trips(data):
    entries = corpus()
    name, l = entries[data.draw(st.integers(0, len(entries) - 1), label="lattice")]
    values = data.draw(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=len(l), max_size=len(l)),
        label="values",
    )
    f = lb.SetFunction(l, dict(zip(l.elements, values)))
    back = lb.zeta_transform(lb.mobius_transform(f))
    forth = lb.mobius_transform(lb.zeta_transform(f))
    dual = lb.comobius_transform(lb.mass_from_comobius(f))
    for x in l.elements:
        assert back[x] == pytest.approx(f[x], abs=1e-9)
        assert forth[x] == pytest.approx(f[x], abs=1e-9)
        assert dual[x] == pytest.approx(f[x], abs=1e-9)


def test_transforms_are_linear():
    rng = random.Random(13)
    for _, l in [("b3", bool_lattice(3)), ("c4", chain_lattice(4))]:
        f, g = random_function(l, rng), random_function(l, rng)
        c = rng.uniform(-2, 2)
        combo = lb.SetFunction(l, {x: f[x] + c * g[x] for x in l.elements})
        for op in (lb.mobius_transform, lb.zeta_transform,
                   lb.comobius_transform, lb.mass_from_comobius):
            lhs = op(combo)
            rhs_f, rhs_g = op(f), op(g)
            for x in l.elements:
                assert lhs[x] == pytest.approx(rhs_f[x] + c * rhs_g[x], abs=1e-9)


def test_set_function_totality():
    l = bool_lattice(2)
    with pytest.raises(lb.errors.IncompleteFunction) as err:
        lb.SetFunction(l, {l.bottom: 0.0})
    assert set(err.value.missing) == set(l.elements) - {l.bottom}
    with pytest.raises(lb.errors.UnknownElement):
        lb.SetFunction(l, {**{x: 0.0 for x in l.elements}, "ghost": 1.0})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), None, 10**400],
                         ids=["nan", "inf", "-inf", "None", "huge-int"])
def test_set_function_refuses_non_finite_values(bad):
    l = bool_lattice(1)
    with pytest.raises(lb.errors.InvalidFunction):
        lb.SetFunction(l, {"{}": 0.0, "{1}": bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("at", [0, 2, 3], ids=["first", "middle", "last"])
def test_set_function_names_the_first_non_finite_value(bad, at):
    l = bool_lattice(2)
    values = [0.25] * 4
    values[at:] = [bad] + [float("nan")] * (3 - at)  # the later ones go unnamed
    with pytest.raises(lb.errors.InvalidFunction) as err:
        lb.SetFunction(l, dict(zip(l.elements, values)))
    assert str(err.value) == f"value of {l.elements[at]!r} is not finite: {bad!r}"


def test_a_finite_function_whose_sum_overflows_is_accepted():
    l = bool_lattice(2)
    f = lb.SetFunction(l, dict.fromkeys(l.elements, 1e308))
    assert f.vector == (1e308,) * 4 and math.isinf(sum(f.vector))


def test_a_library_built_vector_is_kept_and_named_values_become_floats():
    l = bool_lattice(2)
    v = _Vector((0.0, 0.5, 0.25, 0.75))
    assert lb.SetFunction(l, v).vector is v
    f = lb.SetFunction(l, {"{}": 0, "{1}": True, "{2}": False, "{1,2}": 3})
    assert f.vector == (0.0, 1.0, 0.0, 3.0) and {type(x) for x in f.vector} == {float}
    with pytest.raises(lb.errors.InvalidFunction) as err:  # still checked for finiteness
        lb.SetFunction(l, _Vector((0.0, float("nan"), 0.25, 0.75)))
    assert str(err.value) == "value of '{1}' is not finite: nan"


def test_a_function_cannot_be_changed_through_its_values():
    l = bool_lattice(2)
    f = lb.SetFunction(l, {"{}": 0.0, "{1}": 0.5, "{2}": 0.25, "{1,2}": 0.75})
    vector = f.vector
    f.values[l.top] = float("nan")  # a NaN top would pass every boundary check
    assert f[l.top] == 0.75 and f.vector == vector == (0.0, 0.5, 0.25, 0.75)
    assert f.values == {"{}": 0.0, "{1}": 0.5, "{2}": 0.25, "{1,2}": 0.75}
    assert not lb.check_capacity(f)
    m = lb.MassAllocation(l, {"{}": 0.0, "{1}": 0.5, "{2}": 0.25, "{1,2}": 0.25})
    m.values[l.bottom] = -5.0
    assert m[l.bottom] == 0.0 and m.is_nonnegative()
    assert m.focal_elements() == ("{1}", "{2}", "{1,2}")
    with pytest.raises(TypeError):
        f.vector[0] = 1.0


def test_set_function_refuses_unknown_and_unhashable_names():
    f = lb.SetFunction(bool_lattice(1), {"{}": 0.0, "{1}": 1.0})
    for name in ("nope", ["{1}"], {"{1}": 1}):
        with pytest.raises(lb.errors.UnknownElement):
            f[name]


def set_members(l, side):
    """The indices of each element's down-set (up-set), in summation order:
    ascending (descending), elements being numbered along a linear extension."""
    return [ms if side == "down" else ms[::-1] for ms in index_members(l, side)]


def index_members(l, side):
    """The indices of each element's down-set (up-set), ascending."""
    return [tuple(_indices(mask)) for mask in (l._down if side == "down" else l._up)]


def random_linear_extension(l, rng):
    """Element indices in a random order that lists every x before all y > x."""
    down, placed, order = l.poset._down, 0, []
    while len(order) < len(l):
        ready = [i for i in range(len(l)) if not placed >> i & 1 and down[i] & ~placed == 1 << i]
        order.append(rng.choice(ready))
        placed |= 1 << order[-1]
    return order


def nondistributive_moore_lattice(rng):
    """A Moore lattice that is not distributive, on which the transforms
    still sum along step lists: the first such draw of a generator seeded
    from rng (a draw of Hypothesis's may repeat one lattice forever)."""
    rng = random.Random(rng.getrandbits(64))
    while is_distributive(l := moore_lattice(rng)):
        pass
    return l


def nondistributive_corpus():
    """The lattices of the corpus that are not distributive, with three
    convex geometries."""
    return [l for _, l in corpus() if not is_distributive(l)] + [
        convex_geometry(m) for m in (3, 4, 5)]


def test_solves_are_equal_along_any_linear_extension():
    """Each solved value depends only on the values of its strict members,
    so the stored order gives the floats of any other linear extension (on
    lattices that are not distributive, where the solve substitutes)."""
    rng = random.Random(17)
    lattices = nondistributive_corpus() + [nondistributive_moore_lattice(rng) for _ in range(40)]
    for l in lattices:
        assert all(l.poset.index_of(a) < l.poset.index_of(b) for a, b in l.covers)
        f = random_function(l, rng)
        for side, solve in (("down", lb.mobius_transform), ("up", lb.mass_from_comobius)):
            members = set_members(l, side)
            order = random_linear_extension(l, rng)
            out, given = [0.0] * len(l), list(f.values.values())
            for x in order if side == "down" else reversed(order):
                out[x] = given[x] - sum(out[y] for y in members[x])
            assert list(solve(f).values.values()) == out


# -- the summation kernel -------------------------------------------------------------
#
# On a lattice that is not distributive, the transforms sum each set as the
# continuation of its prefix cover's sum.  The oracle below is the kernel
# before that: every set summed whole, in
# ascending (descending) index order for down-sets (up-sets), and the
# inversion substituted element by element.

def oracle_sums(l, side, values):
    get = list(values).__getitem__
    return [sum(map(get, ms)) for ms in set_members(l, side)]


def oracle_solve(l, side, given):
    members = set_members(l, side)
    out = [0.0] * len(l)
    get = out.__getitem__
    for x in range(len(l)) if side == "down" else reversed(range(len(l))):
        out[x] = given[x] - sum(map(get, members[x]))
    return out


@contextlib.contextmanager
def oracle_kernel():
    """The library with the whole-set sums in place of the kernel."""
    swap = {"_sums": oracle_sums, "_solve": oracle_solve}
    with mock.patch.multiple(lb.transforms, **swap), mock.patch.multiple(lb.evidence, **swap):
        yield


def awkward_value(rng):
    return rng.choice([0.0, -0.0, 1e-17, 1 / 3, rng.uniform(-1.0, 1.0)])


def kernel_outputs(l, rng):
    """The four transforms, the commonality product of Dempster combination,
    decompose and recombine on values drawn for this lattice, as vectors (a
    refusal as its repr)."""
    f = lb.SetFunction(l, _Vector(awkward_value(rng) for _ in l.elements))
    g = [awkward_value(rng) for _ in l.elements]
    mass = [0.0 if x == 0 else abs(awkward_value(rng)) for x in range(len(l))]  # 0: bottom
    mass[-1] += 0.25  # at top
    mass = [v / sum(mass) for v in mass]
    weights = [rng.choice([1.0, 1 / 3, rng.uniform(0.1, 3.0)]) for _ in l.elements]
    yield from (fn(f).vector for fn in (lb.zeta_transform, lb.mobius_transform,
                                         lb.comobius_transform, lb.mass_from_comobius))
    yield lb.evidence._by_commonality(l, f.vector, g)
    bel = lb.zeta_transform(lb.SetFunction(l, _Vector(mass)))
    try:
        yield lb.decompose(bel, tol=1e-6).vector
    except lb.errors.LatBelError as exc:  # the same refusal on both sides
        yield repr(exc)
    yield lb.recombine(lb.SupportWeights(l, _Vector(weights))).vector


def hexed_outputs(l, seed):
    return [vec if isinstance(vec, str) else [v.hex() for v in vec]
            for vec in kernel_outputs(l, random.Random(seed))]


def assert_kernel_matches_the_oracle(l, seed):
    got = hexed_outputs(l, seed)
    with oracle_kernel():
        assert got == hexed_outputs(l, seed)


def test_the_kernel_is_bit_identical_to_whole_set_sums_on_the_corpus():
    rng = random.Random(23)
    for l in nondistributive_corpus():
        for base in (l, lb.dual_lattice(l)):
            for how in ("given", "reversed", "shuffled"):
                k = declared(base, how, rng)
                for _ in range(3):
                    assert_kernel_matches_the_oracle(k, rng.random())
                reused = {side for side in ("down", "up")
                          if any(c >= 0 for _, c, _ in lb.transforms._steps(k, side))}
                assert reused == ({"down", "up"} if lb.transforms._LEFT_TO_RIGHT else set())


@settings(max_examples=60, deadline=None)
@given(l=st.randoms().map(nondistributive_moore_lattice), dual=st.booleans(),
       how=st.sampled_from(["given", "reversed", "shuffled"]), rng=st.randoms())
def test_the_kernel_is_bit_identical_to_whole_set_sums_on_random_moore_families(l, dual, how, rng):
    if dual:
        l = lb.dual_lattice(l)
    assert_kernel_matches_the_oracle(declared(l, how, rng), rng.random())


def along_an_extension(l, rng):
    """The lattice declared along a random linear extension, which its
    elements keep."""
    names = [l.elements[i] for i in random_linear_extension(l, rng)]
    k = lb.lattice_from_poset(lb.build_poset(names, l.covers))
    assert k.elements == tuple(names)
    return k


def assert_down_side_matches_ascending_indices(l, seed):
    """Zeta and the Moebius transform give the floats of the whole down-set
    sums in ascending index order."""
    f = lb.SetFunction(l, _Vector(awkward_value(random.Random(seed)) for _ in l.elements))
    get = f.vector.__getitem__
    members = index_members(l, "down")
    zeta = [sum(map(get, ms)) for ms in members]
    mobius = [0.0] * len(l)
    for x in range(len(l)):
        mobius[x] = f.vector[x] - sum(map(mobius.__getitem__, members[x]))
    assert [v.hex() for v in lb.zeta_transform(f).vector] == [v.hex() for v in zeta]
    assert [v.hex() for v in lb.mobius_transform(f).vector] == [v.hex() for v in mobius]


def test_the_down_side_sums_in_index_order_along_an_extension_on_the_corpus():
    rng = random.Random(29)
    for l in nondistributive_corpus():  # each declared bottom-first
        assert_down_side_matches_ascending_indices(l, rng.random())
        for base in (l, lb.dual_lattice(l)):
            assert_down_side_matches_ascending_indices(along_an_extension(base, rng), rng.random())


@settings(max_examples=60, deadline=None)
@given(l=st.randoms().map(nondistributive_moore_lattice), dual=st.booleans(), rng=st.randoms())
def test_the_down_side_sums_in_index_order_along_an_extension_on_random_moore_families(
        l, dual, rng):
    if dual:
        l = lb.dual_lattice(l)
    assert_down_side_matches_ascending_indices(along_an_extension(l, rng), rng.random())


def gathered(l, side):
    """The number of values the steps of one side gather."""
    ids = list(range(len(l)))
    return sum(len(get(ids)) for _, _, get in lb.transforms._steps(l, side))


def whole(l, side):
    """The number of values the whole-set sums of one side gather."""
    return sum(map(len, set_members(l, side)))


def with_m3_on_top(names, covers):
    """The lattice with three atoms p, q, r above its top and a new top t:
    not distributive, so its transforms sum along step lists."""
    m3 = [(names[-1], x) for x in "pqr"] + [(x, "t") for x in "pqr"]
    return lb.lattice_from_poset(lb.build_poset([*names, *"pqrt"], covers + m3))


def test_each_sum_gathers_only_what_its_prefix_cover_lacks():
    """B8 and the 300-chain, each with M3 on top.  Below the M3, each set
    gathers what it did without it; p, q and r gather themselves, t and the
    old top gather 3 (its other covers and itself)."""
    reuse = lb.transforms._LEFT_TO_RIGHT
    k = 8  # B8 by bitmask, as bench/gen.py declares it: each set extends its lowest cover's
    names = [f"b{m:08b}" for m in range(1 << k)]
    covers = [(names[m], names[m | 1 << i])
              for m in range(1 << k) for i in range(k) if not m >> i & 1]
    b8 = with_m3_on_top(names, covers)
    for side in ("down", "up"):
        assert whole(b8, side) == 6561 + 1031  # B8's, 4 more above each, 7 in the M3
        assert gathered(b8, side) == (3281 + 6 if reuse else 7592)
    names = [f"c{i}" for i in range(300)]
    chain = with_m3_on_top(names, list(zip(names, names[1:])))
    for how in ("given", "reversed", "shuffled"):
        k = declared(chain, how, random.Random(0))
        for side in ("down", "up"):
            assert whole(k, side) == 45150 + 1207
            assert gathered(k, side) == (306 if reuse else 46357)


# -- label passes on distributive lattices ---------------------------------------------
#
# On a distributive lattice the transforms add along the covers, one pass per
# join-irreducible label, and build no step list.  The oracles are exact
# Fraction sums and the whole-set sums above.

def downset_draw(rng, dual, how):
    """The lattice of downsets of a random poset of up to 6 elements, or its
    dual, declared as given, reversed or shuffled."""
    l = lb.downset_lattice(random_poset(rng, rng.randint(1, 6), rng.choice([0.2, 0.4, 0.6])))
    return declared(lb.dual_lattice(l.lattice) if dual else l.lattice, how, rng)


def exact_sums(l, side, values):
    exact = list(map(Fraction, values))
    return [sum(map(exact.__getitem__, ms), Fraction(0)) for ms in index_members(l, side)]


def exact_solve(l, side, given):
    members, out = index_members(l, side), [Fraction(0)] * len(l)
    for x in range(len(l)) if side == "down" else reversed(range(len(l))):
        out[x] = Fraction(given[x]) - sum(out[y] for y in members[x] if y != x)
    return out


def dyadic(rng, n):
    return [rng.randint(-64, 64) / 64 for _ in range(n)]


def dyadic_mass(l, rng, lo):
    """Masses of 512ths from lo to 4 units below top, none at bottom, the
    rest (at least half) at top."""
    units = [0] + [rng.randint(lo, 4) for _ in range(len(l) - 2)] + [0]
    units[-1] = 512 - sum(units)
    return lb.SetFunction(l, _Vector(u / 512 for u in units))


def float_bits(vec):
    """The floats as hex strings, -0.0 as 0.0."""
    return [(v + 0.0).hex() for v in vec]


@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False), dual=st.booleans(),
       how=st.sampled_from(["given", "reversed", "shuffled"]))
def test_label_passes_match_exact_sums_on_random_downset_lattices(rng, dual, how):
    """Each value of the four transforms passes through at most |J|
    additions, so it lies within (1 + 2^-53)^|J| - 1, about |J| 2^-53,
    times the sum of the absolute input values over its down-set (up-set)
    of the exact value, and no value is -0.0.  On dyadic inputs every sum is
    exact, so the transforms, the commonality product of Dempster's rule
    and check_belief give the whole-set sums' floats (where those subtract
    0.0 from -0.0, the passes give 0.0); decompose and recombine, which
    pass through logarithms, agree with the whole-set kernel to rounding.
    No step list is built."""
    l = downset_draw(rng, dual, how)
    gamma = (1 + Fraction(1, 2**53)) ** l._jmask.bit_count() - 1
    values = [awkward_value(rng) * rng.choice([1.0, 1e8]) for _ in l.elements]
    f = lb.SetFunction(l, _Vector(values))
    for side, sums, solve in (("down", lb.zeta_transform, lb.mobius_transform),
                              ("up", lb.comobius_transform, lb.mass_from_comobius)):
        spread = [sum(abs(Fraction(values[y])) for y in ms) for ms in index_members(l, side)]
        for got, want in ((sums(f).vector, exact_sums(l, side, values)),
                          (solve(f).vector, exact_solve(l, side, values))):
            assert all(abs(Fraction(g) - w) <= gamma * s for g, w, s in zip(got, want, spread))
            assert not any(math.copysign(1.0, g) < 0 for g in got if g == 0.0)

    f, g = (lb.SetFunction(l, _Vector(dyadic(rng, len(l)))) for _ in range(2))
    for side, sums, solve in (("down", lb.zeta_transform, lb.mobius_transform),
                              ("up", lb.comobius_transform, lb.mass_from_comobius)):
        assert float_bits(sums(f).vector) == float_bits(oracle_sums(l, side, f.vector))
        assert float_bits(solve(f).vector) == float_bits(oracle_solve(l, side, f.vector))
    product = list(map(operator.mul, *(oracle_sums(l, "up", h.vector) for h in (f, g))))
    assert (float_bits(lb.evidence._by_commonality(l, f.vector, g.vector))
            == float_bits(oracle_solve(l, "up", product)))
    bel, signed = (lb.zeta_transform(dyadic_mass(l, rng, lo)) for lo in (0, -4))
    weights = lb.SupportWeights(l, _Vector(rng.choice([1.0, 0.25, 0.75, 1.5]) for _ in l.elements))
    got = [lb.check_belief(bel), lb.check_belief(signed), lb.decompose(bel).vector,
           lb.recombine(weights).vector]
    with oracle_kernel():
        want = [lb.check_belief(bel), lb.check_belief(signed), lb.decompose(bel).vector,
                lb.recombine(weights).vector]
    assert got[:2] == want[:2] and got[0].ok
    for vec, exact in zip(got[2:], want[2:]):
        assert vec == pytest.approx(exact, rel=1e-12, abs=1e-12 * max(map(abs, exact)))
    assert "down" not in l._cache and "up" not in l._cache and l._cache["passes"]
