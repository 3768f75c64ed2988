"""Moebius coefficients and the four transforms, anchored to brute-force
subset sums and hand-solved small systems."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latbel as lb

from conftest import bool_lattice, chain_lattice, corpus, moore_lattice, random_function

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


def random_linear_extension(l, rng):
    """Element indices in a random order that lists every x before all y > x."""
    down, placed, order = l.poset._down, 0, []
    while len(order) < len(l):
        ready = [i for i in range(len(l)) if not placed >> i & 1 and down[i] & ~placed == 1 << i]
        order.append(rng.choice(ready))
        placed |= 1 << order[-1]
    return order


def test_solves_are_equal_along_any_linear_extension():
    """Each solved value depends only on the values of its strict members,
    so the stored order gives the floats of any other linear extension."""
    rng = random.Random(17)
    lattices = [l for _, l in corpus()] + [moore_lattice(rng) for _ in range(40)]
    for l in lattices:
        pos = {i: k for k, i in enumerate(l._order)}
        assert all(pos[l.poset.index_of(a)] < pos[l.poset.index_of(b)] for a, b in l.covers)
        f = random_function(l, rng)
        for side, solve in (("down", lb.mobius_transform), ("up", lb.mass_from_comobius)):
            members = lb.transforms._members(l, side)
            order = random_linear_extension(l, rng)
            out, given = [0.0] * len(l), list(f.values.values())
            for x in order if side == "down" else reversed(order):
                out[x] = given[x] - sum(out[y] for y in members[x])
            assert list(solve(f).values.values()) == out
