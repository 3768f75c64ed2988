"""The bitset order core and the function layers against reference
implementations.

Every order oracle here rebuilds the order from the cover list by plain graph
search and answers joins, meets and structural questions by brute force over
element names, the way the definitions read.  The library's joins and meets,
the tables its all-pairs callers build, structural profile (flags and first
witnesses), Moebius coefficients, negation search and negation verification
must agree with them exactly.  Lattice recognition must agree with the join
table's column fill, which decided it before the library stopped building
tables, and name the same failing pair.  The function-layer oracles
compute the transforms, decomposition and combination from the Moebius
coefficients and name-keyed loops, the way the formulas read; the library's
substitution solves and log-space computations must agree with them to
1e-12 and give the same focal elements and weight keys.  The capacity,
necessity and possibility checks must give exactly the verdict, witness and
detail of the all-pairs scans, kept here as they read before the checks
learnt to decide without them, and the chain reconstruction's refusal of a
pi that is not isotone the message of the nested loop it ran.  The
necessity, possibility and negation witnesses must equal those of the
pair loops that named them before the comparable pairs were read in one
pass.  Likewise the k-family checks (k-monotone, k-valuation, total) must
match the exhaustive sweep over every family of distinct elements with its
2^j - 1 subfamily meets, which they replaced.
The locally distributive flags are checked against Monjardet's definition
(every interval [x-, x] Boolean) and the minimal decompositions against the
greedy irredundant search they replaced.  The negation search, maximal
chains and semimodularity witnesses must equal, order included, the
searches they replaced: every candidate in a class, index paths named at
the end, and a scan over every pair of covers.
"""

import collections
import copy
import functools
import itertools
import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latbel as lb
from latbel.capacity import CheckResult, _require_tol
from latbel.errors import InvalidDistribution, NotALattice, RedundantCovers, SizeLimitExceeded

from conftest import (
    bool_lattice,
    chain_lattice,
    convex_geometry,
    corpus,
    declared,
    declared_names,
    moore_lattice,
    random_function,
    random_mass,
    random_poset,
)


class Oracle:
    """Order, covers, joins and meets of a poset by brute force over names."""

    def __init__(self, elements, covers):
        self.elements = list(elements)
        succ = {x: [b for a, b in covers if a == x] for x in self.elements}
        self.up = {}
        for x in self.elements:
            seen, stack = {x}, [x]
            while stack:
                for y in succ[stack.pop()]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            self.up[x] = seen
        self.cover_set = {
            (a, b) for a in self.elements for b in self.elements
            if self.lt(a, b) and not any(self.lt(a, z) and self.lt(z, b) for z in self.elements)
        }
        self.down = {x: {y for y in self.elements if x in self.up[y]} for x in self.elements}
        self._join, self._meet, self._height = {}, {}, {}

    def leq(self, x, y):
        return y in self.up[x]

    def lt(self, x, y):
        return x != y and self.leq(x, y)

    def covers(self, a, b):
        return (a, b) in self.cover_set

    def first_failure(self):
        """(x, y, reason) for the first pair without a join or meet, or None."""
        for x, y in itertools.combinations(self.elements, 2):
            ub = self.up[x] & self.up[y]
            if not ub:
                return x, y, "no-upper-bound"
            if not any(ub <= self.up[u] for u in ub):
                return x, y, "no-least-upper-bound"
            lb_ = self.down[x] & self.down[y]
            if not lb_:
                return x, y, "no-lower-bound"
            if not any(lb_ <= self.down[u] for u in lb_):
                return x, y, "no-greatest-lower-bound"
        return None

    def join(self, x, y):
        if (x, y) not in self._join:
            ub = self.up[x] & self.up[y]
            (self._join[x, y],) = [u for u in ub if ub <= self.up[u]]
        return self._join[x, y]

    def meet(self, x, y):
        if (x, y) not in self._meet:
            lb_ = self.down[x] & self.down[y]
            (self._meet[x, y],) = [u for u in lb_ if lb_ <= self.down[u]]
        return self._meet[x, y]

    def height(self, x):
        """Length of a longest chain of covers from a minimal element to x."""
        if x not in self._height:
            below = [a for a in self.elements if self.covers(a, x)]
            self._height[x] = 1 + max((self.height(a) for a in below), default=-1)
        return self._height[x]

    def coheight(self, x):
        """Length of a longest chain of covers from x to a maximal element."""
        above = [b for b in self.elements if self.covers(x, b)]
        return 1 + max((self.coheight(b) for b in above), default=-1)

    def degrees(self, x):
        """(lower covers, upper covers) of x."""
        return (sum(1 for a in self.elements if self.covers(a, x)),
                sum(1 for b in self.elements if self.covers(x, b)))

    def joinirr(self):
        return [x for x in self.elements
                if sum(1 for a in self.elements if self.covers(a, x)) == 1]

    def dual(self):
        """The same elements with the order reversed: joins become meets."""
        d = copy.copy(self)
        d.up, d.down = self.down, self.up
        d.cover_set = {(b, a) for a, b in self.cover_set}
        d._join, d._meet, d._height = {}, {}, {}
        return d


# -- the canonical first-witness searches, by name ---------------------------------

def linear_witness(o):
    for x, y in itertools.combinations(o.elements, 2):
        if not o.leq(x, y) and not o.leq(y, x):
            return (x, y)
    return None


def ranked_witness(o):
    for a, b in sorted(o.cover_set, key=lambda c: (o.elements.index(c[0]),
                                                   o.elements.index(c[1]))):
        if o.height(b) != o.height(a) + 1:
            return (a, b)
    return None


def semimodular_witness(o, upper):
    for x, y in itertools.combinations(o.elements, 2):
        j, m = o.join(x, y), o.meet(x, y)
        low = o.covers(m, x) and o.covers(m, y)
        high = o.covers(x, j) and o.covers(y, j)
        if (upper and low and not high) or (not upper and high and not low):
            return (x, y)
    return None


def distributive_witness(o):
    for x, y, z in itertools.product(o.elements, repeat=3):
        if o.meet(o.join(x, y), z) != o.join(o.meet(x, z), o.meet(y, z)):
            return (x, y, z)
    return None


def diamond_witness(o):
    for u, v, w in itertools.combinations(o.elements, 3):
        p = o.meet(u, v)
        if o.meet(u, w) != p or o.meet(v, w) != p:
            continue
        q = o.join(u, v)
        if o.join(u, w) != q or o.join(v, w) != q:
            continue
        if p != q and p not in (u, v, w) and q not in (u, v, w):
            return (u, v, w)
    return None


def boolean_interval_witness(o):
    """The first x whose interval [x-, x] is not a Boolean lattice, x- being
    the meet of the lower covers of x (Monjardet's definition of lower local
    distributivity; on the dual oracle, the upper one).  The interval is
    Boolean iff the joins of the subsets of its atoms, the empty join being
    x-, are pairwise distinct and fill it."""
    for x in o.elements:
        lo = functools.reduce(o.meet, [a for a in o.elements if o.covers(a, x)], x)
        interval = {y for y in o.elements if o.leq(lo, y) and o.leq(y, x)}
        atoms = [a for a in interval if o.covers(lo, a)]
        if len(interval) != 2 ** len(atoms) or interval != {
                functools.reduce(o.join, s, lo)
                for r in range(len(atoms) + 1) for s in itertools.combinations(atoms, r)}:
            return (x,)
    return None


def greedy_decomposition(o, x):
    """The join-irreducibles below x, dropped earliest first while the join
    of the rest stays x (the empty join being the bottom); on the dual
    oracle, the meet-irreducibles above x.  Irredundant by construction."""
    bottom = next(b for b in o.elements if all(o.leq(b, y) for y in o.elements))
    keep = [j for j in o.joinirr() if o.leq(j, x)]
    while True:
        for j in keep:
            rest = [k for k in keep if k != j]
            if functools.reduce(o.join, rest, bottom) == x:
                keep = rest
                break
        else:
            return frozenset(keep)


def complement_witness(o):
    bottom = next(x for x in o.elements if all(o.leq(x, y) for y in o.elements))
    top = next(x for x in o.elements if all(o.leq(y, x) for y in o.elements))
    for x in o.elements:
        if not any(o.meet(x, c) == bottom and o.join(x, c) == top for c in o.elements):
            return (x,)
    return None


def atomistic_witness(o):
    for j in o.joinirr():
        if o.height(j) != 1:
            return (j,)
    return None


def negations(o, limit=None):
    """Order-reversing bijections by backtracking in input order, every
    candidate image tried in input order.  The only pruning is that an
    order-reversing bijection swaps height with coheight and lower with
    upper covers."""
    els, found, image = o.elements, [], {}

    def extend(i):
        if i == len(els):
            found.append(dict(image))
            return limit is not None and len(found) >= limit
        x = els[i]
        for c in els:
            if (c in image.values() or o.height(c) != o.coheight(x)
                    or o.degrees(c) != o.degrees(x)[::-1]):
                continue
            if all(o.leq(y, x) == o.leq(c, image[y]) and o.leq(x, y) == o.leq(image[y], c)
                   for y in els[:i]):
                image[x] = c
                if extend(i + 1):
                    return True
                del image[x]
        return False

    extend(0)
    return found


def oracle_profile(o):
    """Flags and witnesses assembled exactly as the structural profile
    documents them."""
    w = {
        "is_linear": linear_witness(o),
        "is_ranked": ranked_witness(o),
        "is_lower_semimodular": semimodular_witness(o, False),
        "is_upper_semimodular": semimodular_witness(o, True),
        "is_distributive": distributive_witness(o),
        "is_complemented": complement_witness(o),
        "is_atomistic": atomistic_witness(o),
    }
    w["is_modular"] = w["is_lower_semimodular"] or w["is_upper_semimodular"]
    w["is_lower_locally_distributive"] = (w["is_lower_semimodular"]
                                          or boolean_interval_witness(o))
    w["is_upper_locally_distributive"] = (w["is_upper_semimodular"]
                                          or boolean_interval_witness(o.dual()))
    flags = {name: w.get(name) is None for name in lb.profile(bool_lattice(1)).flags()}
    flags["is_autodual"] = bool(negations(o, limit=1))
    return flags, {k: v for k, v in w.items() if v is not None}


def mobius_oracle(o):
    """mu(x, y) from the full-row recursion over every t in [x, y)."""
    mu = {}
    by_size = sorted(o.elements, key=lambda y: sum(1 for t in o.elements if o.leq(t, y)))
    for x in o.elements:
        for y in by_size:
            if o.leq(x, y):
                mu[x, y] = 1 if x == y else -sum(
                    mu[x, t] for t in o.elements if (x, t) in mu and o.lt(t, y))
    return mu


# -- inputs ------------------------------------------------------------------------

def diamond_lattice(n):
    atoms = [f"a{i}" for i in range(n)]
    covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    return lb.lattice_from_poset(lb.build_poset(["0", *atoms, "1"], covers))


def partition_lattice(n):
    """Set partitions of 1..n ordered by refinement; blocks joined by '.'."""
    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            yield [[first], *part]
            for i in range(len(part)):
                yield part[:i] + [[first, *part[i]]] + part[i + 1:]

    def name(part):
        return "|".join(sorted("".join(map(str, sorted(b))) for b in part))

    parts = sorted(partitions(list(range(1, n + 1))), key=lambda p: (-len(p), name(p)))
    covers = [(name(p), name([b for k, b in enumerate(p) if k not in (i, j)] + [p[i] + p[j]]))
              for p in parts for i, j in itertools.combinations(range(len(p)), 2)]
    return lb.lattice_from_poset(lb.build_poset([name(p) for p in parts], covers))


def lattices():
    entries = list(corpus())
    entries += [(f"bool{k}", bool_lattice(k)) for k in (1, 5)]
    entries += [("chain16", chain_lattice(15))]
    entries += [(f"M{n}", diamond_lattice(n)) for n in range(3, 7)]
    entries += [("Pi4", partition_lattice(4))]
    rng = random.Random(2024)
    for k in range(8):
        dl = lb.downset_lattice(random_poset(rng, rng.randint(3, 5), 0.35))
        entries.append((f"downsets{k}", dl.lattice))
    # the dual of the Pi4 input is not a linear extension of its order
    entries.append(("Pi4-dual", lb.dual_lattice(partition_lattice(4))))
    # lower locally distributive, but neither distributive nor upper semimodular
    entries.append(("convex4", convex_geometry(4)))
    return entries


LATTICES = lattices()
IDS = [name for name, _ in LATTICES]


def oracle_of(l):
    return Oracle(l.elements, l.covers)


def test_partition_lattice_shape():
    l = partition_lattice(4)
    assert len(l) == 15 and len(l.atoms) == 6
    assert lb.mobius_function(l).mu(l.bottom, l.top) == -6  # (-1)^(n-1) (n-1)!


@pytest.mark.parametrize("name,l", LATTICES, ids=IDS)
def test_tables_match_the_oracle(name, l):
    o = oracle_of(l)
    assert set(l.covers) == o.cover_set
    for x, y in itertools.product(l.elements, repeat=2):
        assert l.leq(x, y) == o.leq(x, y) == l.poset.leq(x, y)
        assert l.join(x, y) == o.join(x, y)
        assert l.meet(x, y) == o.meet(x, y)
    assert list(l.joinirr) == o.joinirr()
    assert all(l.height(x) == o.height(x) for x in l.elements)
    for x in l.elements:
        assert l.poset.below(x) == {y for y in l.elements if o.leq(y, x)}
        assert l.poset.above(x) == o.up[x]


@pytest.mark.parametrize("name,l", LATTICES, ids=IDS)
def test_profile_matches_the_oracle(name, l):
    flags, witnesses = oracle_profile(oracle_of(l))
    prof = lb.profile(l)
    assert prof.flags() == flags
    assert prof.witnesses == witnesses
    # the single-property entry points agree with the profile
    assert lb.lattice.is_distributive(l) == flags["is_distributive"]
    assert lb.lattice.is_lower_semimodular(l) == flags["is_lower_semimodular"]
    assert lb.lattice.is_upper_semimodular(l) == flags["is_upper_semimodular"]
    assert lb.lattice.is_lower_locally_distributive(l) == flags["is_lower_locally_distributive"]
    assert lb.lattice.is_upper_locally_distributive(l) == flags["is_upper_locally_distributive"]


def assert_locally_distributive_characterizations(prof, o):
    # Monjardet's definition needs no semimodularity test (a locally
    # distributive lattice is semimodular), and a semimodular lattice is
    # locally distributive iff no five-element diamond embeds in it.
    no_diamond = diamond_witness(o) is None
    assert (prof.is_lower_locally_distributive == (boolean_interval_witness(o) is None)
            == (prof.is_lower_semimodular and no_diamond))
    assert (prof.is_upper_locally_distributive == (boolean_interval_witness(o.dual()) is None)
            == (prof.is_upper_semimodular and no_diamond))


@pytest.mark.parametrize("name,l", LATTICES, ids=IDS)
def test_locally_distributive_flags_match_their_characterizations(name, l):
    assert_locally_distributive_characterizations(lb.profile(l), oracle_of(l))


@settings(max_examples=200, deadline=None)
@given(l=st.randoms().map(moore_lattice), dual=st.booleans())
def test_profile_matches_the_oracle_on_random_moore_families(l, dual):
    if dual:
        l = lb.dual_lattice(l)
    o, prof = oracle_of(l), lb.profile(l)
    flags, witnesses = oracle_profile(o)
    assert prof.flags() == flags
    assert prof.witnesses == witnesses
    assert_locally_distributive_characterizations(prof, o)


def test_minimal_decompositions_match_the_greedy_oracle():
    rng, tally = random.Random(15), collections.Counter()
    bases = [l for _, l in LATTICES] + [moore_lattice(rng) for _ in range(300)]
    for l in bases + [lb.dual_lattice(b) for b in bases]:
        prof, o = lb.profile(l), oracle_of(l)
        for side, holds, star, view in (
                ("lower", prof.is_lower_locally_distributive, lb.eta_star, o),
                ("upper", prof.is_upper_locally_distributive, lb.mu_star, o.dual())):
            if holds:
                assert {x: star(l, x) for x in l.elements} == {
                    x: greedy_decomposition(view, x) for x in l.elements}
                tally[side, prof.is_distributive] += 1
    assert all(tally[side, d] >= 10 for side in ("lower", "upper") for d in (False, True)), tally


@pytest.mark.parametrize("l,want", [
    (diamond_lattice(3), 2), (diamond_lattice(8), 7), (diamond_lattice(16), 15),
    (partition_lattice(5), 24),  # (-1)^(n-1) (n-1)!
], ids=["M3", "M8", "M16", "Pi5"])
def test_mobius_from_bottom_to_top_in_closed_form(l, want):
    assert lb.mobius_function(l).mu(l.bottom, l.top) == want


@pytest.mark.parametrize("length", [0, 1, 15, 127])
@pytest.mark.parametrize("dual", [False, True])
def test_mobius_of_a_chain_lives_on_the_diagonal_and_the_covers(length, dual):
    l = chain_lattice(length)
    if dual:
        l = lb.dual_lattice(l)
    rows = lb.mobius_function(l)._rows
    assert [list(row.items()) for row in rows] == [
        sorted([(x, 1)] + [(y, -1) for y in up]) for x, up in enumerate(l.poset._cov_up)]


@pytest.mark.parametrize("name,l", LATTICES, ids=IDS)
def test_mobius_matches_the_full_row_recursion(name, l):
    mu = mobius_oracle(oracle_of(l))
    mat = lb.mobius_function(l)
    for x, y in itertools.product(l.elements, repeat=2):
        assert mat.mu(x, y) == mu.get((x, y), 0)


@pytest.mark.parametrize("name,l", LATTICES, ids=IDS)
def test_negation_search_matches_the_oracle(name, l):
    limit = None if len(l) <= 16 else 3
    want = negations(oracle_of(l), limit=limit)
    assert [n.map for n in lb.find_negations(l, limit=limit)] == want


def test_autoduality_matches_hasse_diagram_isomorphism():
    """A lattice has a negation iff its Hasse digraph is isomorphic to its
    reverse: on downset and Moore draws of up to 32 elements, and duals."""
    nx = pytest.importorskip("networkx")
    rng, tally = random.Random(23), collections.Counter()
    while sum(tally.values()) < 200:
        if rng.random() < 0.5:
            l = lb.downset_lattice(random_poset(rng, rng.randint(4, 7), rng.choice([0.3, 0.5])))
            l = l.lattice
        else:
            l = moore_lattice(rng, points=(4, 7), generators=(3, 10))
        if len(l) > 32:
            continue
        l = lb.dual_lattice(l) if rng.random() < 0.5 else l
        hasse = nx.DiGraph(l.covers)
        hasse.add_nodes_from(l.elements)
        autodual = nx.is_isomorphic(hasse, hasse.reverse(copy=False))
        assert bool(lb.find_negations(l, 1)) == autodual, l.covers
        tally[autodual] += 1
    assert tally[True] >= 30 and tally[False] >= 30, tally


def vee_negation_oracle(o, mapping):
    """The first pair, in combinations-with-replacement order, with
    n(x v y) != n(x) ^ n(y): the scan that decided verification before the
    covers did."""
    for x, y in itertools.combinations_with_replacement(o.elements, 2):
        lhs, rhs = mapping[o.join(x, y)], o.meet(mapping[x], mapping[y])
        if lhs != rhs:
            return CheckResult(False, (x, y),
                               f"n({x} v {y}) = {lhs!r} but n({x}) ^ n({y}) = {rhs!r}")
    return CheckResult(True)


def maps_to_verify(l, rng):
    """Negations, each also with two images swapped, and random bijections,
    all sending top to bottom."""
    found = [n.map for n in lb.find_negations(l, limit=3)]
    rest = [x for x in l.elements if x != l.top]
    out = list(found)
    for m in found:
        if len(rest) >= 2:
            a, b = rng.sample(rest, 2)
            out.append({**m, a: m[b], b: m[a]})
    for _ in range(3):
        images = [y for y in l.elements if y != l.bottom]
        rng.shuffle(images)
        out.append({l.top: l.bottom, **dict(zip(rest, images))})
    return out


def test_verification_by_covers_matches_the_pair_scan(monkeypatch):
    rng, tally = random.Random(16), collections.Counter()
    cases = [(l, maps_to_verify(l, rng)) for _, l in LATTICES]
    for l, maps in cases:
        o = oracle_of(l)
        for m in maps:
            res = lb.verify_vee_negation(l, m)
            assert res == vee_negation_oracle(o, m)
            tally[res.ok] += 1
    assert tally[True] >= 30 and tally[False] >= 60, tally

    def scan(*args):
        raise LookupError("pair scan reached")

    monkeypatch.setattr(lb.duality, "_join_index", scan)
    for l, maps in cases:  # a negation passes on its covers alone
        for n in lb.find_negations(l, limit=3):
            assert lb.verify_vee_negation(l, n.map)


def with_bounds(p, rng, bottom=True, top=True):
    """p with a new least and/or greatest element, in shuffled input order."""
    names, covers = list(p.elements), list(p.covers)
    if bottom:
        names.append("⊥")
        covers += [("⊥", x) for x in p.minimal_elements()]
    if top:
        names.append("⊤")
        covers += [(x, "⊤") for x in p.maximal_elements()]
    rng.shuffle(names)
    return lb.build_poset(names, covers)


def test_non_lattices_fail_on_the_oracle_pair():
    # Several minimal elements send the poset straight to the pair scan; with
    # one, the join check itself must miss before the scan names the pair.
    rng = random.Random(7)
    failures = collections.Counter()
    for _ in range(150):
        p = random_poset(rng, rng.randint(2, 9), 0.4)
        for bottom, top in itertools.product((False, True), repeat=2):
            q = with_bounds(p, rng, bottom, top)
            want = Oracle(q.elements, q.covers).first_failure()
            if want is None:
                lb.lattice_from_poset(q)
                continue
            failures[bottom, top] += 1
            with pytest.raises(NotALattice) as exc:
                lb.lattice_from_poset(q)
            assert (*exc.value.pair, exc.value.reason) == want
    assert min(failures.values()) >= 25, failures


def test_lattices_never_reach_the_pair_scan(monkeypatch):
    def scan(poset):
        raise LookupError("pair scan reached")

    monkeypatch.setattr(lb.lattice, "_first_failing_pair", scan)
    rng = random.Random(14)
    for l in [l for _, l in LATTICES] + [moore_lattice(rng) for _ in range(100)]:
        for q in (l.poset, l.poset.dual()):
            lb.lattice_from_poset(q)
    bowtie = lb.build_poset(list("abcd"), [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    with pytest.raises(LookupError):  # a bounded non-lattice reaches it after a join miss
        lb.lattice_from_poset(with_bounds(bowtie, rng))


def every_pair_first_failure(p):
    """(x, y, reason) for the first pair in element order without a join or a
    meet, read over every pair, comparable or not."""
    names, up, down = p.elements, p._up, p._down
    ups, downs = set(up), set(down)
    for i, j in itertools.combinations(range(len(names)), 2):
        ub = up[i] & up[j]
        if ub not in ups:
            return names[i], names[j], "no-least-upper-bound" if ub else "no-upper-bound"
        lb_ = down[i] & down[j]
        if lb_ not in downs:
            return names[i], names[j], "no-greatest-lower-bound" if lb_ else "no-lower-bound"
    return None


def non_lattice_mutations(l):
    """Posets one edit away from l: without one of its covers, without its
    top or bottom, or with a second top or bottom beside the first."""
    names, covers, top, bottom = list(l.elements), list(l.covers), l.top, l.bottom
    for k in range(len(covers)):
        yield names, covers[:k] + covers[k + 1:]
    yield [x for x in names if x != top], [c for c in covers if top not in c]
    yield [x for x in names if x != bottom], [c for c in covers if bottom not in c]
    yield names + ["top2"], covers + [(a, "top2") for a, b in covers if b == top]
    yield names + ["bottom2"], covers + [("bottom2", b) for a, b in covers if a == bottom]


def test_the_first_failing_pair_skips_only_comparable_pairs():
    rng, failures = random.Random(31), collections.Counter()
    for name, l in LATTICES:
        for names, covers in non_lattice_mutations(l):
            for how in ("given", "reversed", "shuffled"):
                if how == "reversed":
                    names = names[::-1]
                elif how == "shuffled":
                    names = rng.sample(names, len(names))
                q = lb.build_poset(names, covers)
                want = every_pair_first_failure(q)
                if want is None:
                    lb.lattice_from_poset(q)
                    continue
                failures[want[2]] += 1
                err = lb.lattice._first_failing_pair(q)
                assert (*err.pair, err.reason) == want
                with pytest.raises(NotALattice) as exc:
                    lb.lattice_from_poset(q)
                assert (*exc.value.pair, exc.value.reason) == want
    # Along a linear extension two maximal lower bounds of a pair come before
    # it and lack a least upper bound, so no first failure lacks a greatest
    # lower bound alone.
    assert min(failures.values()) >= 25, failures
    assert set(failures) == {"no-upper-bound", "no-least-upper-bound", "no-lower-bound"}


@settings(max_examples=150, deadline=None)
@given(l=st.randoms().map(moore_lattice), dual=st.booleans())
def test_tables_match_the_oracle_on_random_moore_families(l, dual):
    if dual:
        l = lb.dual_lattice(l)
    o = oracle_of(l)
    names = l.elements
    joins = [[l.join(x, y) for y in names] for x in names]
    meets = [[l.meet(x, y) for y in names] for x in names]
    assert joins == [[o.join(x, y) for y in names] for x in names]
    assert meets == [[o.meet(x, y) for y in names] for x in names]


def columns(order, lower, up):
    """The join table, filled column by column along the linear extension
    ``order`` from the lower covers ``lower[y]`` of each y; None as soon as
    a pair is found to have no join.  Column y is row y: x v y = step[x v c]
    for a lower cover c of y.  With a second lower cover c2, step is column
    c2.  Otherwise step is the identity but for each z >= c not above y,
    sent to z v y: the element whose up-set is up[z] & up[y].  Run on the
    reversed order with upper covers and down-sets, it fills the meet table.
    """
    by_up = {u: i for i, u in enumerate(up)}
    identity = list(range(len(up)))
    cols = [None] * len(up)
    for y in order:
        below = lower[y]
        if not below:
            cols[y] = identity
            continue
        if len(below) > 1:
            step = cols[below[1]]
        else:
            up_y, step = up[y], identity.copy()
            for z in lb.lattice._indices(up[below[0]] & ~up_y):
                step[z] = by_up.get(up[z] & up_y)
                if step[z] is None:
                    return None
        cols[y] = [step[k] for k in cols[below[0]]]
    return cols


def linear_extension(p):
    return sorted(range(len(p)), key=lambda i: p._down[i].bit_count())


def join_table(p):
    """Index join table of a lattice or poset by the column fill; None when
    some pair has no join."""
    return columns(linear_extension(p), p._cov_down, p._up)


def meet_table(p):
    return columns(linear_extension(p)[::-1], p._cov_up, p._down)


def recognition_oracle(p):
    """None when p is a lattice, else the first failing (x, y, reason).

    A poset with one minimal element is a lattice iff the join column fill
    runs without a miss, and the name-keyed scan names the failing pair."""
    one_minimal = sum(not c for c in p._cov_down) == 1
    if one_minimal and join_table(p) is not None:
        return None
    want = Oracle(p.elements, p.covers).first_failure()
    assert want is not None
    return want


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(1, 9),
       density=st.floats(0.1, 0.7), bottom=st.booleans(), top=st.booleans())
def test_recognition_matches_the_column_fill_on_random_posets(rng, n, density, bottom, top):
    p = with_bounds(random_poset(rng, n, density), rng, bottom, top)
    want = recognition_oracle(p)
    if want is None:
        l = lb.lattice_from_poset(p)
        assert [[l.join(x, y) for y in l.elements] for x in l.elements] == [
            [p.elements[k] for k in row] for row in join_table(p)]
        assert [[l.meet(x, y) for y in l.elements] for x in l.elements] == [
            [p.elements[k] for k in row] for row in meet_table(p)]
    else:
        with pytest.raises(NotALattice) as exc:
            lb.lattice_from_poset(p)
        assert (*exc.value.pair, exc.value.reason) == want


# -- the order core against the pair-by-pair parser ------------------------------------

def parse_oracle(elements, covers):
    """Every field of a Poset as the pair-by-pair parser built it, before the
    closure read the covers off: each input pair checked in turn, the
    elements renumbered along the lowest-index-first linear extension, the
    order closed along it, and an edge a -> b kept iff up[a] & down[b] is
    {a, b}.  Also the RedundantCovers text, or None.  Raises what that
    parser raised, for the first bad pair."""
    names = list(elements)
    index = {}
    for name in names:
        if not isinstance(name, str) or name.split() != [name]:
            raise lb.errors.InvalidElementName(f"bad element name: {name!r}")
        if name in index:
            raise lb.errors.DuplicateElement(name)
        index[name] = len(index)
    edges = set()
    for lo, up in covers:
        for name in (lo, up):
            if not isinstance(name, str):
                raise lb.errors.InvalidElementName(f"bad element name: {name!r}")
            if name not in index:
                raise lb.errors.UnknownElement(name)
        if lo == up:
            raise lb.errors.CycleDetected((lo,))
        edges.add((index[lo], index[up]))
    edges, n = sorted(edges), len(names)
    order, done = [], set()
    while len(order) < n:
        free = [i for i in range(n) if i not in done
                and all(a in done for a, b in edges if b == i)]
        assert free, "the oracle takes acyclic input only"
        order.append(min(free))
        done.add(order[-1])
    place = {i: k for k, i in enumerate(order)}
    names = [names[i] for i in order]
    index = {x: k for k, x in enumerate(names)}
    edges = sorted((place[a], place[b]) for a, b in edges)
    down, up = [1 << i for i in range(n)], [1 << i for i in range(n)]
    for i in range(n):
        for a, b in edges:
            if b == i:
                down[i] |= down[a]
    for i in reversed(range(n)):
        for a, b in edges:
            if a == i:
                up[i] |= up[b]
    kept = [(a, b) for a, b in edges if up[a] & down[b] == (1 << a) | (1 << b)]
    dropped = [(a, b) for a, b in edges if (a, b) not in kept]
    return {
        "elements": tuple(names), "_index": index, "_down": down, "_up": up,
        "covers": tuple((names[a], names[b]) for a, b in kept),
        "_cov_down": [[a for a, b in kept if b == i] for i in range(n)],
        "_cov_up": [[b for a, b in kept if a == i] for i in range(n)],
        "warning": "dropped redundant cover pairs: " + ", ".join(
            f"({names[a]}, {names[b]})" for a, b in dropped) if dropped else None,
    }


def built(elements, covers):
    """The fields of Poset(elements, covers), and its RedundantCovers text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = lb.Poset(elements, covers)
    texts = [str(w.message) for w in caught if issubclass(w.category, RedundantCovers)]
    assert len(texts) <= 1
    got = {key: getattr(p, key) for key in
           ("elements", "_index", "_down", "_up", "covers", "_cov_down", "_cov_up")}
    return {**got, "warning": texts[0] if texts else None}


def declarations(l, rng):
    """The elements of l declared as given, reversed and shuffled, each with
    its covers in a shuffled order plus duplicate and transitive pairs."""
    names = list(l.elements)
    shuffled = names.copy()
    rng.shuffle(shuffled)
    transitive = [(x, y) for x in names for y in names if l.lt(x, y)
                  and (x, y) not in set(l.covers)]
    for declared in (names, names[::-1], shuffled):
        covers = list(l.covers) + rng.sample(l.covers, min(2, len(l.covers)))
        covers += rng.sample(transitive, min(rng.randint(0, 3), len(transitive)))
        rng.shuffle(covers)
        yield declared, covers


@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False), dual=st.booleans())
def test_the_core_reads_the_covers_the_pair_rule_keeps(rng, dual):
    l = moore_lattice(rng)
    if dual:
        l = lb.dual_lattice(l)
    for declared, covers in declarations(l, rng):
        assert built(declared, covers) == parse_oracle(declared, covers)
        assert built(declared, iter(covers)) == parse_oracle(declared, covers)  # read once


def raised(make):
    try:
        make()
    except Exception as exc:  # noqa: BLE001 - the class and text are compared
        return type(exc), str(exc)
    return None


MALFORMED = {
    "unknown name": [("a", "b"), ("a", "z")],
    "non-str name": [("a", "b"), ("a", 3)],
    "unhashable endpoint": [("a", "b"), (["a"], "c")],
    "1-tuple": [("a", "b"), ("a",)],
    "3-tuple": [("a", "b"), ("a", "b", "c")],
    "self-loop after a good pair": [("a", "b"), ("c", "c")],
    "self-loop before an unknown name": [("b", "b"), ("a", "z")],
    "unknown name before a self-loop": [("a", "z"), ("b", "b")],
    "a cycle, then a self-loop": [("a", "b"), ("b", "a"), ("c", "c")],
    "a cycle": [("a", "b"), ("b", "c"), ("c", "a")],
}


GIVEN = {
    "list": list,
    "generator": lambda pairs: (x for x in pairs),
    "one-shot pairs": lambda pairs: [iter(x) for x in pairs],  # each pair readable once
}


@pytest.mark.parametrize("what", list(MALFORMED))
@pytest.mark.parametrize("given", list(GIVEN))
def test_malformed_covers_raise_what_the_pair_by_pair_parser_raised(what, given):
    pairs = MALFORMED[what]
    got = raised(lambda: lb.Poset("abc", GIVEN[given](pairs)))
    assert got is not None
    if what == "a cycle":  # no bad pair: the closure names the cycle it walks, as before
        assert got == (lb.errors.CycleDetected, "cover cycle: b < c < a < b")
    else:
        assert got == raised(lambda: parse_oracle("abc", pairs))


@pytest.mark.parametrize("given", list(GIVEN))
def test_pairs_of_any_iterable_type_build_the_poset_tuples_build(given):
    pairs = [("a", "b"), ["b", "c"], "ac", ("a", "b")]  # a str pair, a duplicate, a transitive pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RedundantCovers)
        assert built("abc", GIVEN[given](pairs)) == parse_oracle("abc", [tuple(x) for x in pairs])


@st.composite
def source_posets(draw):
    """A random poset on up to 6 elements, declared in any order, its covers
    with duplicate and transitive pairs."""
    n = draw(st.integers(1, 6), label="poset size")
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)), label="pairs")
    names = draw(st.permutations([f"p{i}" for i in range(n)]), label="input order")
    covers = [(f"p{i}", f"p{j}") for (i, j), k in zip(pairs, keep) if k]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RedundantCovers)
        return lb.build_poset(names, covers + covers[:1])


LATTICE_FIELDS = ("elements", "covers", "_index", "_down", "_up", "_cov_down", "_cov_up",
                  "bottom", "top", "joinirr", "meetirr", "_pup", "_jmask", "_mmask", "_h", "_coh")


@settings(max_examples=150, deadline=None)
@given(p=source_posets())
def test_downset_lattices_equal_the_lattice_built_from_their_names(p):
    dl = lb.downset_lattice(p)
    l = dl.lattice
    again = lb.Lattice(lb.Poset(l.elements, l.covers))
    for key in LATTICE_FIELDS:
        assert getattr(l, key) == getattr(again, key), key
    # every downset, each named by its members in element order, smallest first
    below = {x: p.below(x) for x in p.elements}
    downsets = [frozenset(s) for r in range(len(p) + 1)
                for s in itertools.combinations(p.elements, r)
                if all(below[x] <= set(s) for x in s)]
    index = {x: i for i, x in enumerate(p.elements)}
    downsets.sort(key=lambda s: (len(s), sorted(map(index.get, s))))
    assert list(dl.downset.items()) == [
        ("{" + ",".join(sorted(s, key=index.get)) + "}", s) for s in downsets]
    assert dict(dl.principal) == {x: next(k for k, s in dl.downset.items() if s == below[x])
                                  for x in p.elements}


def steps(l, side):
    """Each transform step of l as (x, c, the indices its getter gathers)."""
    ids = list(range(len(l)))
    return [(x, c, list(get(ids))) for x, c, get in lb.transforms._steps(l, side)]


@settings(max_examples=100, deadline=None)
@given(l=st.randoms().map(moore_lattice), dual=st.booleans(),
       how=st.sampled_from(["given", "reversed", "shuffled"]), rng=st.randoms())
def test_declaration_order_is_erased_at_the_edge(l, dual, how, rng):
    """A lattice numbers its elements along a linear extension, the declared
    order exactly when that is one, and is the lattice rebuilt from its own
    elements and covers: slot by slot, witnesses, negations and steps."""
    if dual:
        l = lb.dual_lattice(l)
    names = declared_names(l, how, rng)
    k = lb.lattice_from_poset(lb.build_poset(names, l.covers))
    at, declared_at = ({x: i for i, x in enumerate(xs)} for xs in (k.elements, names))
    assert all(at[a] < at[b] for a, b in k.covers)
    assert (list(k.elements) == names) == all(declared_at[a] < declared_at[b] for a, b in l.covers)
    again = lb.Lattice(lb.Poset(k.elements, k.covers))
    assert set(LATTICE_FIELDS) == {*lb.Poset.__slots__, *lb.Lattice.__slots__} - {"poset", "_cache"}
    for key in LATTICE_FIELDS:
        assert getattr(k, key) == getattr(again, key), key
    assert lb.profile(k).flags() == lb.profile(again).flags()
    assert list(lb.profile(k).witnesses.items()) == list(lb.profile(again).witnesses.items())
    assert ([n.image for n in lb.find_negations(k, limit=3)]
            == [n.image for n in lb.find_negations(again, limit=3)])
    for side in ("down", "up"):
        assert steps(k, side) == steps(again, side)


def test_construction_and_order_analyses_build_no_table():
    """Lattice(), profile(), mobius_function(), the necessity and possibility
    checks and the k-family sweeps answer joins and meets from the position
    bitsets: nothing of n x n size is cached, before combine or after it,
    whose pair sum reads each meet from the bitsets too."""
    l = lb.boolean_lattice(list("abcdef"))  # not the shared corpus copy: a fresh cache
    n, rng = len(l), random.Random(5)
    lb.profile(l)
    mu = lb.mobius_function(l)
    nec = chain_necessity(l, rng)
    pos = lb.conjugate(nec, lb.find_negations(l, limit=1)[0], "vee")
    bel = lb.zeta_transform(random_mass(l, rng))
    signed = normalized(l, {x: rng.random() for x in l.elements})
    # the cut test passes, then fails into the pair scan; the sweeps visit families
    assert lb.check_necessity(nec) and lb.check_possibility(pos)
    assert not lb.check_necessity(bel) and not lb.check_possibility(bel)
    assert lb.check_k_monotone(bel, 2) and lb.check_total_monotone(bel)
    assert not lb.check_k_monotone(signed, 2) and not lb.check_total_monotone(signed)
    assert not lb.check_k_valuation(bel, 2)
    assert not {"join", "meet"} & set(l._cache)
    assert not hasattr(l, "_join") and not hasattr(l, "_meet")
    assert sum(map(len, mu._rows)) == 3**6 < n * n  # mu(x, y) != 0 iff [x, y] is Boolean
    lb.combine(random_mass(l, random.Random(3)), random_mass(l, random.Random(4)))
    assert not {"join", "meet"} & set(l._cache)


@settings(max_examples=150, deadline=None)
@given(l=st.randoms().map(moore_lattice), dual=st.booleans())
def test_mobius_matches_the_oracle_on_random_moore_families(l, dual):
    if dual:
        l = lb.dual_lattice(l)
    names = l.elements
    rows = lb.mobius_function(l)._rows
    assert {(names[x], names[y]): v for x, row in enumerate(rows) for y, v in row.items()} == {
        pair: v for pair, v in mobius_oracle(oracle_of(l)).items() if v}
    for x, (row, up) in enumerate(zip(rows, l._up)):  # row x: x first with 1, keys in the up-set of x
        assert next(iter(row.items())) == (x, 1)
        assert all(up >> y & 1 for y in row) and all(row.values())


@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False), dual=st.booleans())
def test_mobius_matches_the_oracle_on_random_downset_lattices(rng, dual):
    """Distributive draws, where most rows are Boolean, read through items,
    len, get and mu, each row (x, 1) first."""
    l = lb.downset_lattice(random_poset(rng, rng.randint(1, 5), rng.choice([0.2, 0.4]))).lattice
    l = declared(lb.dual_lattice(l) if dual else l, "shuffled", rng)
    names, mu, mat = l.elements, mobius_oracle(oracle_of(l)), lb.mobius_function(l)
    for x, row in enumerate(mat._rows):
        want = [mu.get((names[x], y), 0) for y in names]
        assert next(iter(row.items())) == (x, 1)
        assert dict(row.items()) == {y: v for y, v in enumerate(want) if v}
        assert len(row) == len(want) - want.count(0)
        assert [row.get(y, 0) for y in range(len(l))] == want
        assert [mat.mu(names[x], y) for y in names] == want


# -- the order analyses against the searches they replaced -------------------------

def chains_oracle(l):
    """Maximal chains as index paths off one stack, named at the end."""
    out, stack = [], [(0,)]
    while stack:
        path = stack.pop()
        if path[-1] == len(l) - 1:
            out.append(tuple(l.elements[i] for i in path))
            continue
        stack += [path + (c,) for c in reversed(l._cov_up[path[-1]])]
    return out


def semimodular_scan_oracle(l, upper):
    """The first failing pair of covers of one element, by a join (meet) per
    pair, as the flag was decided before the covers decided it."""
    covers, op = ((l._cov_up, lb.lattice._join_index) if upper
                  else (l._cov_down, lb.lattice._meet_index))
    back = [set(c) for c in (l._cov_down if upper else l._cov_up)]
    fails = [(x, y) for cs in covers for x, y in itertools.combinations(cs, 2)
             if not back[op(l, x, y)] >= {x, y}]
    return tuple(l.elements[i] for i in min(fails)) if fails else None


@settings(max_examples=200, deadline=None)
@given(l=st.randoms().map(moore_lattice), dual=st.booleans(),
       how=st.sampled_from(["given", "reversed", "shuffled"]), rng=st.randoms())
def test_order_analyses_match_the_searches_they_replaced(l, dual, how, rng):
    """Heights, maximal chains and both semimodularity witnesses, on Moore
    lattices and their duals in any declaration order."""
    if dual:
        l = lb.dual_lattice(l)
    l, o = declared(l, how, rng), oracle_of(l)
    assert l._h == [o.height(x) for x in l.elements]
    assert l._coh == [o.coheight(x) for x in l.elements]
    assert lb.maximal_chains(l) == chains_oracle(l)
    for flag, upper in (("is_upper_semimodular", True), ("is_lower_semimodular", False)):
        want = semimodular_scan_oracle(l, upper)
        assert lb.lattice._semimodular_witness(l, upper) == want
        assert getattr(lb.lattice, flag)(l) == (want is None)


# -- the function layers against the Moebius coefficients ----------------------------

def mobius_transform_oracle(f):
    """m(x) = sum of mu(y, x) f(y) over y <= x, scattered over the mu rows."""
    l = f.lattice
    totals = {x: 0.0 for x in l.elements}
    for y in l.elements:
        for x, c in lb.mobius_function(l)._rows[l.poset.index_of(y)].items():
            totals[l.elements[x]] += c * f[y]
    return totals


def mass_from_comobius_oracle(q):
    """m(x) = sum of mu(x, y) q(y) over y >= x, gathered from the mu rows."""
    l = q.lattice
    return {x: sum(c * q[l.elements[y]] for y, c in row.items())
            for x, row in zip(l.elements, lb.mobius_function(l)._rows)}


def decompose_oracle(bel):
    """w(y) = product over x >= y of q(x) to the power -mu(y, x)."""
    l = bel.lattice
    q = lb.comobius_transform(lb.mobius_transform(bel))
    weights = {}
    for y, row in zip(l.elements, lb.mobius_function(l)._rows):
        if y == l.top:
            continue
        w = 1.0
        for x, c in row.items():
            w *= q[l.elements[x]] ** -c
        if abs(w - 1.0) > 1e-12:
            weights[y] = w
    return weights


def recombine_oracle(weights):
    """q(x) = product of w(y) over the foci y not above x, then inverted."""
    l = weights.lattice
    q = {x: math.prod(w for y, w in weights.items() if not l.leq(x, y)) for x in l.elements}
    return mass_from_comobius_oracle(lb.SetFunction(l, q))


def combine_oracle(m1, m2):
    """Dempster's rule (raw), pair by pair over element names."""
    l = m1.lattice
    out = {x: 0.0 for x in l.elements}
    for y1, y2 in itertools.product(l.elements, repeat=2):
        if m1[y1] != 0.0 and m2[y2] != 0.0:
            out[l.meet(y1, y2)] += m1[y1] * m2[y2]
    return out


def assert_close(got, want):
    assert list(got) == list(want)
    for x, v in want.items():
        assert abs(got[x] - v) <= 1e-12 * max(1.0, abs(v)), (x, got[x], v)


@pytest.mark.parametrize("name,l", LATTICES, ids=IDS)
def test_function_layers_match_the_oracles(name, l):
    rng = random.Random(len(l))
    for _ in range(3):
        f = random_function(l, rng)
        assert_close(lb.mobius_transform(f).values, mobius_transform_oracle(f))
        assert_close(lb.mass_from_comobius(f).values, mass_from_comobius_oracle(f))

        m = random_mass(l, rng, top_min=0.2)
        bel = lb.zeta_transform(m)
        weights = lb.decompose(bel)
        assert_close(weights.weights, decompose_oracle(bel))
        mass, want = lb.recombine(weights), recombine_oracle(weights)
        assert_close(mass.values, want)
        assert mass.focal_elements() == lb.MassAllocation(l, want, check=False).focal_elements()

        m2 = random_mass(l, rng)
        got, want = lb.combine(m, m2).values, combine_oracle(m, m2)
        pairs = len(m.focal_elements(0.0)) * len(m2.focal_elements(0.0))
        prices = lb.evidence._product_prices(l)
        if pairs <= prices[not lb.lattice.is_distributive(l)]:  # the same pairs in the same order
            assert got == want  # equal to the last bit
        else:  # the commonality product, solved back to a mass
            assert_close(got, want)


# -- properties over downset lattices of random posets --------------------------------

def downset_lattices():
    return source_posets().map(lambda p: lb.downset_lattice(p).lattice)


@settings(max_examples=60, deadline=None)
@given(l=downset_lattices(), data=st.data())
def test_inversions_round_trip_on_random_downset_lattices(l, data):
    values = data.draw(st.lists(st.floats(-5, 5, allow_nan=False),
                                min_size=len(l), max_size=len(l)), label="values")
    f = lb.SetFunction(l, dict(zip(l.elements, values)))
    m = lb.mobius_transform(f)
    for back in (lb.zeta_transform(m), lb.mobius_transform(lb.zeta_transform(f)),
                 lb.comobius_transform(lb.mass_from_comobius(f)),
                 lb.mass_from_comobius(lb.comobius_transform(f))):
        for x in l.elements:
            assert back[x] == pytest.approx(f[x], abs=1e-9)

    raw = data.draw(st.lists(st.floats(0, 1), min_size=len(l), max_size=len(l)),
                    label="masses")
    raw = [0.0 if x == l.bottom else v for x, v in zip(l.elements, raw)]
    raw[l.poset.index_of(l.top)] += 0.5
    mass = lb.MassAllocation(l, {x: v / sum(raw) for x, v in zip(l.elements, raw)})
    again = lb.recombine(lb.decompose(lb.zeta_transform(mass)))
    for x in l.elements:
        assert again[x] == pytest.approx(mass[x], abs=1e-9)


# -- capacity, necessity and possibility against the all-pairs scans ------------------

def boundary_oracle(f, tol):
    l = f.lattice
    if abs(f[l.bottom]) > tol:
        return lb.CheckResult(False, (l.bottom,), f"f(bottom) = {f[l.bottom]!r}, expected 0")
    if abs(f[l.top] - 1.0) > tol:
        return lb.CheckResult(False, (l.top,), f"f(top) = {f[l.top]!r}, expected 1")
    return None


def check_capacity_oracle(f, tol):
    """Isotonicity on every comparable pair, in index order."""
    bad = boundary_oracle(f, tol)
    if bad is not None:
        return bad
    l = f.lattice
    down = l.poset._down
    fv = list(f.values.values())
    for x, y in itertools.combinations(range(len(l)), 2):
        lo, hi = (x, y) if down[y] >> x & 1 else (y, x) if down[x] >> y & 1 else (None, None)
        if lo is not None and fv[lo] > fv[hi] + tol:
            lo, hi = l.elements[lo], l.elements[hi]
            return lb.CheckResult(False, (lo, hi), f"f({lo}) = {f[lo]!r} > f({hi}) = {f[hi]!r}")
    return lb.CheckResult(True)


def min_max_oracle(f, tol, want_min):
    """f(x ^ y) = min (f(x v y) = max) on every pair, in index order."""
    bad = boundary_oracle(f, tol)
    if bad is not None:
        return bad
    l = f.lattice
    table, pick = (meet_table(l), min) if want_min else (join_table(l), max)
    fv = list(f.values.values())
    for i, j in itertools.combinations(range(len(l)), 2):
        lhs, rhs = fv[table[i][j]], pick(fv[i], fv[j])
        if abs(lhs - rhs) > tol:
            x, y = l.elements[i], l.elements[j]
            op = pick.__name__
            return lb.CheckResult(False, (x, y), f"{lhs!r} != {op}(f({x}), f({y})) = {rhs!r}")
    return lb.CheckResult(True)


def random_chain(l, rng):
    """A random maximal chain, bottom first, by random upward covers."""
    chain = [l.bottom]
    while chain[-1] != l.top:
        chain.append(rng.choice(l.poset.covered_by(chain[-1])))
    return chain


def chain_necessity(l, rng):
    """The belief of a random mass on a random maximal chain: its value at
    x sums the same chain prefix at every x above that prefix's end."""
    return lb.zeta_transform(random_mass(l, rng, focal=random_chain(l, rng)[1:]))


def normalized(l, values):
    values[l.bottom], values[l.top] = 0.0, 1.0
    return lb.SetFunction(l, values)


def function_mix(l, rng):
    """Random, isotone, tie-heavy, drifting and chain-supported functions, the
    conjugates of the chain-supported ones, and near misses of each."""
    u = {x: rng.random() for x in l.elements}
    fs = [normalized(l, dict(u)),
          normalized(l, {x: rng.choice((0.0, 0.5, 1.0)) for x in l.elements}),
          normalized(l, {x: max(u[y] for y in l.poset.below(x)) for x in l.elements}),
          lb.zeta_transform(random_mass(l, rng))]
    fs.append(normalized(l, {x: round(2 * fs[-1][x]) / 2 for x in l.elements}))
    # each cover within tol = 0.1 of isotone, a pair two covers apart not
    fs.append(normalized(l, {x: -0.06 * l.height(x) for x in l.elements}))
    nec = chain_necessity(l, rng)
    dual = chain_necessity(lb.dual_lattice(l), rng)
    fs += [nec, lb.SetFunction(l, {x: 1.0 - dual[x] for x in l.elements})]
    negations = lb.find_negations(l, limit=1) if len(l) <= 16 else []
    fs += [lb.conjugate(nec, n, "vee") for n in negations]
    for f in list(fs):
        fs.append(lb.SetFunction(l, {x: v + rng.choice((-1, 1)) * rng.uniform(1e-10, 2e-9)
                                     if rng.random() < 0.3 else v for x, v in f.items()}))
    return fs


def assert_checks_match_the_scans(l, rng, tally):
    for f in function_mix(l, rng):
        for tol in (0.0, 1e-9, 0.1):
            for name, got, want in (
                    ("capacity", lb.check_capacity(f, tol), check_capacity_oracle(f, tol)),
                    ("necessity", lb.check_necessity(f, tol), min_max_oracle(f, tol, True)),
                    ("possibility", lb.check_possibility(f, tol), min_max_oracle(f, tol, False))):
                assert got == want, (name, tol, dict(f.items()))
                tally[name, want.ok] += 1


def test_checks_match_the_scans_on_the_corpus():
    rng, tally = random.Random(11), collections.Counter()
    for _, l in LATTICES:
        assert_checks_match_the_scans(l, rng, tally)
    assert min(tally.values()) >= 100, tally


def test_checks_match_the_scans_on_random_moore_families():
    rng, tally = random.Random(12), collections.Counter()
    for _ in range(150):
        l = moore_lattice(rng)
        if len(l) > 1:  # a one-element lattice carries no mass
            assert_checks_match_the_scans(l, rng, tally)
    assert min(tally.values()) >= 100, tally


def test_passing_checks_never_reach_the_pair_scan(monkeypatch):
    def scan(*args):
        raise LookupError("pair scan reached")

    monkeypatch.setattr(lb.possibilistic, "_pair_scan", scan)
    l, rng = bool_lattice(8), random.Random(13)
    nec = chain_necessity(l, rng)
    assert lb.check_necessity(nec)
    assert lb.check_possibility(lb.conjugate(nec, lb.find_negations(l)[0], "vee"))
    bumped = dict(nec.items())
    x = next(x for x in l.elements if 0.0 < nec[x] < 1.0)
    bumped[x] += 1e-12  # a necessity within tol, but no longer exactly
    with pytest.raises(LookupError):
        lb.check_necessity(lb.SetFunction(l, bumped))


def isotony_refusal_oracle(l, pi):
    """The message refusing a pi that is not isotone on the join-irreducibles:
    the first pair a <= b, a in element order and then b, with pi(a) > pi(b),
    by the nested loop the chain reconstruction ran before its one pass."""
    names, up, jmask = l.elements, l._up, l._jmask
    values = [pi.get(x) for x in names]
    for a in lb.lattice._indices(jmask):
        for b in lb.lattice._indices(up[a] & jmask):
            if values[a] > values[b]:
                a, b, va, vb = names[a], names[b], values[a], values[b]
                return f"pi is not isotone: {a} <= {b} but pi({a}) = {va!r} > pi({b}) = {vb!r}"
    return None


def autodual_downset_lattice(rng):
    """The downsets of a random poset P beside its dual: D(P) x D(P^op), so
    autodual and distributive."""
    p = random_poset(rng, rng.randint(2, 4), 0.35)
    q = p.dual()
    names = [f"{x}+" for x in p.elements] + [f"{x}-" for x in q.elements]
    covers = [(f"{a}+", f"{b}+") for a, b in p.covers] + [(f"{a}-", f"{b}-") for a, b in q.covers]
    return lb.downset_lattice(lb.build_poset(names, covers)).lattice


def test_isotony_refusal_matches_the_nested_loop():
    """reconstruct_chain refuses a pi made non-isotone by swapping the values
    of two comparable join-irreducibles with the message of the loop over
    every join-irreducible and those above it; values rise along the element
    order, a linear extension, so nothing else is refused first."""
    rng, tally = random.Random(17), collections.Counter()
    cases = [chain_lattice(rng.randint(63, 511)) for _ in range(4)]
    for _ in range(12):
        l = autodual_downset_lattice(rng)
        cases += [l, lb.dual_lattice(l)]
    for l in cases:
        (n,) = lb.find_negations(l, limit=1)
        joinirr = l.joinirr
        pairs = [(a, b) for a, b in itertools.combinations(joinirr, 2) if l.leq(a, b)]
        for _ in range(10):
            pi = dict(zip(joinirr, sorted(rng.uniform(0.01, 0.99) for _ in joinirr[1:]) + [1.0]))
            assert isotony_refusal_oracle(l, pi) is None
            if not pairs:
                break
            a, b = rng.choice(pairs)
            pi[a], pi[b] = pi[b], pi[a]
            want = isotony_refusal_oracle(l, pi)
            with pytest.raises(InvalidDistribution) as raised:
                lb.reconstruct_chain(l, n, pi)
            assert str(raised.value) == want
            tally[want.startswith(f"pi is not isotone: {a} <= {b} but")] += 1  # the swapped pair
    assert tally[True] >= 20 and tally[False] >= 20, tally


def pair_scan_oracle(l, fv, tol, bound, pick):
    """The first pair, in combinations order, whose meet (join) value is off
    their min (max) by over tol: the loop that named necessity and
    possibility failures before the comparable pairs took isotony's pass."""
    for i, j in itertools.combinations(range(len(l)), 2):
        lhs, rhs = fv[bound(l, i, j)], pick(fv[i], fv[j])
        if abs(lhs - rhs) > tol:
            x, y = l.elements[i], l.elements[j]
            op = pick.__name__
            return CheckResult(False, (x, y), f"{lhs!r} != {op}(f({x}), f({y})) = {rhs!r}")
    return CheckResult(True)


def joins_to_meets_oracle(l, image):
    """The first pair, in combinations order, with n(x v y) != n(x) ^ n(y):
    the loop that named a failing negation before the comparable pairs were
    read off the preimages of the images' down-sets."""
    names = l.elements
    for i, j in itertools.combinations(range(len(names)), 2):
        lhs = image[lb.lattice._join_index(l, i, j)]
        rhs = lb.lattice._meet_index(l, image[i], image[j])
        if lhs != rhs:
            x, y, lhs, rhs = names[i], names[j], names[lhs], names[rhs]
            return CheckResult(False, (x, y),
                               f"n({x} v {y}) = {lhs!r} but n({x}) ^ n({y}) = {rhs!r}")
    return CheckResult(True)


def transposed_chains(rng, count, draw=random.Random.random):
    """Chains of 32-128 elements, each with values (by default uniform in
    [0, 1)) rising from the bottom and two of them swapped."""
    for _ in range(count):
        l = chain_lattice(rng.randint(31, 127))
        values = sorted(draw(rng) for _ in l.elements)
        a, b = rng.sample(range(len(l)), 2)
        values[a], values[b] = values[b], values[a]
        yield lb.SetFunction(l, dict(zip(l.elements, values)))


def tenths(rng):
    """A random multiple of 0.1 in [0, 1], where x - y > 0.1 and x > y + 0.1
    can disagree (0.4 - 0.3 > 0.1 but 0.3 + 0.1 == 0.4)."""
    return rng.randrange(11) / 10


def moore_draws(rng, count):
    """Random Moore lattices of at least two elements, each with its dual."""
    while count:
        l = moore_lattice(rng)
        if len(l) > 1:
            count -= 1
            yield from (l, lb.dual_lattice(l))


def test_min_max_witness_matches_the_pair_loop():
    """The first failing pair and its detail equal the loop's, for meets and
    joins, on random functions and on tenths, whose differences round."""
    rng, tally = random.Random(19), collections.Counter()
    functions = [f for _, l in LATTICES for f in function_mix(l, rng)]
    functions += [f for l in moore_draws(rng, 25) for f in function_mix(l, rng)]
    functions += [lb.SetFunction(l, {x: tenths(rng) for x in l.elements})
                  for l in [l for _, l in LATTICES] + list(moore_draws(rng, 10))]
    functions += transposed_chains(rng, 12)
    functions += transposed_chains(rng, 12, tenths)
    for f in functions:
        l, fv = f.lattice, list(f.vector)
        for bound, pick in ((lb.lattice._meet_index, min), (lb.lattice._join_index, max)):
            for tol in (0.0, 1e-9, 0.1):
                want = pair_scan_oracle(l, fv, tol, bound, pick)
                assert lb.possibilistic._pair_scan(l, fv, tol, bound, pick) == want, (tol, f.values)
                tally[want.ok] += 1
    assert tally[True] >= 1000 and tally[False] >= 2000, tally


def test_min_max_drop_is_decided_by_the_difference():
    """On a chain, N(x) = 0.4 above N(y) = 0.3 for x < y fails at tol 0.1,
    since 0.4 - 0.3 > 0.1, though 0.3 + 0.1 == 0.4."""
    l = chain_lattice(15)
    values = [0.0, 0.1, 0.2, 0.3, 0.3, 0.4, 0.3] + [0.5] * 8 + [1.0]
    f = lb.SetFunction(l, dict(zip(l.elements, values)))
    assert lb.check_necessity(f, 0.1) == CheckResult(
        False, ("c5", "c6"), "0.4 != min(f(c5), f(c6)) = 0.3")
    assert lb.check_possibility(f, 0.1) == CheckResult(
        False, ("c5", "c6"), "0.3 != max(f(c5), f(c6)) = 0.4")
    assert lb.check_capacity(f, 0.1)  # isotony's own test is f(x) <= f(y) + tol


def test_negation_witness_matches_the_pair_loop():
    """Negations, each also with two images swapped, and random bijections,
    all sending top to bottom, get the loop's verdict, first failing pair and
    detail on the corpus, Moore draws and their duals, autodual downset lattices and
    their duals, and chains; comparable and incomparable pairs must both come
    first often."""
    rng, tally = random.Random(23), collections.Counter()
    cases = [l for _, l in LATTICES] + list(moore_draws(rng, 40))
    cases += [chain_lattice(rng.randint(31, 255)) for _ in range(4)]
    for _ in range(10):
        l = autodual_downset_lattice(rng)
        cases += [l, lb.dual_lattice(l)]
    for l in cases:
        for image in (lb.duality._image_of(l, m) for m in maps_to_verify(l, rng)):
            want = joins_to_meets_oracle(l, image)
            assert lb.duality._joins_to_meets(l, image) == want
            tally["holds" if want.ok else l.leq(*want.witness)] += 1
    assert min(tally.values()) >= 50, tally


# -- k-family checks against the exhaustive sweep -----------------------------------------

def k_family_sweep_oracle(f, k: int, tol: float, max_meets: int, op: str = "<"):
    """The first family of 2 to k distinct elements, smallest size first,
    whose f(join) is below (op "!=": differs from) the alternating sum of f
    over its subfamilies' meets.  Sizes above |L|-2 add nothing: a family
    holding bottom has the inequality of the family without it, one holding
    top holds with equality.  Refuses a sweep of over ``max_meets`` meets."""
    _require_tol(tol)
    l = f.lattice
    n = len(l)
    sizes = range(2, min(k, max(2, n - 2)) + 1)
    meets = sum(math.comb(n, j) * (2**j - 1) for j in sizes)
    if meets > max_meets:
        raise SizeLimitExceeded(
            f"{meets} meet evaluations exceed the cap of {max_meets}; raise it with --limit"
        )
    fails = {"<": lambda lhs, rhs: lhs < rhs - tol,
             "!=": lambda lhs, rhs: abs(lhs - rhs) > tol}[op]
    fv = list(f.values.values())
    join_t, meet_t = join_table(l), meet_table(l)
    for j in sizes:
        for family in itertools.combinations(range(n), j):
            top = family[0]
            for i in family[1:]:
                top = join_t[top][i]
            lhs, rhs = fv[top], 0.0
            for r in range(1, j + 1):
                sign = 1.0 if r % 2 else -1.0
                for sub in itertools.combinations(family, r):
                    low = sub[0]
                    for i in sub[1:]:
                        low = meet_t[low][i]
                    rhs += sign * fv[low]
            if fails(lhs, rhs):
                names = tuple(l.elements[i] for i in family)
                return CheckResult(False, names, f"f(join) = {lhs!r} {op} {rhs!r}")
    return CheckResult(True)


ORACLE_MEETS = 10**5  # the oracle spends 2^j - 1 meets on each family of j members


def dyadic(rng):
    """Draws of multiples of 1/64: every sum the checks and the oracle form
    of them is exact, so the two agree even where a family's difference
    equals the tolerance."""
    return lambda lo, hi: rng.randint(round(lo * 64), round(hi * 64)) / 64


def k_family_mix(l, value):
    """Random, belief, signed-mass, rounded-belief and vacuous functions, one
    with negative mass on every join-irreducible, and one with negative mass
    on the elements of three or more lower covers, which tends to fail first
    at a larger family.  ``value(lo, hi)`` draws each number."""
    def zeta(mass):
        values = {x: mass(i, x) for i, x in enumerate(l.elements)}
        return lb.zeta_transform(lb.SetFunction(l, values))

    irreducible = set(lb.eta(l, l.top))
    bel = zeta(lambda i, x: 0.0 if x == l.bottom else value(0.0, 1.0))
    return [lb.SetFunction(l, {x: value(-1.0, 1.0) for x in l.elements}), bel,
            zeta(lambda i, x: value(-0.3, 1.0)),
            lb.SetFunction(l, {x: round(4 * v) / 4 for x, v in bel.items()}),
            lb.SetFunction(l, {x: float(x != l.bottom) for x in l.elements}),
            zeta(lambda i, x: value(0.0, 1.0) * (-1 if x in irreducible else 1)),
            zeta(lambda i, x: -0.25 if len(l.poset._cov_down[i]) >= 3 else value(0.0, 1.0))]


def assert_k_family_checks_match_the_sweep(l, value, tols, tally):
    checks = {"<": lb.check_k_monotone, "!=": lb.check_k_valuation}
    for f in k_family_mix(l, value):
        for tol in tols:
            for k, op in ((2, "<"), (3, "<"), (2, "!="), (3, "!="), ("total", "<")):
                try:
                    want = k_family_sweep_oracle(f, len(l) if k == "total" else k, tol,
                                                 ORACLE_MEETS, op)
                except SizeLimitExceeded:
                    continue
                if k == "total":
                    max_k = "total" if want else len(want.witness) - 1
                    assert lb.capacity.max_k_monotone(f, tol) == max_k
                    want = want or CheckResult(False, want.witness,
                                               f"fails at k={len(want.witness)}: {want.detail}")
                    got = lb.check_total_monotone(f, tol)
                else:
                    got = checks[op](f, k, tol)
                assert got == want, (k, op, tol, dict(f.items()))
                tally[k, op, len(want.witness or ())] += 1


def test_k_family_checks_match_the_sweep_on_the_corpus():
    rng, tally = random.Random(15), collections.Counter()
    for _, l in LATTICES:
        if len(l) > 1:  # a one-element lattice carries no mass
            assert_k_family_checks_match_the_sweep(l, rng.uniform, (1e-9, 0.1), tally)
    assert {key for key, count in tally.items() if count >= 5} >= {
        (2, "<", 0), (2, "<", 2), (3, "<", 0), (3, "<", 2), (3, "<", 3),
        (2, "!=", 0), (2, "!=", 2), (3, "!=", 0), (3, "!=", 2),
        ("total", "<", 0), ("total", "<", 2), ("total", "<", 3)}, tally


@settings(max_examples=100, deadline=None)
@given(l=st.randoms().map(moore_lattice), dual=st.booleans(), rng=st.randoms())
def test_k_family_checks_match_the_sweep_on_random_moore_families(l, dual, rng):
    if dual:
        l = lb.dual_lattice(l)
    if len(l) > 1:
        assert_k_family_checks_match_the_sweep(l, dyadic(rng), (0.0, 1e-9, 0.25),
                                               collections.Counter())


def random_capacity(l, rng):
    """A normalized function of multiples of 1/1024 with f(top) = 1 exactly:
    the zeta transform of a nonnegative or of a signed mass (the remainder on
    top), or a random isotone function with ties.  Not every one is a
    capacity, and the checks run at tolerance 0 on exact sums."""
    q, top = max(1, 1024 // len(l)), l.poset.index_of(l.top)
    kind = rng.randrange(3)
    if kind < 2:
        mass = [rng.randint(-q if kind else 0, q) / 1024 for _ in l.elements]
        mass[0], mass[top] = 0.0, 0.0  # bottom is element 0
        mass[top] = 1.0 - sum(mass)
        return lb.zeta_transform(lb.SetFunction(l, dict(zip(l.elements, mass))))
    values = [0.0] * len(l)
    for y in range(1, len(l)):  # upwards: elements are numbered along a linear extension
        below = max(values[c] for c in l.poset._cov_down[y])
        values[y] = 1.0 if y == top else min(1.0, below + rng.randint(0, 2 * q) / 1024)
    return lb.SetFunction(l, dict(zip(l.elements, values)))


@settings(max_examples=150, deadline=None)
@given(l=st.randoms().map(moore_lattice), dual=st.booleans(), rng=st.randoms())
def test_a_capacity_is_totally_monotone_iff_it_is_a_belief(l, dual, rng):
    # the paper's theorem, on any lattice: a non-belief capacity has negative
    # mass at an element with two or more lower covers, whose lower covers
    # then form a failing family
    if dual:
        l = lb.dual_lattice(l)
    if len(l) < 2:
        return
    f = random_capacity(l, rng)
    if not lb.check_capacity(f, 0.0):
        return
    belief = bool(lb.check_belief(f, 0.0))
    assert bool(lb.check_total_monotone(f, 0.0)) == belief
    assert (lb.capacity.max_k_monotone(f, 0.0) == "total") == belief
