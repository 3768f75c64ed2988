"""The bitset order core against exhaustive name-keyed oracles.

Every oracle here rebuilds the order from the cover list by plain graph
search and answers joins, meets and structural questions by brute force over
element names, the way the definitions read.  The library's integer tables,
structural profile (flags and first witnesses), Moebius coefficients and
negation search must agree with them exactly.
"""

import itertools
import random
import warnings

import pytest

import latbel as lb
from latbel.errors import NotALattice, RedundantCovers

from conftest import bool_lattice, chain_lattice, corpus


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
    diamond = diamond_witness(o)
    w["is_modular"] = w["is_lower_semimodular"] or w["is_upper_semimodular"]
    w["is_lower_locally_distributive"] = w["is_lower_semimodular"] or diamond
    w["is_upper_locally_distributive"] = w["is_upper_semimodular"] or diamond
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


def random_poset(rng, n, density):
    names = [f"p{i}" for i in range(n)]
    covers = [(names[i], names[j]) for i, j in itertools.combinations(range(n), 2)
              if rng.random() < density]
    rng.shuffle(names)  # input order need not be a linear extension
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RedundantCovers)
        return lb.build_poset(names, covers)


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


def test_non_lattices_fail_on_the_oracle_pair():
    rng = random.Random(7)
    failures = 0
    for _ in range(60):
        p = random_poset(rng, rng.randint(2, 7), 0.4)
        want = Oracle(p.elements, p.covers).first_failure()
        if want is None:
            lb.lattice_from_poset(p)
            continue
        failures += 1
        with pytest.raises(NotALattice) as exc:
            lb.lattice_from_poset(p)
        assert (*exc.value.pair, exc.value.reason) == want
    assert failures >= 20
