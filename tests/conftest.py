"""Shared lattice corpus and random-value builders for the test suite."""

from functools import lru_cache

import latbel as lb


@lru_cache(maxsize=None)
def chain_lattice(length):
    """Chain with `length` cover edges, so length + 1 elements."""
    names = [f"c{i}" for i in range(length + 1)]
    return lb.lattice_from_poset(lb.build_poset(names, list(zip(names, names[1:]))))


@lru_cache(maxsize=None)
def m3():
    """Five-element diamond: three incomparable atoms between bottom and top."""
    covers = [("⊥", "a"), ("⊥", "b"), ("⊥", "c"), ("a", "⊤"), ("b", "⊤"), ("c", "⊤")]
    return lb.lattice_from_poset(lb.build_poset("⊥ a b c ⊤".split(), covers))


@lru_cache(maxsize=None)
def n5():
    """Five-element pentagon: a 2-chain x < y beside a single atom z."""
    covers = [("⊥", "x"), ("x", "y"), ("y", "⊤"), ("⊥", "z"), ("z", "⊤")]
    return lb.lattice_from_poset(lb.build_poset("⊥ x y z ⊤".split(), covers))


@lru_cache(maxsize=None)
def autodual8():
    """Eight-element autodual lattice whose only complemented elements are
    bottom and top; join-irreducibles are a, b, d, e."""
    covers = [("⊥", "a"), ("⊥", "b"), ("a", "c"), ("b", "c"), ("b", "d"),
              ("c", "e"), ("c", "f"), ("d", "f"), ("e", "⊤"), ("f", "⊤")]
    return lb.lattice_from_poset(lb.build_poset("⊥ a b c d e f ⊤".split(), covers))


@lru_cache(maxsize=None)
def nonautodual5():
    """Two atoms, one coatom: not isomorphic to its dual."""
    covers = [("⊥", "p"), ("⊥", "q"), ("p", "r"), ("q", "r"), ("r", "⊤")]
    return lb.lattice_from_poset(lb.build_poset("⊥ p q r ⊤".split(), covers))


@lru_cache(maxsize=None)
def bool_lattice(k):
    return lb.boolean_lattice([str(i + 1) for i in range(k)])


@lru_cache(maxsize=None)
def chain_diamond():
    """Downset lattice (18 elements) of a disjoint 2-chain a < b and the
    four-element diamond c < d, c < e, d < f, e < f."""
    jp = lb.build_poset(list("abcdef"),
                        [("a", "b"), ("c", "d"), ("c", "e"), ("d", "f"), ("e", "f")])
    return lb.downset_lattice(jp)


@lru_cache(maxsize=None)
def chain_diamond_negation():
    """The involutive negation of the 18-element lattice, specified on its
    join-irreducibles (principal downsets) and extended by meets."""
    dl = chain_diamond()
    pr = dl.principal
    jmap = {
        pr["a"]: "{a,c,d,e,f}",
        pr["b"]: "{c,d,e,f}",
        pr["c"]: "{a,b,c,d,e}",
        pr["d"]: "{a,b,c,e}",
        pr["e"]: "{a,b,c,d}",
        pr["f"]: "{a,b}",
    }
    return lb.negation_from_irreducible_map(dl.lattice, jmap)


@lru_cache(maxsize=None)
def convex_geometry(m):
    """The closed sets of the convex geometry of an m-point line: the
    intervals [i, j] with 0 <= i <= j < m, named "[i,j]", plus the empty set
    "{}", ordered by inclusion.  Lower locally distributive; distributive
    only for m <= 2.  It has m(m + 1)/2 + 1 elements."""
    names = ["{}"] + [f"[{i},{j}]" for i in range(m) for j in range(i, m)]
    covers = [("{}", f"[{i},{i}]") for i in range(m)]
    covers += [(f"[{i + 1},{j}]", f"[{i},{j}]") for i in range(m) for j in range(i + 1, m)]
    covers += [(f"[{i},{j - 1}]", f"[{i},{j}]") for i in range(m) for j in range(i + 1, m)]
    return lb.lattice_from_poset(lb.build_poset(names, covers))


def corpus():
    """(name, lattice) pairs covering chains, Boolean lattices, the diamond
    and pentagon, and the two reference autodual lattices."""
    entries = [(f"chain{k}", chain_lattice(k)) for k in range(2, 9)]
    entries += [(f"bool{k}", bool_lattice(k)) for k in range(1, 5)]
    entries += [("m3", m3()), ("n5", n5()), ("autodual8", autodual8()),
                ("chain_diamond", chain_diamond().lattice)]
    return entries


def small_corpus(max_size=8):
    return [(name, l) for name, l in corpus() if len(l) <= max_size]


def distributive_corpus():
    return [(name, l) for name, l in corpus() if lb.profile(l).is_distributive]


def random_mass(l, rng, *, top_min=0.0, focal=None):
    """Random nonnegative mass allocation with nothing at bottom and at least
    ``top_min`` mass reserved for the top element."""
    candidates = [x for x in l.elements if x != l.bottom]
    if focal is None:
        focal = rng.sample(candidates, rng.randint(1, min(5, len(candidates))))
    raw = {x: rng.uniform(0.05, 1.0) for x in focal}
    scale = (1.0 - top_min) / sum(raw.values())
    vals = {x: 0.0 for x in l.elements}
    for x, v in raw.items():
        vals[x] += v * scale
    vals[l.top] += top_min
    return lb.MassAllocation(l, vals)


def diamond_belief_with_a_tiny_top_mass(n):
    """On M_n: mass 1/64 on each atom, the rest on the first atom and 2^-29
    at top.  A belief function whose decomposition weight at bottom, about
    2^(23 (n - 1) - 2), leaves the float range for n >= 46."""
    atoms = [f"m{i}" for i in range(n)]
    l = lb.lattice_from_poset(lb.build_poset(
        ["bot", *atoms, "top"], [("bot", a) for a in atoms] + [(a, "top") for a in atoms]))
    m = {**dict.fromkeys(l.elements, 0.0), **dict.fromkeys(atoms, 1 / 64), "top": 2.0**-29}
    m["m0"] += 1.0 - sum(m.values())
    return lb.zeta_transform(lb.MassAllocation(l, m))


def random_belief(l, rng, *, top_min=0.0):
    m = random_mass(l, rng, top_min=top_min)
    return lb.zeta_transform(m)


def random_function(l, rng, lo=-1.0, hi=1.0):
    return lb.SetFunction(l, {x: rng.uniform(lo, hi) for x in l.elements})


def random_chain_mass(l, rng):
    """Mass supported on a randomly chosen maximal chain (bottom excluded)."""
    chain = rng.choice(lb.maximal_chains(l))
    support = [x for x in chain if x != l.bottom] or [l.top]
    k = rng.randint(1, len(support))
    return random_mass(l, rng, focal=rng.sample(support, k))


def random_capacity_on_chain(l, rng):
    """Random isotone [0, 1] assignment on a chain lattice."""
    inner = sorted(rng.uniform(0.0, 1.0) for _ in range(len(l) - 2))
    values = [0.0] + inner + [1.0]
    ordered = sorted(l.elements, key=l.height)
    return lb.SetFunction(l, dict(zip(ordered, values)))


def moore_lattice(rng, points=(2, 7), generators=(2, 8)):
    """The lattice of a random Moore family: the intersection closure of
    a few random subsets of a ground set of 2-7 points, plus the full set.
    Every finite lattice arises this way, distributive or not.  Elements
    are named by their members, e.g. "{0,3}", and declared in shuffled
    order, so that input order need not be a linear extension."""
    k = rng.randint(*points)
    family = {(1 << k) - 1}
    for _ in range(rng.randint(*generators)):
        s = rng.getrandbits(k)
        family |= {s & t for t in family} | {s}  # stays closed under intersection
    name = {s: "{" + ",".join(str(i) for i in range(k) if s >> i & 1) + "}" for s in family}
    covers = []
    for b in family:
        below = sorted((a for a in family if a & b == a != b), key=int.bit_count, reverse=True)
        maximal = []
        for a in below:  # larger sets first, so each is kept iff it lies in no kept one
            if not any(a & c == a for c in maximal):
                maximal.append(a)
        covers += [(name[a], name[b]) for a in maximal]
    names = list(name.values())
    rng.shuffle(names)
    return lb.lattice_from_poset(lb.build_poset(names, covers))
