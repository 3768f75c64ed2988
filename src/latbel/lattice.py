"""Finite posets and lattices presented by cover relations.

A structure is declared by its elements (in a fixed input order that every
enumeration in this package follows) and its covering relation: ``(x, y)``
means y covers x, exactly the edges of a Hasse diagram.  The order itself is
the reflexive-transitive closure of the covers.

Internally an element is its input index and a set of elements is a Python
int used as a bitset, bit i standing for element i (the encoding of
Ait-Kaci, Boyer, Lincoln & Nasr, "Efficient implementation of lattice
operations", TOPLAS 1989).  Element names appear only at the API edge.
The join and meet tables are filled column by column along a linear
extension, composing the columns of each element's covers; only a poset
found not to be a lattice is scanned pair by pair, to name its first pair
without a join or a meet.

Poset and Lattice are immutable once built, except that ``Lattice._cache``
is filled lazily with derived results such as the structural profile and
the Moebius coefficients.  Instances can be shared between threads: a
concurrent first call may compute such a result twice, and the second store
only replaces it with an equal value.  Construction is single-threaded.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, fields
from operator import itemgetter

from .errors import (
    CycleDetected,
    DecompositionNotUnique,
    DuplicateElement,
    InvalidElementName,
    NotALattice,
    RedundantCovers,
    SizeLimitExceeded,
    UnknownElement,
)

DEFAULT_MAX_ELEMENTS = 4096
DEFAULT_MAX_CHAINS = 10**6


_BYTE_OF_DIGIT = bytes.maketrans(b"01", b"\0\1")


def _indices(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    selectors = bin(mask)[:1:-1].encode().translate(_BYTE_OF_DIGIT)  # lowest bit first
    return list(itertools.compress(itertools.count(), selectors))


class Poset:
    """A finite partially ordered set built from its covering relation.

    Redundant input pairs (duplicates and transitive edges) are dropped with
    a :class:`RedundantCovers` warning; the stored ``covers`` are always the
    irredundant covering relation of the closure.  ``_down[i]`` and
    ``_up[i]`` are the bitsets of the elements below and above element i.
    """

    __slots__ = ("elements", "covers", "_index", "_down", "_up", "_cov_down", "_cov_up")

    def __init__(self, elements, covers, *, max_elements: int = DEFAULT_MAX_ELEMENTS):
        names = list(elements)
        if not names:
            raise InvalidElementName("a poset needs at least one element")
        if len(names) > max_elements:
            raise SizeLimitExceeded(
                f"{len(names)} elements exceed the configured cap of {max_elements}"
            )
        index: dict[str, int] = {}
        for name in names:
            if not isinstance(name, str) or name.split() != [name]:  # empty or spaced
                raise InvalidElementName(f"bad element name: {name!r}")
            if name in index:
                raise DuplicateElement(name)
            index[name] = len(index)
        n = len(names)

        edges: set[tuple[int, int]] = set()
        for lo, up in covers:
            for name in (lo, up):
                if not isinstance(name, str):
                    raise InvalidElementName(f"bad element name: {name!r}")
                if name not in index:
                    raise UnknownElement(name)
            if lo == up:
                raise CycleDetected((lo,))
            edges.add((index[lo], index[up]))
        edges = sorted(edges)

        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        for a, b in edges:
            succ[a].append(b)
            pred[b].append(a)

        topo = _topological_order(n, succ, pred, names)

        down = [0] * n
        for i in topo:
            acc = 1 << i
            for p in pred[i]:
                acc |= down[p]
            down[i] = acc
        up = [0] * n
        for i in reversed(topo):
            acc = 1 << i
            for s in succ[i]:
                acc |= up[s]
            up[i] = acc

        # Every cover of the closure is an input edge, and an edge a -> b is
        # a cover iff nothing lies strictly between: up[a] & down[b] = {a, b}.
        cov, dropped = [], []
        cov_down = [[] for _ in range(n)]
        cov_up = [[] for _ in range(n)]
        for a, b in edges:
            if up[a] & down[b] == (1 << a) | (1 << b):
                cov.append((a, b))
                cov_down[b].append(a)
                cov_up[a].append(b)
            else:
                dropped.append((a, b))
        if dropped:
            listing = ", ".join(f"({names[a]}, {names[b]})" for a, b in dropped)
            warnings.warn(f"dropped redundant cover pairs: {listing}", RedundantCovers)

        self.elements: tuple[str, ...] = tuple(names)
        self._index = index
        self._down = down
        self._up = up
        self.covers: tuple[tuple[str, str], ...] = tuple((names[a], names[b]) for a, b in cov)
        self._cov_down = cov_down
        self._cov_up = cov_up

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, name) -> bool:
        return isinstance(name, str) and name in self._index

    def __repr__(self) -> str:
        return f"Poset({len(self)} elements, {len(self.covers)} covers)"

    def index_of(self, x: str) -> int:
        try:
            return self._index[x]
        except (KeyError, TypeError):
            raise UnknownElement(x) from None

    def leq(self, x: str, y: str) -> bool:
        """x <= y in the closure of the covers."""
        i = self.index_of(x)
        return bool(self._down[self.index_of(y)] >> i & 1)

    def lt(self, x: str, y: str) -> bool:
        return x != y and self.leq(x, y)

    def below(self, x: str) -> frozenset[str]:
        """All elements <= x, including x."""
        return frozenset(self.elements[i] for i in _indices(self._down[self.index_of(x)]))

    def above(self, x: str) -> frozenset[str]:
        return frozenset(self.elements[i] for i in _indices(self._up[self.index_of(x)]))

    def covered_by(self, x: str) -> tuple[str, ...]:
        """Elements covering x, in input order."""
        return tuple(self.elements[i] for i in self._cov_up[self.index_of(x)])

    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(x for i, x in enumerate(self.elements) if not self._cov_down[i])

    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(x for i, x in enumerate(self.elements) if not self._cov_up[i])

    def dual(self) -> "Poset":
        """Same elements with the order reversed."""
        return Poset(self.elements, [(u, l) for l, u in self.covers])

    def restrict(self, keep) -> "Poset":
        """Induced subposet on ``keep`` (ordered as in the parent)."""
        mask = 0
        for x in set(keep):
            mask |= 1 << self.index_of(x)
        sub = _indices(mask)
        # a -> b is a cover iff no kept element lies strictly between them
        cov = [(self.elements[a], self.elements[b]) for a in sub for b in sub
               if a != b and self._up[a] & self._down[b] & mask == (1 << a) | (1 << b)]
        return Poset([self.elements[i] for i in sub], cov)


def _topological_order(n, succ, pred, names):
    indeg = [len(pred[i]) for i in range(n)]
    topo = [i for i in range(n) if indeg[i] == 0]
    for i in topo:  # the loop also visits the nodes appended while it runs
        for s in succ[i]:
            indeg[s] -= 1
            if indeg[s] == 0:
                topo.append(s)
    if len(topo) < n:
        remaining = set(range(n)) - set(topo)
        # Every remaining node keeps a remaining predecessor; walk until a repeat.
        v = min(remaining)
        path, seen = [], {}
        while v not in seen:
            seen[v] = len(path)
            path.append(v)
            v = next(u for u in pred[v] if u in remaining)
        cycle = list(reversed(path[seen[v]:]))
        raise CycleDetected(tuple(names[i] for i in cycle))
    return topo


def build_poset(elements, covers, *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Poset:
    """Build a poset from declared elements and cover pairs ``(lower, upper)``."""
    return Poset(elements, covers, max_elements=max_elements)


class Lattice:
    """A finite lattice: a poset whose binary join and meet are total.

    Raises :class:`NotALattice` otherwise, naming the first pair in input
    order without a join or a meet.  ``_join``/``_meet`` are the operations'
    index tables, filled along the linear extension ``_order`` by
    :func:`_columns`; the pair scan runs only to name the failing pair.
    """

    __slots__ = ("poset", "bottom", "top", "joinirr", "meetirr", "heights",
                 "_join", "_meet", "_order", "_h", "_coh", "_cache")

    def __init__(self, poset: Poset):
        self.poset = poset
        n = len(poset)
        names = poset.elements
        up, down = poset._up, poset._down

        # With a unique minimal element, a join pass without a miss shows that
        # every pair has a join, so P is a lattice and the meet pass cannot miss.
        self._order = order = sorted(range(n), key=lambda i: down[i].bit_count())
        one_minimal = sum(not c for c in poset._cov_down) == 1
        join_t = _columns(order, poset._cov_down, up) if one_minimal else None
        if join_t is None:
            raise _first_failing_pair(poset)
        self._join = join_t
        self._meet = _columns(order[::-1], poset._cov_up, down)

        self.bottom = poset.minimal_elements()[0]
        self.top = poset.maximal_elements()[0]
        self.joinirr = tuple(x for i, x in enumerate(names) if len(poset._cov_down[i]) == 1)
        self.meetirr = tuple(x for i, x in enumerate(names) if len(poset._cov_up[i]) == 1)

        h = [0] * n
        for i in order:
            h[i] = 1 + max((h[p] for p in poset._cov_down[i]), default=-1)
        coh = [0] * n
        for i in reversed(order):
            coh[i] = 1 + max((coh[s] for s in poset._cov_up[i]), default=-1)
        self._h = h
        self._coh = coh
        self.heights = dict(zip(names, h))
        self._cache: dict = {}

    # -- delegation ---------------------------------------------------------

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    @property
    def covers(self) -> tuple[tuple[str, str], ...]:
        return self.poset.covers

    def __len__(self) -> int:
        return len(self.poset)

    def __contains__(self, name) -> bool:
        return name in self.poset

    def __repr__(self) -> str:
        return f"Lattice({len(self)} elements, bottom={self.bottom!r}, top={self.top!r})"

    def leq(self, x: str, y: str) -> bool:
        p = self.poset
        i, j = p.index_of(x), p.index_of(y)
        return self._join[i][j] == j

    def join(self, x: str, y: str) -> str:
        p = self.poset
        return p.elements[self._join[p.index_of(x)][p.index_of(y)]]

    def meet(self, x: str, y: str) -> str:
        p = self.poset
        return p.elements[self._meet[p.index_of(x)][p.index_of(y)]]

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(x for x in self.joinirr if self.heights[x] == 1)

    def height(self, x: str) -> int:
        return self._h[self.poset.index_of(x)]

    def coheight(self, x: str) -> int:
        """Length of a longest chain from x up to the top."""
        return self._coh[self.poset.index_of(x)]


def _columns(order, lower, up):
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
            for z in _indices(up[below[0]] & ~up_y):
                step[z] = by_up.get(up[z] & up_y)
                if step[z] is None:
                    return None
        cols[y] = list(itemgetter(*cols[below[0]])(step))
    return cols


def _first_failing_pair(poset: Poset) -> NotALattice:
    """The error naming the first pair in input order without a join or a
    meet; run only once the poset is known not to be a lattice."""
    names, up, down = poset.elements, poset._up, poset._down
    ups, downs = set(up), set(down)
    for i, j in itertools.combinations(range(len(names)), 2):
        ub = up[i] & up[j]
        if ub not in ups:
            return NotALattice(names[i], names[j],
                               "no-least-upper-bound" if ub else "no-upper-bound")
        lb = down[i] & down[j]
        if lb not in downs:
            return NotALattice(names[i], names[j],
                               "no-greatest-lower-bound" if lb else "no-lower-bound")


def lattice_from_poset(p: Poset) -> Lattice:
    """Check that ``p`` carries total join/meet and wrap it as a Lattice."""
    return Lattice(p)


def join(l: Lattice, xs) -> str:
    """Join of a nonempty collection of elements (fold of the binary table)."""
    return _fold(l, xs, l.join)


def meet(l: Lattice, xs) -> str:
    """Meet of a nonempty collection of elements."""
    return _fold(l, xs, l.meet)


def _fold(l, xs, op):
    items = sorted(set(xs), key=l.poset.index_of)
    if not items:
        raise ValueError("join/meet of an empty collection")
    acc = items[0]
    for x in items[1:]:
        acc = op(acc, x)
    return acc


# -- irreducible decompositions ----------------------------------------------

def eta(l: Lattice, x: str) -> frozenset[str]:
    """Normal decomposition: all join-irreducibles <= x."""
    p = l.poset
    below = p._down[p.index_of(x)]
    return frozenset(j for j in l.joinirr if below >> p._index[j] & 1)


def mu_set(l: Lattice, x: str) -> frozenset[str]:
    """All meet-irreducibles >= x."""
    p = l.poset
    above = p._up[p.index_of(x)]
    return frozenset(m for m in l.meetirr if above >> p._index[m] & 1)


def eta_star(l: Lattice, x: str) -> frozenset[str]:
    """Minimal decomposition: the unique irredundant subset of eta(x) with
    join x, namely the join-irreducibles below x and not below x⁻.

    Only defined when the lattice is lower locally distributive; other
    lattices may have several irredundant decompositions, so we refuse.
    """
    if not is_lower_locally_distributive(l):
        raise DecompositionNotUnique(
            "minimal join decomposition requires a lower locally distributive lattice"
        )
    return _minimal_decomposition(l, x, False)


def mu_star(l: Lattice, x: str) -> frozenset[str]:
    """Unique irredundant subset of mu_set(x) with meet x, namely the
    meet-irreducibles above x and not above x⁺ (upper locally distributive
    lattices only)."""
    if not is_upper_locally_distributive(l):
        raise DecompositionNotUnique(
            "minimal meet decomposition requires an upper locally distributive lattice"
        )
    return _minimal_decomposition(l, x, True)


def _minimal_decomposition(l: Lattice, x: str, upper: bool) -> frozenset[str]:
    p = l.poset
    i = p.index_of(x)
    sets, irr = (p._up, l.meetirr) if upper else (p._down, l.joinirr)
    gap = sets[i] & ~sets[_cover_bound(l, i, upper)]
    return frozenset(j for j in irr if gap >> p._index[j] & 1)


def _cover_bound(l: Lattice, x: int, upper: bool) -> int:
    """x⁻, the meet of the lower covers of x, or (upper) x⁺, the join of its
    upper covers; x itself when it has none."""
    covers = (l.poset._cov_up if upper else l.poset._cov_down)[x]
    table = l._join if upper else l._meet
    return functools.reduce(lambda a, c: table[a][c], covers, covers[0] if covers else x)


# -- structural predicates ----------------------------------------------------
#
# A witness is None when its property holds and otherwise the first
# counterexample in input order.  The cheapest criterion decides the property;
# the canonical search for the first witness runs only when it fails.  One
# table, _WITNESSES, keyed by flag name, drives the profile, the is_*
# predicates and the per-lattice cache; its order is the witness order.

@dataclass(frozen=True)
class StructureProfile:
    """Structural flags of a lattice, with a counterexample for each false flag
    where one exists (existential failures such as autoduality carry none)."""

    is_lattice: bool
    is_linear: bool
    is_ranked: bool
    is_modular: bool
    is_lower_semimodular: bool
    is_upper_semimodular: bool
    is_distributive: bool
    is_lower_locally_distributive: bool
    is_upper_locally_distributive: bool
    is_complemented: bool
    is_atomistic: bool
    is_autodual: bool
    witnesses: dict

    def flags(self) -> dict[str, bool]:
        """Every flag, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "witnesses"}


def _cached(l: Lattice, key: str, compute):
    if key not in l._cache:
        l._cache[key] = compute()
    return l._cache[key]


def _names(l: Lattice, *idx) -> tuple[str, ...]:
    return tuple(l.poset.elements[i] for i in idx)


def _semimodular_witness(l: Lattice, upper: bool):
    """Upper: if x and y both cover x ^ y, x v y covers both; lower is the
    dual.  Distinct upper covers of m meet in m, so only pairs of covers of
    one element can fail; the first witness is the smallest failing pair."""
    p = l.poset
    covers, table = (p._cov_up, l._join) if upper else (p._cov_down, l._meet)
    back = [set(c) for c in (p._cov_down if upper else p._cov_up)]
    fails = [(x, y) for cs in covers for x, y in itertools.combinations(cs, 2)
             if not back[table[x][y]] >= {x, y}]
    return _names(l, *min(fails)) if fails else None


def is_upper_semimodular(l: Lattice) -> bool:
    return _witness(l, "is_upper_semimodular") is None


def is_lower_semimodular(l: Lattice) -> bool:
    return _witness(l, "is_lower_semimodular") is None


def _distributive_witness(l: Lattice):
    """Birkhoff: L is distributive iff eta(x v y) = eta(x) | eta(y) for every
    pair, eta(x) being the bitset of join-irreducibles below x.  On failure,
    the first triple (x, y, z) in input order breaking
    (x v y) ^ z = (x ^ z) v (y ^ z).

    A pair (x, y) has such a z exactly when it fails Birkhoff's test (a
    join-irreducible in the difference is one), and the first failing pair
    over all ordered pairs has x < y, so the scan below finds it."""
    p = l.poset
    n = len(p)
    join_t, meet_t = l._join, l._meet
    irr = sum(1 << i for i in range(n) if len(p._cov_down[i]) == 1)
    eta_mask = [d & irr for d in p._down]
    for x, join_x in enumerate(join_t):
        for y in range(x + 1, n):
            if eta_mask[join_x[y]] != eta_mask[x] | eta_mask[y]:
                meet_xy, meet_x, meet_y = meet_t[join_x[y]], meet_t[x], meet_t[y]
                z = next(z for z in range(n) if meet_xy[z] != join_t[meet_x[z]][meet_y[z]])
                return _names(l, x, y, z)
    return None


def is_distributive(l: Lattice) -> bool:
    return _witness(l, "is_distributive") is None


def _locally_distributive_witness(l: Lattice, upper: bool):
    """Lower: the first x whose interval [x⁻, x] is not Boolean (Monjardet
    1985; Edelman 1980); upper: the dual, with [x, x⁺].  Run only on lower
    (upper) semimodular lattices, where the interval is Boolean iff it has
    2^k elements, k the number of lower (upper) covers of x."""
    if is_distributive(l):
        return None
    p = l.poset
    inside, outside = (p._up, p._down) if upper else (p._down, p._up)
    for x, covers in enumerate(p._cov_up if upper else p._cov_down):
        if (inside[x] & outside[_cover_bound(l, x, upper)]).bit_count() != 1 << len(covers):
            return _names(l, x)
    return None


def is_lower_locally_distributive(l: Lattice) -> bool:
    return _witness(l, "is_lower_locally_distributive") is None


def is_upper_locally_distributive(l: Lattice) -> bool:
    return _witness(l, "is_upper_locally_distributive") is None


def _complement_witness(l: Lattice):
    p = l.poset
    bottom, top = p.index_of(l.bottom), p.index_of(l.top)
    for x, (meet_x, join_x) in enumerate(zip(l._meet, l._join)):
        if not any(m == bottom and j == top for m, j in zip(meet_x, join_x)):
            return _names(l, x)
    return None


def _atomistic_witness(l: Lattice):
    for j in l.joinirr:
        if l.heights[j] != 1:
            return (j,)
    return None


def _linear_witness(l: Lattice):
    for x, join_x in enumerate(l._join):
        for y in range(x + 1, len(join_x)):
            if join_x[y] != x and join_x[y] != y:
                return _names(l, x, y)
    return None


def _ranked_witness(l: Lattice):
    h = l._h
    for a, ups in enumerate(l.poset._cov_up):
        for b in ups:
            if h[b] != h[a] + 1:
                return _names(l, a, b)
    return None


_WITNESSES = {
    "is_linear": _linear_witness,
    "is_ranked": _ranked_witness,
    "is_lower_semimodular": lambda l: _semimodular_witness(l, False),
    "is_upper_semimodular": lambda l: _semimodular_witness(l, True),
    "is_modular": lambda l: (_witness(l, "is_lower_semimodular")
                             or _witness(l, "is_upper_semimodular")),
    "is_distributive": _distributive_witness,
    "is_lower_locally_distributive": lambda l: (
        _witness(l, "is_lower_semimodular") or _locally_distributive_witness(l, False)),
    "is_upper_locally_distributive": lambda l: (
        _witness(l, "is_upper_semimodular") or _locally_distributive_witness(l, True)),
    "is_complemented": _complement_witness,
    "is_atomistic": _atomistic_witness,
}


def _witness(l: Lattice, flag: str):
    """The witness of one structural flag, cached on the lattice."""
    return _cached(l, flag, lambda: _WITNESSES[flag](l))


def profile(l: Lattice) -> StructureProfile:
    """Decide every structural flag, collecting counterexample witnesses."""
    def compute():
        from .duality import find_negations  # deferred: duality imports this module

        found = {flag: _witness(l, flag) for flag in _WITNESSES}
        return StructureProfile(
            is_lattice=True,
            is_autodual=bool(find_negations(l, limit=1)),
            witnesses={flag: w for flag, w in found.items() if w is not None},
            **{flag: w is None for flag, w in found.items()},
        )

    return _cached(l, "profile", compute)


# -- downsets and chains -------------------------------------------------------

@dataclass(frozen=True)
class DownsetLattice:
    """Lattice of all downsets of a poset, ordered by inclusion.

    ``downset`` maps each lattice element name back to the underlying set of
    poset elements; ``principal`` maps each poset element j to the lattice
    element holding its principal downset (these are exactly the
    join-irreducibles of the lattice).
    """

    lattice: Lattice
    downset: dict
    principal: dict


def downset_lattice(p: Poset, *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> DownsetLattice:
    """All downsets of ``p`` ordered by inclusion; join is union, meet is
    intersection.  Elements are named by their member sets, e.g. ``{a,b}``.
    Raises SizeLimitExceeded as soon as there are more than ``max_elements``
    downsets, the element cap of any lattice."""
    n = len(p)
    strict = [d ^ (1 << i) for i, d in enumerate(p._down)]

    seen = {0}
    frontier = [0]
    grow = {}  # per downset, the elements outside it whose strict lower set lies inside
    while frontier:
        d = frontier.pop()
        grow[d] = [i for i in range(n) if not d >> i & 1 and strict[i] & d == strict[i]]
        for i in grow[d]:
            nd = d | 1 << i
            if nd not in seen:
                seen.add(nd)
                if len(seen) > max_elements:
                    raise SizeLimitExceeded(
                        f"more than {max_elements} downsets exceed the configured cap "
                        f"of {max_elements} elements"
                    )
                frontier.append(nd)

    members = {d: _indices(d) for d in seen}
    downsets = sorted(seen, key=lambda d: (len(members[d]), members[d]))
    name = {d: "{" + ",".join(p.elements[i] for i in members[d]) + "}" for d in downsets}
    names = [name[d] for d in downsets]
    covers = [(name[d], name[d | 1 << i]) for d in downsets for i in grow[d]]
    lat = Lattice(Poset(names, covers, max_elements=max_elements))
    back = {name[d]: frozenset(p.elements[i] for i in members[d]) for d in downsets}
    principal = {x: name[p._down[i]] for i, x in enumerate(p.elements)}
    return DownsetLattice(lattice=lat, downset=back, principal=principal)


def boolean_lattice(atom_names) -> Lattice:
    """The lattice of all subsets of the given atoms (downsets of an antichain)."""
    return downset_lattice(Poset(list(atom_names), [])).lattice


def maximal_chains(l: Lattice, *, max_chains: int = DEFAULT_MAX_CHAINS) -> list[tuple[str, ...]]:
    """All maximal chains from bottom to top, each as an ordered element tuple."""
    p = l.poset
    out: list[tuple[str, ...]] = []
    stack = [(l.bottom, (l.bottom,))]
    while stack:
        x, path = stack.pop()
        if x == l.top:
            out.append(path)
            if len(out) > max_chains:
                raise SizeLimitExceeded(f"more than {max_chains} maximal chains")
            continue
        for nxt in reversed(p.covered_by(x)):
            stack.append((nxt, path + (nxt,)))
    return out


def dual_lattice(l: Lattice) -> Lattice:
    """The same elements with all covers reversed."""
    return Lattice(l.poset.dual())
