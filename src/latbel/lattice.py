"""Finite posets and lattices presented by cover relations.

A structure is declared by its elements (in a fixed input order that every
enumeration in this package follows) and its covering relation: ``(x, y)``
means y covers x, exactly the edges of a Hasse diagram.  The order itself is
the reflexive-transitive closure of the covers.

Internally an element is its input index and a set of elements is a Python
int used as a bitset, bit i standing for element i (the encoding of
Ait-Kaci, Boyer, Lincoln & Nasr, "Efficient implementation of lattice
operations", TOPLAS 1989).  Element names appear only at the API edge.
A lattice keeps each up-set and down-set a second time, over positions in
a linear extension and its reverse, and answers a join or a meet from the
highest set bit of an intersection: it builds no join or meet table, and
recognising it checks only the joins that can be missing.  Only a poset
found not to be a lattice is scanned pair by pair, to name its first pair
without a join or a meet.  A Lattice is a Poset that takes over the arrays
of the poset it is built from by reference, so the order queries are the
poset's own; ``dual`` and ``restrict`` on a lattice give posets.

Poset and Lattice are immutable once built, except that ``Lattice._cache``
is filled lazily with derived results such as the structural profile, the
Moebius coefficients and the summation steps of the transforms (one per
element and side, gathering only the elements its prefix cover's set
lacks), each fixed by the lattice alone, so the cache does not grow with
the inputs of later calls.  Instances can be shared between threads: a
concurrent first call may compute such a result twice, and the second
store only replaces it with an equal value.  Construction is
single-threaded.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, fields
from operator import or_

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
    ``_order`` is the linear extension that takes the lowest free input
    index first: the identity wherever input order is itself one.
    """

    __slots__ = ("elements", "covers", "_index", "_down", "_up", "_cov_down", "_cov_up", "_order")

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

        self._order = topo = _topological_order(n, succ, pred, names)

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
    free = [i for i in range(n) if indeg[i] == 0]  # ascending, so already a heap
    topo = []
    while free:
        i = heapq.heappop(free)
        topo.append(i)
        for s in succ[i]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(free, s)
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


class Lattice(Poset):
    """A finite lattice: a poset whose binary join and meet are total.

    Shares the arrays of ``poset``, which it keeps.  Raises
    :class:`NotALattice` otherwise, naming the first pair in input order
    without a join or a meet.  ``_pdown[i]`` holds element i's down-set a
    second time, as a bitset over positions in the poset's linear
    extension ``_order``, and ``_pup[i]`` its up-set over positions in the
    reversed extension (the dual's down-set).  So x ^ y is the element at the
    highest set bit of ``_pdown[x] & _pdown[y]``, and x v y the one at the
    highest set bit of ``_pup[x] & _pup[y]``, counted from the end of
    ``_order``.  No join or meet table is ever filled.  The
    transforms keep no member lists either: each set sum, in the order of
    these bitsets, continues the sum of a cover holding its first positions,
    so a chain declared in any order sums each set in one addition (see
    ``transforms._steps``).
    """

    __slots__ = ("poset", "bottom", "top", "joinirr", "meetirr",
                 "_pup", "_pdown", "_jmask", "_mmask", "_h", "_coh", "_cache")

    def __init__(self, poset: Poset):
        for slot in Poset.__slots__:  # taken over: rebuilding would redo the closure
            setattr(self, slot, getattr(poset, slot))
        self.poset = poset
        n, order = len(self), self._order
        pdown, pup = [0] * n, [0] * n
        for p, i in enumerate(order):
            pdown[i] = functools.reduce(or_, map(pdown.__getitem__, self._cov_down[i]), 1 << p)
        for p, i in enumerate(reversed(order)):
            pup[i] = functools.reduce(or_, map(pup.__getitem__, self._cov_up[i]), 1 << p)
        self._pdown, self._pup = pdown, pup
        # With a unique minimal element, P is a lattice iff every pair has a join.
        one_minimal = sum(not c for c in self._cov_down) == 1
        if not (one_minimal and _joins_total(order, self._cov_down, pup)):
            raise _first_failing_pair(poset)

        self.bottom, self.top = self.elements[order[0]], self.elements[order[-1]]
        self._jmask = sum(1 << i for i, c in enumerate(self._cov_down) if len(c) == 1)
        self._mmask = sum(1 << i for i, c in enumerate(self._cov_up) if len(c) == 1)
        self.joinirr = _names(self, *_indices(self._jmask))
        self.meetirr = _names(self, *_indices(self._mmask))

        h = [0] * n
        for i in order:
            h[i] = 1 + max(map(h.__getitem__, self._cov_down[i]), default=-1)
        coh = [0] * n
        for i in reversed(order):
            coh[i] = 1 + max(map(coh.__getitem__, self._cov_up[i]), default=-1)
        self._h = h
        self._coh = coh
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"Lattice({len(self)} elements, bottom={self.bottom!r}, top={self.top!r})"

    def join(self, x: str, y: str) -> str:
        return self.elements[_join_index(self, self.index_of(x), self.index_of(y))]

    def meet(self, x: str, y: str) -> str:
        return self.elements[_meet_index(self, self.index_of(x), self.index_of(y))]

    @property
    def heights(self) -> dict[str, int]:
        """A new dict from each element to its height."""
        return dict(zip(self.elements, self._h))

    @property
    def atoms(self) -> tuple[str, ...]:
        return _names(self, *(i for i in _indices(self._jmask) if self._h[i] == 1))

    def height(self, x: str) -> int:
        return self._h[self.index_of(x)]

    def coheight(self, x: str) -> int:
        """Length of a longest chain from x up to the top."""
        return self._coh[self.index_of(x)]


def _joins_total(order, lower, pup) -> bool:
    """Whether every pair of a poset with one minimal element has a join.

    Filling a join table along ``order``, as the ``columns`` oracle in
    ``tests/test_oracles.py`` does, can miss a join only at a y with a
    single lower cover c, for a z >= c not above y: there
    ``pup[z] & pup[y]`` must be the up-set of the element at its highest bit.
    """
    up_at = [pup[i] for i in reversed(order)]  # by bit
    for y, below in enumerate(lower):
        if len(below) == 1:
            up_y = pup[y]
            rest = pup[below[0]] & ~up_y
            rest ^= 1 << rest.bit_length() - 1  # c itself, the highest bit, joins y to y
            for z in _indices(rest):
                ub = up_at[z] & up_y
                if up_at[ub.bit_length() - 1] != ub:  # also when ub is empty
                    return False
    return True


def _join_index(l: Lattice, x: int, y: int) -> int:
    """Index of x v y: the element at the highest set bit of the
    intersection of their position up-sets, counted from the end."""
    return l._order[-(l._pup[x] & l._pup[y]).bit_length()]


def _meet_index(l: Lattice, x: int, y: int) -> int:
    """Index of x ^ y: the element at the highest set bit of the
    intersection of their position down-sets."""
    return l._order[(l._pdown[x] & l._pdown[y]).bit_length() - 1]


def _first_failing_pair(poset: Poset) -> NotALattice:
    """The error naming the first pair in input order without a join or a
    meet (a comparable pair has both, so only incomparable pairs are read)."""
    names, up, down = poset.elements, poset._up, poset._down
    ups, downs, every = set(up), set(down), (1 << len(names)) - 1
    for i in range(len(names)):
        for j in _indices((every ^ (up[i] | down[i])) >> i + 1 << i + 1):
            ub = up[i] & up[j]
            if ub not in ups:
                return NotALattice(names[i], names[j],
                                   "no-least-upper-bound" if ub else "no-upper-bound")
            lb = down[i] & down[j]
            if lb not in downs:
                return NotALattice(names[i], names[j],
                                   "no-greatest-lower-bound" if lb else "no-lower-bound")


def lattice_from_poset(p: Poset) -> Lattice:
    """Check that ``p`` carries total join/meet and build its Lattice."""
    return Lattice(p)


def join(l: Lattice, xs) -> str:
    """Join of a nonempty collection of elements."""
    return _fold(l, xs, _join_index)


def meet(l: Lattice, xs) -> str:
    """Meet of a nonempty collection of elements."""
    return _fold(l, xs, _meet_index)


def _fold(l, xs, op):
    items = {l.index_of(x) for x in xs}
    if not items:
        raise ValueError("join/meet of an empty collection")
    return l.elements[functools.reduce(functools.partial(op, l), items)]


# -- irreducible decompositions ----------------------------------------------

def eta(l: Lattice, x: str) -> frozenset[str]:
    """Normal decomposition: all join-irreducibles <= x."""
    return frozenset(_names(l, *_indices(l._down[l.index_of(x)] & l._jmask)))


def mu_set(l: Lattice, x: str) -> frozenset[str]:
    """All meet-irreducibles >= x."""
    return frozenset(_names(l, *_indices(l._up[l.index_of(x)] & l._mmask)))


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
    i = l.index_of(x)
    sets, irr = (l._up, l._mmask) if upper else (l._down, l._jmask)
    return frozenset(_names(l, *_indices(sets[i] & ~sets[_cover_bound(l, i, upper)] & irr)))


def _cover_bound(l: Lattice, x: int, upper: bool) -> int:
    """x⁻, the meet of the lower covers of x, or (upper) x⁺, the join of its
    upper covers; x itself when it has none."""
    covers = (l._cov_up if upper else l._cov_down)[x]
    op = functools.partial(_join_index if upper else _meet_index, l)
    return functools.reduce(op, covers, covers[0] if covers else x)


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
    witnesses: Mapping

    def flags(self) -> dict[str, bool]:
        """Every flag, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "witnesses"}


class _ReadOnly(Mapping):
    """A read-only view of a dict that, unlike ``types.MappingProxyType``,
    can be copied and deep-copied."""

    __slots__ = ("_d",)

    def __init__(self, d: dict):
        self._d = d

    def __getitem__(self, key):
        return self._d[key]

    def __iter__(self):
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._d!r})"


def _cached(l: Lattice, key: str, compute):
    if key not in l._cache:
        l._cache[key] = compute()
    return l._cache[key]


def _names(l: Lattice, *idx) -> tuple[str, ...]:
    return tuple(map(l.elements.__getitem__, idx))


def _semimodular_witness(l: Lattice, upper: bool):
    """Upper: if x and y both cover x ^ y, x v y covers both; lower is the
    dual.  Distinct upper covers of m meet in m, so only pairs of covers of
    one element can fail; the first witness is the smallest failing pair."""
    covers, op = (l._cov_up, _join_index) if upper else (l._cov_down, _meet_index)
    back = [set(c) for c in (l._cov_down if upper else l._cov_up)]
    fails = [(x, y) for cs in covers for x, y in itertools.combinations(cs, 2)
             if not back[op(l, x, y)] >= {x, y}]
    return _names(l, *min(fails)) if fails else None


def is_upper_semimodular(l: Lattice) -> bool:
    return _witness(l, "is_upper_semimodular") is None


def is_lower_semimodular(l: Lattice) -> bool:
    return _witness(l, "is_lower_semimodular") is None


def _distributive_witness(l: Lattice):
    """The first triple (x, y, z) in input order breaking
    (x v y) ^ z = (x ^ z) v (y ^ z), or None.  It does not decide the flag
    (the locally distributive witnesses do); it runs only to name a failure.

    A pair (x, y) has such a z exactly when it fails Birkhoff's test
    eta(x v y) = eta(x) | eta(y), eta(x) being the bitset of join-irreducibles
    below x (a join-irreducible in the difference is one), and the first
    failing pair over all ordered pairs has x < y, so the scan below finds it."""
    n = len(l)
    eta_mask = [d & l._jmask for d in l._down]
    join, meet = functools.partial(_join_index, l), functools.partial(_meet_index, l)
    for x, y in itertools.combinations(range(n), 2):
        xy = join(x, y)
        if eta_mask[xy] != eta_mask[x] | eta_mask[y]:
            z = next(z for z in range(n) if meet(xy, z) != join(meet(x, z), meet(y, z)))
            return _names(l, x, y, z)
    return None


def is_distributive(l: Lattice) -> bool:
    return _witness(l, "is_distributive") is None


def _locally_distributive_witness(l: Lattice, upper: bool):
    """Lower: the first x whose interval [x⁻, x] is not Boolean (Monjardet
    1985; Edelman 1980); upper: the dual, with [x, x⁺].  Run only on lower
    (upper) semimodular lattices, where the interval is Boolean iff it has
    2^k elements, k the number of lower (upper) covers of x."""
    inside, outside = (l._up, l._down) if upper else (l._down, l._up)
    for x, covers in enumerate(l._cov_up if upper else l._cov_down):
        if (inside[x] & outside[_cover_bound(l, x, upper)]).bit_count() != 1 << len(covers):
            return _names(l, x)
    return None


def is_lower_locally_distributive(l: Lattice) -> bool:
    return _witness(l, "is_lower_locally_distributive") is None


def is_upper_locally_distributive(l: Lattice) -> bool:
    return _witness(l, "is_upper_locally_distributive") is None


def _complement_witness(l: Lattice):
    """The first x with no y such that x ^ y is bottom and x v y is top,
    each the lowest bit of its position bitsets."""
    pairs = list(zip(l._pdown, l._pup))
    for x, (down_x, up_x) in enumerate(pairs):
        if not any(down_x & d == 1 and up_x & u == 1 for d, u in pairs):
            return _names(l, x)
    return None


def _atomistic_witness(l: Lattice):
    for j in _indices(l._jmask):
        if l._h[j] != 1:
            return _names(l, j)
    return None


def _linear_witness(l: Lattice):
    """The first incomparable pair, in input order."""
    every = (1 << len(l)) - 1
    for x, (down_x, up_x) in enumerate(zip(l._down, l._up)):
        later = (every ^ (down_x | up_x)) >> x + 1
        if later:
            return _names(l, x, x + (later & -later).bit_length())
    return None


def _ranked_witness(l: Lattice):
    h = l._h
    for a, ups in enumerate(l._cov_up):
        for b in ups:
            if h[b] != h[a] + 1:
                return _names(l, a, b)
    return None


_WITNESSES = {
    # a chain: every element but the bottom has exactly one lower cover
    "is_linear": lambda l: (None if l._jmask.bit_count() == len(l) - 1
                            else _linear_witness(l)),
    "is_ranked": _ranked_witness,
    "is_lower_semimodular": lambda l: _semimodular_witness(l, False),
    "is_upper_semimodular": lambda l: _semimodular_witness(l, True),
    "is_modular": lambda l: (_witness(l, "is_lower_semimodular")
                             or _witness(l, "is_upper_semimodular")),
    # distributive iff locally distributive both ways (Dilworth 1940; Monjardet 1985)
    "is_distributive": lambda l: (
        (_witness(l, "is_lower_locally_distributive")
         or _witness(l, "is_upper_locally_distributive")) and _distributive_witness(l)),
    "is_lower_locally_distributive": lambda l: (
        _witness(l, "is_lower_semimodular") or _locally_distributive_witness(l, False)),
    "is_upper_locally_distributive": lambda l: (
        _witness(l, "is_upper_semimodular") or _locally_distributive_witness(l, True)),
    # a distributive lattice is complemented iff it is Boolean, iff atomistic
    "is_complemented": lambda l: (
        (_witness(l, "is_distributive") or _witness(l, "is_atomistic")) and _complement_witness(l)),
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
            witnesses=_ReadOnly({flag: w for flag, w in found.items() if w is not None}),
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
    downset: Mapping
    principal: Mapping


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
    return DownsetLattice(lattice=lat, downset=_ReadOnly(back), principal=_ReadOnly(principal))


def boolean_lattice(atom_names) -> Lattice:
    """The lattice of all subsets of the given atoms (downsets of an antichain)."""
    return downset_lattice(Poset(list(atom_names), [])).lattice


def maximal_chains(l: Lattice, *, max_chains: int = DEFAULT_MAX_CHAINS) -> list[tuple[str, ...]]:
    """All maximal chains from bottom to top, each as an ordered element tuple."""
    cov_up, top = l._cov_up, l._order[-1]
    out: list[tuple[str, ...]] = []
    stack = [(l._order[0],)]  # index paths up from bottom
    while stack:
        path = stack.pop()
        if path[-1] == top:
            out.append(_names(l, *path))
            if len(out) > max_chains:
                raise SizeLimitExceeded(f"more than {max_chains} maximal chains")
            continue
        stack += [path + (c,) for c in reversed(cov_up[path[-1]])]
    return out


def dual_lattice(l: Lattice) -> Lattice:
    """The same elements with all covers reversed."""
    return Lattice(l.dual())
