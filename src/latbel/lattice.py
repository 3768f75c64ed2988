"""Finite posets and lattices presented by cover relations.

A structure is declared by its elements and its covering relation:
``(x, y)`` means y covers x, exactly the edges of a Hasse diagram.  The
order itself is the reflexive-transitive closure of the covers.

Elements are numbered once, at the name edge, along a linear extension:
the declared order wherever it is one, else the extension that takes the
lowest free declared index first.  ``elements`` and every enumeration in
this package follow that numbering, so a lattice's bottom is element 0 and
its top element n - 1.  A set of elements is a Python int used as a bitset,
bit i standing for element i (the encoding of Ait-Kaci, Boyer, Lincoln &
Nasr, "Efficient implementation of lattice operations", TOPLAS 1989).
Element names appear only at the API edge: they are parsed once, and
derived structures reach the order core as indices.  A lattice answers a
meet or a join from the highest set bit of an intersection of down-sets or
of bit-reversed up-sets: it builds no join or meet table, and recognising
it checks only the joins that can be missing.  Only a poset
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
import math
import warnings
from collections import namedtuple
from collections.abc import Mapping

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

# The caps and defaults of every layer, here in the module they all import,
# so that the command line reads them without loading the layers.
DEFAULT_MAX_ELEMENTS = 4096
DEFAULT_MAX_CHAINS = 10**6
DEFAULT_MAX_FAMILIES = 10**7  # k-families built by a k-monotonicity check
DEFAULT_TOL = 1e-9
COMBINE_POLICIES = ("raw", "zero-bottom", "normalize")  # of evidence.combine


def _require_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")


_BYTE_OF_DIGIT = bytes.maketrans(b"01", b"\0\1")


def _indices(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    selectors = bin(mask)[:1:-1].encode().translate(_BYTE_OF_DIGIT)  # lowest bit first
    return list(itertools.compress(itertools.count(), selectors))


class Poset:
    """A finite partially ordered set built from its covering relation.

    The closure reads the covers off the input edges as it runs: duplicate
    pairs are dropped, and transitive ones with a :class:`RedundantCovers`
    warning, so ``covers`` is always the irredundant covering relation of
    the closure.  ``_down[i]`` and ``_up[i]`` are the bitsets of the
    elements below and above element i.  ``elements`` is numbered along a
    linear extension (see the module docstring), so ``_down[i]``'s highest
    bit and ``_up[i]``'s lowest are i itself.
    """

    __slots__ = ("elements", "covers", "_index", "_down", "_up", "_cov_down", "_cov_up")

    def __init__(self, elements, covers, *, max_elements: int = DEFAULT_MAX_ELEMENTS):
        names = list(elements)
        index = _name_index(names, max_elements)
        self._build(names, index, _successors(list(covers), index))

    def _build(self, names, index: dict[str, int], succ: list[list[int]]) -> "Poset":
        """The order core, on checked names and ascending successor lists
        without self-loops; every constructor here ends in it.  Where the
        names are not declared along a linear extension they are renumbered
        first, so every index below is a position in one."""
        pred = [[] for _ in succ]
        for a, ups in enumerate(succ):
            for b in ups:
                pred[b].append(a)
        if any(ups and ups[0] < a for a, ups in enumerate(succ)):  # an edge descends
            names, succ, pred = _along_extension(names, succ, pred)
            index = dict(zip(names, itertools.count()))
        n = len(names)
        # An edge a -> b is a cover iff a lies in no strict down-set of b's
        # predecessors, so b's covers are the bits of its strict down-set
        # outside the union of theirs.
        down, strict, kept = [0] * n, [0] * n, {}  # kept: i's covers, where not all of pred[i]
        for i in range(n):
            below = union = 0
            for p in pred[i]:
                below |= down[p]
                union |= strict[p]
            if (below ^ union).bit_count() != len(pred[i]):  # a predecessor lies below another
                kept[i] = below ^ union
            strict[i], down[i] = below, below | 1 << i
        cov_down, cov_up = pred, succ
        if kept:
            cov_down = [_indices(kept[i]) if i in kept else c for i, c in enumerate(pred)]
            cov_up = [[b for b in ups if kept.get(b, -1) >> a & 1] for a, ups in enumerate(succ)]
            dropped = ", ".join(f"({names[a]}, {names[b]})" for a, ups in enumerate(succ)
                                for b in ups if b not in cov_up[a])
            warnings.warn(f"dropped redundant cover pairs: {dropped}", RedundantCovers)
        self.elements: tuple[str, ...] = tuple(names)
        self.covers: tuple[tuple[str, str], ...] = tuple(
            (names[a], names[b]) for a, ups in enumerate(cov_up) for b in ups)
        self._index, self._down, self._cov_down, self._cov_up = index, down, cov_down, cov_up
        self._up = _unions(range(n - 1, -1, -1), cov_up, [1 << i for i in range(n - 1, -1, -1)])
        return self

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
        """Elements covering x, in element order."""
        return tuple(self.elements[i] for i in self._cov_up[self.index_of(x)])

    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(x for i, x in enumerate(self.elements) if not self._cov_down[i])

    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(x for i, x in enumerate(self.elements) if not self._cov_up[i])

    def dual(self) -> "Poset":
        """Same elements with the order reversed, renumbered along it."""
        return Poset.__new__(Poset)._build(self.elements, self._index, self._cov_down)

    def restrict(self, keep) -> "Poset":
        """Induced subposet on ``keep`` (ordered as in the parent)."""
        sub = sorted({self.index_of(x) for x in set(keep)})
        mask, at = sum(1 << a for a in sub), dict(zip(sub, itertools.count()))
        # a -> b is a cover iff no kept element lies strictly between them
        succ = [[at[b] for b in _indices(self._up[a] & mask ^ 1 << a)
                 if self._up[a] & self._down[b] & mask == (1 << a) | (1 << b)] for a in sub]
        names = [self.elements[i] for i in sub]
        return Poset.__new__(Poset)._build(names, _name_index(names, len(self)), succ)


def _name_index(names: list, cap: int) -> dict[str, int]:
    """Each name's declared index; refuses an empty list or one over ``cap``,
    then the first bad or repeated name."""
    if not names:
        raise InvalidElementName("a poset needs at least one element")
    if len(names) > cap:
        raise SizeLimitExceeded(f"{len(names)} elements exceed the configured cap of {cap}")
    index: dict[str, int] = {}
    for name in names:
        if not isinstance(name, str) or name.split() != [name]:  # empty or spaced
            raise InvalidElementName(f"bad element name: {name!r}")
        if name in index:
            raise DuplicateElement(name)
        index[name] = len(index)
    return index


def _successors(covers: list, index: dict[str, int]) -> list[list[int]]:
    """The cover pairs as ascending successor lists, mapped all at once; read
    one by one, naming the first bad pair, only when that fails or gives a
    self-loop, or a pair is not a tuple or list (it may read only once)."""
    succ = [[] for _ in index]
    try:
        if {*map(type, covers)} <= {tuple, list}:
            for a, b in {(index[lo], index[up]) for lo, up in covers}:
                succ[a].append(b)
            if not any(map(list.__contains__, succ, itertools.count())):
                for ups in succ:
                    ups.sort()
                return succ
    except (KeyError, TypeError, ValueError):
        pass
    checked = []
    for lo, up in covers:
        for name in (lo, up):
            if not isinstance(name, str):
                raise InvalidElementName(f"bad element name: {name!r}")
            if name not in index:
                raise UnknownElement(name)
        if lo == up:
            raise CycleDetected((lo,))
        checked.append((lo, up))
    return _successors(checked, index)  # every pair good, now as tuples


def _unions(seq, adj, bits) -> list[int]:
    """Along ``seq``, each element's entry of ``bits`` OR the sets of its
    ``adj`` (earlier in ``seq``); a reduce's set-up outweighs the few covers."""
    out = [0] * len(adj)
    for i, acc in zip(seq, bits):
        for c in adj[i]:
            acc |= out[c]
        out[i] = acc
    return out


def _longest(seq, adj) -> list[int]:
    """Along ``seq``, each element's longest path over ``adj`` edges (later in ``seq``)."""
    out = [0] * len(adj)
    for i in seq:
        step = out[i] + 1
        for c in adj[i]:
            if out[c] < step:
                out[c] = step
    return out


def _along_extension(names: list, succ: list[list[int]], pred: list[list[int]]):
    """The names and the successor and predecessor lists renumbered along
    the linear extension that takes the lowest free declared index first;
    raises :class:`CycleDetected` when there is none."""
    n, indeg = len(names), [len(p) for p in pred]
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
    place = sorted(range(n), key=topo.__getitem__)  # each declared index's new one
    return ([names[i] for i in topo], [sorted(place[b] for b in succ[i]) for i in topo],
            [sorted(place[a] for a in pred[i]) for i in topo])


def build_poset(elements, covers, *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Poset:
    """Build a poset from declared elements and cover pairs ``(lower, upper)``."""
    return Poset(elements, covers, max_elements=max_elements)


class Lattice(Poset):
    """A finite lattice: a poset whose binary join and meet are total.

    Shares the arrays of ``poset``, which it keeps.  Raises
    :class:`NotALattice` otherwise, naming the first pair in element order
    without a join or a meet.  ``_pup[i]`` holds element i's up-set a second
    time, with bit n - 1 - j standing for element j.  Elements being numbered
    along a linear extension, x ^ y is the highest set bit of
    ``_down[x] & _down[y]``, and x v y is n less the bit length of
    ``_pup[x] & _pup[y]``.  No join or meet table is ever filled.  The
    transforms keep no member lists either: each set sum, in bit order,
    continues the sum of a cover holding its first bits, so a chain declared
    in any order sums each set in one addition (see ``transforms._steps``).
    """

    __slots__ = ("poset", "bottom", "top", "joinirr", "meetirr",
                 "_pup", "_jmask", "_mmask", "_h", "_coh", "_cache")

    def __init__(self, poset: Poset):
        for slot in Poset.__slots__:  # taken over: rebuilding would redo the closure
            setattr(self, slot, getattr(poset, slot))
        self.poset = poset
        n = len(self)
        self._pup = _unions(range(n - 1, -1, -1), self._cov_up, [1 << i for i in range(n)])
        # With a unique minimal element, P is a lattice iff every pair has a join.
        one_minimal = sum(not c for c in self._cov_down) == 1
        if not (one_minimal and _joins_total(self._cov_down, self._up, self._pup)):
            raise _first_failing_pair(poset)

        self.bottom, self.top = self.elements[0], self.elements[-1]
        self._jmask = sum(1 << i for i, c in enumerate(self._cov_down) if len(c) == 1)
        self._mmask = sum(1 << i for i, c in enumerate(self._cov_up) if len(c) == 1)
        self.joinirr = _names(self, *_indices(self._jmask))
        self.meetirr = _names(self, *_indices(self._mmask))

        # Heights relax up the covers and coheights down them: along the linear
        # extension (its reverse) each value is final before its covers read it.
        self._h = _longest(range(n), self._cov_up)
        self._coh = _longest(range(n - 1, -1, -1), self._cov_down)
        self._cache = {}

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


def _joins_total(lower, up, pup) -> bool:
    """Whether every pair of a poset with one minimal element has a join.

    Filling a join table up the elements, as the ``columns`` oracle in
    ``tests/test_oracles.py`` does, can miss a join only at a y with a
    single lower cover c, for a z >= c not above y: there
    ``pup[z] & pup[y]`` must be the up-set of the element at its highest bit.
    """
    for y, below in enumerate(lower):
        if len(below) == 1:
            rest = up[below[0]] & ~up[y]
            rest &= rest - 1  # c itself, the lowest bit, joins y to y
            if rest:  # as at every element of a chain, nothing to read
                up_y = pup[y]
                for z in _indices(rest):
                    ub = pup[z] & up_y
                    if pup[-ub.bit_length()] != ub:  # empty: pup[0] is the bottom's, all bits
                        return False
    return True


def _join_index(l: Lattice, x: int, y: int) -> int:
    """Index of x v y: n less the bit length of ``_pup[x] & _pup[y]``."""
    return len(l._pup) - (l._pup[x] & l._pup[y]).bit_length()


def _meet_index(l: Lattice, x: int, y: int) -> int:
    """Index of x ^ y: the highest set bit of ``_down[x] & _down[y]``."""
    return (l._down[x] & l._down[y]).bit_length() - 1


def _first_failing_pair(poset: Poset) -> NotALattice:
    """The error naming the first pair in element order without a join or a
    meet (a comparable pair has both, so only incomparable pairs are read;
    for why a meet can only lack a lower bound, see :class:`NotALattice`)."""
    names, up, down = poset.elements, poset._up, poset._down
    ups, every = set(up), (1 << len(names)) - 1
    for i in range(len(names)):
        for j in _indices((every ^ (up[i] | down[i])) >> i + 1 << i + 1):
            ub = up[i] & up[j]
            if ub not in ups:
                return NotALattice(names[i], names[j],
                                   "no-least-upper-bound" if ub else "no-upper-bound")
            if not down[i] & down[j]:
                return NotALattice(names[i], names[j], "no-lower-bound")


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
# counterexample in element order.  The cheapest criterion decides the property;
# the canonical search for the first witness runs only when it fails.  One
# table, _WITNESSES, keyed by flag name, drives the profile, the is_*
# predicates and the per-lattice cache; its order is the witness order.

class StructureProfile(namedtuple("StructureProfile", [
        "is_lattice", "is_linear", "is_ranked", "is_modular", "is_lower_semimodular",
        "is_upper_semimodular", "is_distributive", "is_lower_locally_distributive",
        "is_upper_locally_distributive", "is_complemented", "is_atomistic", "is_autodual",
        "witnesses"])):
    """Structural flags of a lattice, with a counterexample for each false flag
    where one exists (existential failures such as autoduality carry none)."""

    __slots__ = ()

    def flags(self) -> dict[str, bool]:
        """Every flag, in declaration order."""
        return dict(zip(self._fields[:-1], self))


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
    one element can fail; the first witness is the smallest failing pair.

    The covers decide.  For x covering m and another upper cover y of m,
    x v y covers x iff y lies below an upper cover of x (then x v y is that
    cover; conversely y <= x v y).  So L is upper semimodular iff, for every
    cover m < x, each upper cover of m lies in R(x), x with the down-sets of
    its upper covers; lower is the dual, with up-sets and lower covers.
    This costs one union per element and one test per cover.  A pair fails
    iff one of its members misses the other's R, so the first witness is the
    least such pair, ordered."""
    covers, back, sets = ((l._cov_up, l._cov_down, l._down) if upper
                          else (l._cov_down, l._cov_up, l._up))
    fan = [sum(1 << c for c in cs) for cs in covers]  # each element's covers, as a bitset
    beyond = [~functools.reduce(int.__or__, map(sets.__getitem__, cs), 1 << x)
              for x, cs in enumerate(covers)]  # the complement of each R(x)
    fails = [(min(x, y), max(x, y)) for x, ms in enumerate(back) for m in ms
             if (missed := fan[m] & beyond[x]) for y in _indices(missed)]
    return _names(l, *min(fails)) if fails else None


def is_upper_semimodular(l: Lattice) -> bool:
    return _witness(l, "is_upper_semimodular") is None


def is_lower_semimodular(l: Lattice) -> bool:
    return _witness(l, "is_lower_semimodular") is None


def _distributive_witness(l: Lattice):
    """The first triple (x, y, z) in element order breaking
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
    each the lowest bit of its ``_down`` (``_pup``) bitsets."""
    pairs = list(zip(l._down, l._pup))
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
    """The first incomparable pair, in element order."""
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

DownsetLattice = namedtuple("DownsetLattice", "lattice downset principal")
DownsetLattice.__doc__ = """Lattice of all downsets of a poset, ordered by inclusion.

``downset`` maps each lattice element name back to the underlying set of
poset elements; ``principal`` maps each poset element j to the lattice
element holding its principal downset (these are exactly the
join-irreducibles of the lattice).
"""


def downset_lattice(p: Poset, *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> DownsetLattice:
    """All downsets of ``p`` ordered by inclusion; join is union, meet is
    intersection.  Elements are named by their member sets, e.g. ``{a,b}``.
    Raises SizeLimitExceeded as soon as there are more than ``max_elements``
    downsets, the element cap of any lattice.  What can be added to D + {i}
    is what could be added to D, less i, plus each upper cover of i whose
    down-set is now inside.  No name pairs are built: each downset is named
    once, for the API (names holding commas can collide, so they are
    checked), and its covers go to the order core as indices."""
    addable = {0: sum(1 << i for i, c in enumerate(p._cov_down) if not c)}  # per downset
    steps, members = {}, {0: []}  # addable and member indices, as ascending lists
    frontier = [0]
    while frontier:
        d = frontier.pop()
        steps[d] = _indices(addable[d])
        for i in steps[d]:
            nd = d | 1 << i
            if nd not in addable:
                grow = addable[d] ^ 1 << i
                for j in p._cov_up[i]:
                    if p._down[j] | nd == nd | 1 << j:
                        grow |= 1 << j
                addable[nd], members[nd] = grow, sorted([*members[d], i])
                if len(addable) > max_elements:
                    raise SizeLimitExceeded(
                        f"more than {max_elements} downsets exceed the configured cap "
                        f"of {max_elements} elements"
                    )
                frontier.append(nd)

    # by size, then by member list: the second sort is stable
    downsets = sorted(sorted(steps, key=members.__getitem__), key=int.bit_count)
    at = dict(zip(downsets, itertools.count()))
    labels = [tuple(map(p.elements.__getitem__, members[d])) for d in downsets]
    names = ["{" + ",".join(x) + "}" for x in labels]
    succ = [[at[d | 1 << i] for i in steps[d]] for d in downsets]
    lat = Lattice(Poset.__new__(Poset)._build(names, _name_index(names, max_elements), succ))
    back = dict(zip(names, map(frozenset, labels)))
    principal = {x: names[at[d]] for x, d in zip(p.elements, p._down)}
    return DownsetLattice(lattice=lat, downset=_ReadOnly(back), principal=_ReadOnly(principal))


def boolean_lattice(atom_names) -> Lattice:
    """The lattice of all subsets of the given atoms (downsets of an antichain)."""
    return downset_lattice(Poset(list(atom_names), [])).lattice


def maximal_chains(l: Lattice, *, max_chains: int = DEFAULT_MAX_CHAINS) -> list[tuple[str, ...]]:
    """All maximal chains from bottom to top, as element tuples (see :func:`_chains`)."""
    return list(_chains(l, max_chains))


def _chains(l: Lattice, max_chains: int):
    """Yield the maximal chains, lowest covers first, refusing over ``max_chains``
    before yielding any: their number is counted first, by :func:`_count_chains`."""
    count = _count_chains(l)
    if count > max_chains:
        raise SizeLimitExceeded(f"{count} maximal chains exceed the cap of {max_chains}; "
                                "raise it with --limit")
    cov_up, top, named = l._cov_up, len(l) - 1, [(x,) for x in l.elements]
    stack = [(named[0], 0)]  # name paths up from bottom, with the index they end at
    pop, push = stack.pop, stack.append
    while stack:
        path, x = pop()
        if x == top:
            yield path
        else:
            for c in reversed(cov_up[x]):
                push((path + named[c], c))


def _count_chains(l: Lattice) -> int:
    """The number of maximal chains, in one pass up the elements: the paths
    up from bottom to an element are the paths to its lower covers."""
    paths = [1] * len(l)  # bottom's, the only element with no lower cover
    for x, below in enumerate(l._cov_down):
        if below:
            paths[x] = sum(map(paths.__getitem__, below))
    return paths[-1]


def dual_lattice(l: Lattice) -> Lattice:
    """The same elements with all covers reversed."""
    return Lattice(l.dual())
