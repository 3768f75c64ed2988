"""The Moebius function of a lattice and the associated function transforms.

For a function f on the lattice, its Moebius transform is the unique m with
f(x) = sum of m(y) over y <= x; the zeta transform is that summation itself.
The co-Moebius transform of m sums upward instead: q(x) = sum of m(y) over
y >= x.  Both inversions undo their summation step by step (below), so they
need neither the Moebius coefficients nor any matrix.  The coefficients
mu(x, y) themselves, exact integers, are computed on demand by
``mobius_function``, each row x by Rota's crosscut theorem over the set A
of upper covers of x (Rota 1964): mu(x, y) is the sum of (-1)^|S| over the
subsets S of A with x v (join of S) = y.  The row is in closed form where
[x, x+], x+ = x v (join of A), has 2^|A| elements and no a in A lies below
x v (join of A - {a}).  This independence makes S -> x v (join of S)
injective: if S and T have one join and a is in S but not in T, then a
lies below the join of T, within A - {a}.  The 2^|A| joins thus fill
[x, x+], and each y there is the join of exactly the covers below it, so
mu(x, y) = (-1)^(number of covers below y) on [x, x+], and 0 off it, where
no join of covers lies.  All other arithmetic is double precision, on
each function's ``vector`` of values in lattice element order.

On a distributive lattice each transform is one add (or subtract) per
cover (Yates's algorithm on B_n; Bjoerklund, Husfeldt, Kaski, Koivisto,
Nederlof & Parviainen, "Fast zeta transforms for lattices with few
irreducibles", SODA 2012).  A cover x < y adds exactly one join-irreducible
to the set eta(y) of those below y, its label.  The covers of one label
form a pass, and the passes run by ascending label index, a linear
extension of the join-irreducibles J (see :func:`_passes`).  Down sums
(zeta) run the passes in order, g[y] += g[x]; up sums (co-Moebius) run
them reversed, g[x] += g[y]; the down solve (Moebius) runs them reversed,
g[y] -= g[x]; the up solve runs them in order, g[x] -= g[y].  No source of
a pass receives in it, so each pass is undone by subtracting, and the
order within a pass does not matter.  The up sums are the transpose of
the down sums, and the solves their inverses.  Why the down sums are
right: take L as the down-sets of J (Birkhoff) and p_1, p_2, ... the
labels in pass order.  After k passes, g(D) sums m(D') over the down-sets
D' within D with D - D' among p_1..p_k.  Pass k + 1 adds g(D - p),
p = p_(k+1), to g(D) exactly when p is maximal in D (D - p is then a lower
cover of D).  That adds exactly the missing D', those with p in D - D':
anything in D above p is outside the down-set D', so it would be a label
in D - D' after p, of which there is none; so p is maximal in D.

Each value passes through at most |J| additions, so it lies within about
|J| 2^-53 times the sum of the absolute values over its set.  The values
are first added to 0.0, which turns -0.0 into 0.0 and changes no other
float.  In round-to-nearest only -0.0 + -0.0 and -0.0 - 0.0 give -0.0, so
no transform on a distributive lattice gives -0.0.  These floats do not
depend on how ``sum`` rounds, so every CPython version gives the same.

On any other lattice, elements being numbered along a linear extension
(see ``lattice``), each down-set (up-set) is summed left to right from 0
in ascending (descending) index order, and each inversion substitutes
along the extension (upward for Moebius, downward for co-Moebius): m(x)
is its total minus the values already found strictly below (above) x.
The sums share work without changing a bit: where c's set is x's set up
to c, a lower (upper) cover of x, the sum over x's set is the sum over
c's, already computed, continued over the rest (see :func:`_steps`).
CPython's float ``sum`` before 3.12 adds left to right and a running sum
from 0 is never -0.0, so continuing c's total gives the same float as
summing x's whole set, signed zeros included.  Where ``sum`` compensates
its rounding (3.12 on), no sum continues another.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from operator import itemgetter

from .errors import IncompleteFunction, InvalidFunction, UnknownElement
from .lattice import _BYTE_OF_DIGIT, Lattice, _cached, _indices, is_distributive

# Whether ``sum`` adds floats left to right (CPython before 3.12), so that a
# set's sum is its prefix's sum continued over the rest.
_LEFT_TO_RIGHT = sum([1.0, 1e100, 1.0, -1e100]) == 0.0


class _Vector(tuple):
    """Values in lattice element order (a function's floats, a negation's image
    indices): stored, or a result the library built, so neither looked up by
    name nor converted."""

    __slots__ = ()


def _inverse(image) -> _Vector:
    """The inverse of a permutation of the indices: sorting them by image inverts it."""
    return _Vector(sorted(range(len(image)), key=image.__getitem__))


class SetFunction:
    """A total assignment of finite real values to the elements of one lattice,
    stored only as ``vector``, one tuple in lattice element order, and never
    changed; ``values`` returns a new name-to-value dict on each access."""

    __slots__ = ("lattice", "vector")

    def __init__(self, lattice: Lattice, values):
        if isinstance(values, _Vector):  # built by the library, of floats already
            vector = values
        else:
            vals = dict(values)
            extra = [x for x in vals if x not in lattice]
            if extra:
                raise UnknownElement(extra[0])
            missing = [x for x in lattice.elements if x not in vals]
            if missing:
                raise IncompleteFunction(missing)
            try:
                vector = _Vector(map(float, map(vals.__getitem__, lattice.elements)))
            except (TypeError, OverflowError) as exc:
                raise InvalidFunction(f"function values must be finite numbers: {exc}") from None
        if len(vector) != len(lattice):
            raise InvalidFunction(f"{len(vector)} values for {len(lattice)} elements")
        if not math.isfinite(sum(vector)):  # a finite sum has finite terms; scan only if not
            for x, v in zip(lattice.elements, vector):
                if not math.isfinite(v):
                    raise InvalidFunction(f"value of {x!r} is not finite: {v!r}")
        self.lattice = lattice
        self.vector = vector

    @property
    def values(self) -> dict:
        """A new dict of element name to value, in lattice element order."""
        return dict(zip(self.lattice.elements, self.vector))

    def __getitem__(self, x: str) -> float:
        return self.vector[self.lattice.index_of(x)]

    def items(self):
        """(element, value) pairs in lattice element order."""
        return self.values.items()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class MobiusMatrix:
    """The two-variable Moebius function mu(x, y) of a lattice, for x <= y: the
    rows of :func:`_crosscut_rows`, read by key only.  It keeps the poset, not
    the lattice, so caching it on the lattice makes no reference cycle."""

    __slots__ = ("poset", "_rows")

    def __init__(self, lattice: Lattice):
        self.poset = lattice.poset
        self._rows = list(_crosscut_rows(lattice))

    def mu(self, x: str, y: str) -> int:
        p = self.poset
        return self._rows[p.index_of(x)].get(p.index_of(y), 0)


class _BooleanRow(Mapping):
    """A row mu(x, .) on a Boolean interval, read-only: ``inside`` holds the
    interval's elements, ``odd`` those where mu is -1, as bits in element
    order.  It iterates in ascending order, so (x, 1) comes first."""

    __slots__ = ("inside", "odd")

    def __init__(self, inside: int, odd: int):
        self.inside, self.odd = inside, odd

    def get(self, y: int, default=None):
        return (-1 if self.odd >> y & 1 else 1) if self.inside >> y & 1 else default

    def __getitem__(self, y: int) -> int:
        if self.inside >> y & 1:
            return -1 if self.odd >> y & 1 else 1
        raise KeyError(y)

    def __iter__(self):
        return iter(_indices(self.inside))

    def __len__(self) -> int:
        return self.inside.bit_count()


def _crosscut_rows(lattice: Lattice):
    """Yield, for each x in element order, a mapping of y to mu(x, y) where
    nonzero, (x, 1) first.

    By Rota's crosscut theorem (Rota 1964, "On the foundations of
    combinatorial theory I"), mu(x, y) is the sum of (-1)^|S| over the sets S
    of upper covers of x with x v (join of S) = y; one cover a gives
    {x: 1, a: -1}.  With k >= 3 covers, the join x+ of all of them, and of
    all but each cover, is read off ``_pup`` (see :class:`Lattice`) by
    suffix and prefix ANDs.  If no cover lies below the join of the others,
    the joins of two different sets of covers differ (a cover in one set
    only would lie below the other's join); if also [x, x+] has 2^k
    elements, those 2^k joins fill it, so the row is a :class:`_BooleanRow`,
    -1 above an odd number of covers.  Any other row starts as {x: 1} and each upper cover a
    subtracts its push-forward under t -> t v a, read off
    ``_pup[t] & _pup[a]``: the work follows the nonzeros."""
    pup, up, down = lattice._pup, lattice._up, lattice._down
    ints = list(range(len(pup)))  # ints: one object per key
    for x, covers in enumerate(lattice._cov_up):
        if len(covers) == 1:
            yield {x: 1, covers[0]: -1}
            continue
        if len(covers) > 2:  # the crosscut of two covers pushes three entries: cheaper than tests
            after, join = [], -1  # last cover first: the _pup of the join of those after it
            for a in reversed(covers):
                after.append(join)
                join &= pup[a]
            inside = up[x] & down[-join.bit_length()]
            if inside.bit_count() == 1 << len(covers):
                before, odd = -1, 0
                for a, rest in zip(covers, reversed(after)):
                    if (before & rest).bit_length() == join.bit_length():
                        break  # a lies below the join of the others
                    before &= pup[a]
                    odd ^= up[a]
                else:
                    yield _BooleanRow(inside, inside & odd)
                    continue
        d = {x: 1}
        for a in covers:
            up_a = pup[a]
            for t, v in list(d.items()):
                y = ints[-(pup[t] & up_a).bit_length()]
                c = d.get(y, 0) - v
                if c:
                    d[y] = c
                else:
                    del d[y]
        yield d


def mobius_function(l: Lattice) -> MobiusMatrix:
    """Moebius coefficients of the lattice (depends only on the order), cached."""
    return _cached(l, "mobius", lambda: MobiusMatrix(l))


def mobius_transform(f: SetFunction) -> SetFunction:
    """m with f(x) = sum of m(y) over y <= x."""
    return SetFunction(f.lattice, _Vector(_solve(f.lattice, "down", f.vector)))


def _passes(l: Lattice):
    """The covers (x, y), x < y, of a distributive lattice ordered by label,
    cached; None on any other lattice.  The label of x < y is the one bit
    of eta(y) ^ eta(x), eta = ``_down & _jmask``, and labels ascend with
    the index of their join-irreducible, a linear extension of J: one pass
    per label, back to back (see the module docstring)."""
    return _cached(l, "passes", lambda: _label_passes(l) if is_distributive(l) else None)


def _label_passes(l: Lattice) -> list[tuple[int, int]]:
    eta, passes = [d & l._jmask for d in l._down], {}
    for y, below in enumerate(l._cov_down):
        for x in below:  # keyed by the label's bit length, which ascends with it
            passes.setdefault((eta[y] ^ eta[x]).bit_length(), []).append((x, y))
    return [cover for label in sorted(passes) for cover in passes[label]]


def _steps(l: Lattice, side: str) -> list[tuple]:
    """The steps of the down-set (up-set) sums on a lattice that is not
    distributive, cached: one ``(x, c, get)`` per element x, ascending
    (descending), so each step comes after the steps of x's covers.

    The bits of ``_down`` (``_pup``) run in that order.  ``get`` gathers, in
    it, the values of the elements of x's set that are not in c's set.
    ``c`` is x's "prefix cover": a lower (upper) cover whose set is x's set
    up to c itself, so that x's sum is c's continued over the rest.  Only
    the cover at the lowest bit can qualify, since any other cover would
    lie in x's set before it.  When none qualifies, ``c`` is -1 and the rest
    is all of x's set.  A rest whose indices run consecutively is gathered
    as one slice; the indices of any other are drawn from one list's ints.
    """
    return _cached(l, side, lambda: list(_each_step(l, side)))


def _each_step(l: Lattice, side: str):
    ints = list(range(len(l)))  # the int objects every getter below shares
    sets, covers, by_bit = ((l._down, l._cov_down, ints) if side == "down"
                            else (l._pup, l._cov_up, ints[::-1]))  # by_bit: the element at each bit
    for x in by_bit:
        rest, c = sets[x], -1
        if covers[x] and _LEFT_TO_RIGHT:
            low = min(covers[x], key=sets.__getitem__)  # lowest bit: its set ends first
            if rest & (1 << sets[low].bit_length()) - 1 == sets[low]:
                rest, c = rest ^ sets[low], low
        if not rest & rest - 1:  # x alone, as on every chain
            yield x, c, itemgetter(slice(x, x + 1))
            continue
        first = (rest & -rest).bit_length() - 1
        bits = bin(rest >> first)[:1:-1].encode().translate(_BYTE_OF_DIGIT)  # lowest bit first
        ids = list(itertools.compress(by_bit[first:first + len(bits)], bits))
        a, b = ids[0], ids[-1]
        step = 1 if a <= b else -1
        if abs(b - a) == len(ids) - 1 and ids == list(range(a, b + step, step)):
            yield x, c, itemgetter(slice(a, b + step if b + step >= 0 else None, step))
        else:
            yield x, c, itemgetter(*ids)


def zeta_transform(m: SetFunction) -> SetFunction:
    """f(x) = sum of m(y) over y <= x; inverse of the Moebius transform."""
    return SetFunction(m.lattice, _Vector(_sums(m.lattice, "down", m.vector)))


def comobius_transform(m: SetFunction) -> SetFunction:
    """q(x) = sum of m(y) over y >= x (the commonality side)."""
    return SetFunction(m.lattice, _Vector(_sums(m.lattice, "up", m.vector)))


def _sums(l: Lattice, side: str, values) -> list[float]:
    """The sum of the values over each element's down-set (up-set): one add
    per cover where the lattice is distributive, else each set's sum its
    prefix cover's continued over the rest (see :func:`_steps`)."""
    passes = _passes(l)
    if passes is not None:
        g = [v + 0.0 for v in values]  # no -0.0 (see the module docstring)
        if side == "down":
            for x, y in passes:
                g[y] += g[x]
        else:
            for x, y in reversed(passes):
                g[x] += g[y]
        return g
    total = [0] * (len(l) + 1)  # total[-1] = 0 starts a sum that continues no cover's
    for x, c, get in _steps(l, side):
        total[x] = sum(get(values), total[c])
    total.pop()
    return total


def mass_from_comobius(q: SetFunction) -> SetFunction:
    """Invert the co-Moebius transform: the m with q(x) = sum of m(y) over
    y >= x, so that comobius_transform(result) equals q."""
    return SetFunction(q.lattice, _Vector(_solve(q.lattice, "up", q.vector)))


def _solve(l: Lattice, side: str, given) -> list[float]:
    """The out with given[x] = sum of out[y] over the down-set (up-set) of
    x.  Where the lattice is distributive, the passes of :func:`_sums` are
    undone in reverse order.  Elsewhere, by substitution up the elements
    (down, for up-sets): out[x] depends only on x's strict members, which
    come first.  x is last in its set's summation order, so its whole-set
    sum, out[x] included, is the one a later sum continues, as in
    :func:`_sums`."""
    passes = _passes(l)
    if passes is not None:
        g = [v + 0.0 for v in given]
        if side == "down":
            for x, y in reversed(passes):
                g[y] -= g[x]
        else:
            for x, y in passes:
                g[x] -= g[y]
        return g
    out = [0.0] * len(l)
    total = [0] * (len(l) + 1)
    for x, c, get in _steps(l, side):
        s = sum(get(out), total[c])  # out[x] itself is still 0.0
        out[x] = v = given[x] - s
        total[x] = s + v
    return out
