"""The Moebius function of a lattice and the associated function transforms.

For a function f on the lattice, its Moebius transform is the unique m with
f(x) = sum of m(y) over y <= x; the zeta transform is that summation itself.
The co-Moebius transform of m sums upward instead: q(x) = sum of m(y) over
y >= x.  Both inversions solve their summation by substitution along a
linear extension (upward for Moebius, downward for co-Moebius): each m(x) is
its total minus the values already found strictly below (above) x, so they
need neither the Moebius coefficients nor any matrix.  The coefficients
mu(x, y) themselves, exact integers, are computed on demand by
``mobius_function``, each row x by Rota's crosscut theorem over the upper
covers of x (Rota 1964).  All other arithmetic is double precision, on
each function's ``vector`` of values in lattice element order.

Elements are numbered along a linear extension (see ``lattice``), so each
down-set (up-set) is summed left to right from 0 in ascending (descending)
index order.  The sums share work without changing a bit: where c's set is
x's set up to c, a lower (upper) cover of x, the sum over x's set is the
sum over c's, already computed, continued over the rest (see
:func:`_steps`).  CPython's float ``sum`` before 3.12 adds left to right
and a running sum from 0 is never -0.0, so continuing c's total gives the
same float as summing x's whole set, signed zeros included.  Where ``sum``
compensates its rounding (3.12 on), no sum continues another.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

from .errors import IncompleteFunction, InvalidFunction, UnknownElement
from .lattice import _BYTE_OF_DIGIT, Lattice, _cached

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


def _crosscut_rows(lattice: Lattice):
    """Yield, for each x in element order, the dict of y to mu(x, y) where nonzero.

    By Rota's crosscut theorem (Rota 1964, "On the foundations of
    combinatorial theory I"), mu(x, y) is the sum of (-1)^|S| over the sets S
    of upper covers of x with x v (join of S) = y.  Row x starts as {x: 1} and
    each upper cover a subtracts its push-forward under t -> t v a, read off
    ``_pup[t] & _pup[a]`` (see :class:`Lattice`): the work follows the nonzeros."""
    pup, ints = lattice._pup, list(range(len(lattice)))  # ints: one object per key
    for x, covers in enumerate(lattice._cov_up):
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


def _steps(l: Lattice, side: str) -> list[tuple]:
    """The steps of the down-set (up-set) sums, cached: one ``(x, c, get)``
    per element x, ascending (descending), so each step comes after the
    steps of x's covers.

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
    """The sum of the values over each element's down-set (up-set), each
    one its prefix cover's sum continued over the rest (see :func:`_steps`)."""
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
    x, by substitution up the elements (down, for up-sets): out[x] depends
    only on x's strict members, which come first.  x is last in its set's
    summation order, so its whole-set sum, out[x]
    included, is the one a later sum continues, as in :func:`_sums`."""
    out = [0.0] * len(l)
    total = [0] * (len(l) + 1)
    for x, c, get in _steps(l, side):
        s = sum(get(out), total[c])  # out[x] itself is still 0.0
        out[x] = v = given[x] - s
        total[x] = s + v
    return out
