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
each function's ``vector`` of values in lattice input order.
"""

from __future__ import annotations

import math

from .errors import IncompleteFunction, UnknownElement
from .lattice import Lattice, _cached, _indices


class _Vector(tuple):
    """Values in lattice input order: a stored function, or a result the library built."""

    __slots__ = ()


class SetFunction:
    """A total assignment of finite real values to the elements of one lattice,
    stored only as ``vector``, one tuple in lattice input order, and never
    changed; ``values`` returns a new name-to-value dict on each access."""

    __slots__ = ("lattice", "vector")

    def __init__(self, lattice: Lattice, values):
        if not isinstance(values, _Vector):
            vals = dict(values)
            extra = [x for x in vals if x not in lattice]
            if extra:
                raise UnknownElement(extra[0])
            missing = [x for x in lattice.elements if x not in vals]
            if missing:
                raise IncompleteFunction(missing)
            values = map(vals.__getitem__, lattice.elements)
        try:
            vector = _Vector(map(float, values))
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"function values must be finite numbers: {exc}") from None
        if len(vector) != len(lattice):
            raise ValueError(f"{len(vector)} values for {len(lattice)} elements")
        for x, v in zip(lattice.elements, vector):
            if not math.isfinite(v):
                raise ValueError(f"value of {x!r} is not finite: {v!r}")
        self.lattice = lattice
        self.vector = vector

    @property
    def values(self) -> dict:
        """A new dict of element name to value, in lattice input order."""
        return dict(zip(self.lattice.elements, self.vector))

    def __getitem__(self, x: str) -> float:
        return self.vector[self.lattice.poset.index_of(x)]

    def items(self):
        """(element, value) pairs in lattice input order."""
        return self.values.items()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.values!r})"


class MobiusMatrix:
    """The two-variable Moebius function mu(x, y) of a lattice, for x <= y.

    By Rota's crosscut theorem (Rota 1964, "On the foundations of
    combinatorial theory I"), mu(x, y) is the sum of (-1)^|S| over the sets S
    of upper covers of x with x v (join of S) = y.  Row x starts as {x: 1}
    and each upper cover a subtracts the row's push-forward under t -> t v a,
    so the work follows the nonzeros met, not the up-set of x.  Only nonzero
    values are stored: ``_rows[x]`` maps y to mu(x, y) in ascending index
    order.  It keeps the poset, not the lattice, so caching it on the lattice
    makes no reference cycle.
    """

    __slots__ = ("poset", "_rows")

    def __init__(self, lattice: Lattice):
        p = lattice.poset
        self.poset = p
        join = lattice._join
        rows = []
        for x, covers in enumerate(p._cov_up):
            d = {x: 1}
            for a in covers:
                join_a = join[a]
                for t, v in list(d.items()):
                    y = join_a[t]
                    c = d.get(y, 0) - v
                    if c:
                        d[y] = c
                    else:
                        del d[y]
            rows.append(dict(sorted(d.items())))
        self._rows = rows

    def mu(self, x: str, y: str) -> int:
        p = self.poset
        return self._rows[p.index_of(x)].get(p.index_of(y), 0)


def mobius_function(l: Lattice) -> MobiusMatrix:
    """Moebius coefficients of the lattice (depends only on the order), cached."""
    return _cached(l, "mobius", lambda: MobiusMatrix(l))


def mobius_transform(f: SetFunction) -> SetFunction:
    """m with f(x) = sum of m(y) over y <= x."""
    return _solve(f.lattice, "down", f)


def _members(l: Lattice, side: str) -> list[tuple[int, ...]]:
    """Ascending indices of each element's down-set or up-set, cached."""
    masks = l.poset._down if side == "down" else l.poset._up
    return _cached(l, side, lambda: [tuple(_indices(mask)) for mask in masks])


def zeta_transform(m: SetFunction) -> SetFunction:
    """f(x) = sum of m(y) over y <= x; inverse of the Moebius transform."""
    return _sums(m, "down")


def comobius_transform(m: SetFunction) -> SetFunction:
    """q(x) = sum of m(y) over y >= x (the commonality side)."""
    return _sums(m, "up")


def _sums(m: SetFunction, side: str) -> SetFunction:
    """The sum of m over each element's down-set (up-set)."""
    get = list(m.vector).__getitem__  # a list's item getter maps faster than a tuple's
    return SetFunction(m.lattice, _Vector(sum(map(get, ms)) for ms in _members(m.lattice, side)))


def mass_from_comobius(q: SetFunction) -> SetFunction:
    """Invert the co-Moebius transform: the m with q(x) = sum of m(y) over
    y >= x, so that comobius_transform(result) equals q."""
    return _solve(q.lattice, "up", q)


def _solve(l: Lattice, side: str, totals: SetFunction) -> SetFunction:
    """The out with totals(x) = sum of out(y) over the down-set (up-set) of
    x, by substitution along the lattice's linear extension (reversed for
    up-sets): out[x] depends only on x's strict members, which come first."""
    members = _members(l, side)
    given = totals.vector
    out = [0.0] * len(l)
    get = out.__getitem__
    for x in l._order if side == "down" else reversed(l._order):
        out[x] = given[x] - sum(map(get, members[x]))  # out[x] itself is still 0
    return SetFunction(l, _Vector(out))
