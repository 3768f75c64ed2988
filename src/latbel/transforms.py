"""The Moebius function of a lattice and the associated function transforms.

For a function f on the lattice, its Moebius transform is the unique m with
f(x) = sum of m(y) over y <= x; the zeta transform is that summation itself.
The co-Moebius transform of m sums upward instead: q(x) = sum of m(y) over
y >= x, and has its own inverse obtained by Moebius inversion of the dual
order.  All arithmetic is double precision except the Moebius coefficients,
which are exact integers.
"""

from __future__ import annotations

import math

from .errors import IncompleteFunction, UnknownElement
from .lattice import Lattice, _indices


class SetFunction:
    """A total assignment of finite real values to the elements of one lattice."""

    __slots__ = ("lattice", "values")

    def __init__(self, lattice: Lattice, values):
        vals = dict(values)
        extra = [x for x in vals if x not in lattice]
        if extra:
            raise UnknownElement(extra[0])
        missing = [x for x in lattice.elements if x not in vals]
        if missing:
            raise IncompleteFunction(missing)
        self.lattice = lattice
        try:
            self.values = {x: float(vals[x]) for x in lattice.elements}
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"function values must be finite numbers: {exc}") from None
        for x, v in self.values.items():
            if not math.isfinite(v):
                raise ValueError(f"value of {x!r} is not finite: {v!r}")

    def __getitem__(self, x: str) -> float:
        try:
            return self.values[x]
        except KeyError:
            raise UnknownElement(x) from None

    def items(self):
        """(element, value) pairs in lattice input order."""
        return self.values.items()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.values!r})"


class MobiusMatrix:
    """The two-variable Moebius function mu(x, y) of a lattice, for x <= y.

    mu(x, x) = 1 and, for x < y, the values on the half-open interval
    [x, y) sum to -mu(x, y); pairs with x not below y give 0.  Only nonzero
    values are stored: ``_rows[x]`` maps y to mu(x, y) in ascending index
    order.  It keeps the poset, not the lattice, so caching it on the
    lattice makes no reference cycle.
    """

    __slots__ = ("poset", "_rows")

    def __init__(self, lattice: Lattice):
        p = lattice.poset
        self.poset = p
        down = p._down
        size = [d.bit_count() for d in down]
        rows = []
        for x in range(len(p)):
            above = sorted(_indices(p._up[x]), key=size.__getitem__)  # a linear extension
            # The t already done with mu(x, t) = v, as one bitset per value v;
            # mu(x, y) is minus the sum over those t inside down[y].
            done = {1: 1 << x}
            row = [(x, 1)]
            for y in above[1:]:
                below = down[y]
                c = 0
                for v, mask in done.items():
                    c -= v * (mask & below).bit_count()
                if c:
                    done[c] = done.get(c, 0) | 1 << y
                    row.append((y, c))
            rows.append(dict(sorted(row)))
        self._rows = rows

    def mu(self, x: str, y: str) -> int:
        p = self.poset
        return self._rows[p.index_of(x)].get(p.index_of(y), 0)


def mobius_function(l: Lattice) -> MobiusMatrix:
    """Moebius coefficients of the lattice (depends only on the order), cached."""
    if "mobius" not in l._cache:
        l._cache["mobius"] = MobiusMatrix(l)
    return l._cache["mobius"]


def mobius_transform(f: SetFunction) -> SetFunction:
    """m with f(x) = sum of m(y) over y <= x."""
    l = f.lattice
    # m(x) collects mu(y, x) f(y) over y <= x in ascending y
    totals = [0.0] * len(l)
    for fy, row in zip(f.values.values(), mobius_function(l)._rows):
        for x, c in row.items():
            totals[x] += c * fy
    return SetFunction(l, dict(zip(l.elements, totals)))


def _members(l: Lattice, side: str) -> list[tuple[int, ...]]:
    """Ascending indices of each element's down-set or up-set, cached."""
    if side not in l._cache:
        masks = l.poset._down if side == "down" else l.poset._up
        l._cache[side] = [tuple(_indices(mask)) for mask in masks]
    return l._cache[side]


def zeta_transform(m: SetFunction) -> SetFunction:
    """f(x) = sum of m(y) over y <= x; inverse of the Moebius transform."""
    l = m.lattice
    get = list(m.values.values()).__getitem__
    vals = {x: sum(map(get, below)) for x, below in zip(l.elements, _members(l, "down"))}
    return SetFunction(l, vals)


def comobius_transform(m: SetFunction) -> SetFunction:
    """q(x) = sum of m(y) over y >= x (the commonality side)."""
    l = m.lattice
    get = list(m.values.values()).__getitem__
    vals = {x: sum(map(get, above)) for x, above in zip(l.elements, _members(l, "up"))}
    return SetFunction(l, vals)


def mass_from_comobius(q: SetFunction) -> SetFunction:
    """Invert the co-Moebius transform: m(x) recovered by Moebius inversion of
    the reversed order, so that comobius_transform(result) equals q."""
    l = q.lattice
    rows = mobius_function(l)._rows
    qv = list(q.values.values())
    vals = {x: sum(c * qv[y] for y, c in row.items()) for x, row in zip(l.elements, rows)}
    return SetFunction(l, vals)
